//go:build race

package cluster

import "aggcache/internal/fsnet"

// liveGroups reads fsnet's race-build count of referenced groups.
func liveGroups() (n int64, counted bool) { return fsnet.LiveGroups(), true }
