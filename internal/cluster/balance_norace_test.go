//go:build !race

package cluster

// liveGroups: fsnet counts referenced groups in race builds only.
func liveGroups() (n int64, counted bool) { return 0, false }
