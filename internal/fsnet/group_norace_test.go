//go:build !race

package fsnet

// liveGroups: the reference balance is only counted in race builds.
func liveGroups() (n int64, counted bool) { return 0, false }
