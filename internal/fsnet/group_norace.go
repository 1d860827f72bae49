//go:build !race

package fsnet

// poolReleased: a released group's container goes back to its pool.
const poolReleased = true

func noteGroupLive(int64) {}

func scribbleReleased(*Group) {}
