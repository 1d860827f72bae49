//go:build race

package fsnet

// raceBuild reports a build with the race detector, under which the
// slowest tests shrink their workloads.
const raceBuild = true
