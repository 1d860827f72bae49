//go:build !race

package fsnet

// raceBuild: see race_test.go.
const raceBuild = false
