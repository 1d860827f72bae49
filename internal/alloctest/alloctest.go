// Package alloctest pins allocation budgets in tests.
package alloctest

import "testing"

// PerOp returns the allocations one op costs the whole process — every
// goroutine of an in-process client/server system is counted — as
// testing.AllocsPerRun measures it, after a warm-up that fills the pools,
// the interners and whatever the system under test learns. It skips the
// test under the race detector, where sync.Pool drops a share of what it
// is handed and pooled paths allocate at random.
func PerOp(t *testing.T, op func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are pinned without the race detector")
	}
	for i := 0; i < 64; i++ {
		op()
	}
	return testing.AllocsPerRun(400, op)
}

// Total returns what one run of op allocates, for an op that is a whole
// workload rather than one operation of a warmed system; it skips the test
// under the race detector, like PerOp.
func Total(t *testing.T, op func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets are pinned without the race detector")
	}
	return testing.AllocsPerRun(1, op)
}
