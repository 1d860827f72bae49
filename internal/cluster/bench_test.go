package cluster

import "testing"

// BenchmarkOpenOwnerDirect is a miss of a path another node owns: the
// client sends it straight to the owner, which stages the group from its
// store. Every iteration fetches.
func BenchmarkOpenOwnerDirect(b *testing.B) {
	tc := plainRing(b)
	op := tc.opener(b, 0, tc.pathsOwnedBy(b, 1, 8))
	for i := 0; i < 64; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
