package cluster

import "testing"

// BenchmarkOpenForwarded is an open whose group lives on another node:
// client → entry node → owner and back, the owner's group materialised
// once at the entry node. Every iteration forwards.
func BenchmarkOpenForwarded(b *testing.B) {
	tc := forwardRing(b)
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
