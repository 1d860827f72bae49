package cache

import (
	"math/rand"
	"testing"

	"aggcache/internal/trace"
)

// benchRefs builds a mildly skewed reference string.
func benchRefs(n, universe int) []trace.FileID {
	rng := rand.New(rand.NewSource(1))
	refs := make([]trace.FileID, n)
	for i := range refs {
		if rng.Float64() < 0.8 {
			refs[i] = trace.FileID(rng.Intn(universe / 4))
		} else {
			refs[i] = trace.FileID(rng.Intn(universe))
		}
	}
	return refs
}

func BenchmarkPolicies(b *testing.B) {
	refs := benchRefs(1<<16, 4096)
	for _, p := range Policies {
		b.Run(string(p), func(b *testing.B) {
			c, err := New(p, 1024)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(refs[i&(len(refs)-1)])
			}
		})
	}
}

// BenchmarkGroupLRU drives the §3 placement rule the way the simulator
// does: a demand per reference and, on a miss, Install of a group of five,
// the reference and the four that follow it standing in for its predicted
// successors.
func BenchmarkGroupLRU(b *testing.B) {
	refs := benchRefs(1<<16, 4096)
	g, err := NewGroupLRU(1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & (len(refs) - 1)
		if hit, _ := g.Demand(refs[k]); !hit {
			g.Install(refs[k:min(k+5, len(refs))], false)
		}
	}
}

func BenchmarkOPT(b *testing.B) {
	refs := benchRefs(1<<16, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		opt, err := NewOPT(1024, refs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(refs)), "refs/op")
}
