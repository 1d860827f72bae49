package aggcache

import (
	"sync"
	"testing"

	"aggcache/internal/cache"
	"aggcache/internal/experiments"
)

// Figure benchmarks: each BenchmarkFig* regenerates the corresponding
// paper figure's table once per iteration (at a reduced trace length so a
// bench iteration stays subsecond) and reports the figure's headline
// quantity as a custom metric. cmd/experiments produces the full-scale
// tables recorded in EXPERIMENTS.md.

const benchOpens = 15000

var benchCfg = experiments.Config{Opens: benchOpens, Seed: 1}

// benchIDs caches generated workloads across benchmarks.
var benchIDs sync.Map // WorkloadProfile -> []FileID

func workloadIDs(b *testing.B, p WorkloadProfile) []FileID {
	b.Helper()
	if v, ok := benchIDs.Load(p); ok {
		return v.([]FileID)
	}
	tr, err := StandardWorkload(p, 1, benchOpens)
	if err != nil {
		b.Fatal(err)
	}
	ids := tr.OpenIDs()
	benchIDs.Store(p, ids)
	return ids
}

func benchFigure(b *testing.B, id string, metric func(*experiments.Table) (string, float64)) {
	b.Helper()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiments.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if tab != nil && metric != nil {
		name, v := metric(tab)
		b.ReportMetric(v, name)
	}
}

// fetchReduction returns the g5-vs-LRU fetch reduction (%) at the smallest
// capacity row of a Figure-3 table.
func fetchReduction(tab *experiments.Table) (string, float64) {
	row := tab.Rows[0]
	lru, g5 := row[1], row[4]
	return "g5_fetch_reduction_%", 100 * (1 - g5/lru)
}

// aggAdvantage returns agg minus LRU server hit rate (points) at the
// largest filter of a Figure-4 table.
func aggAdvantage(tab *experiments.Table) (string, float64) {
	row := tab.Rows[len(tab.Rows)-1]
	return "g5_minus_lru_hitrate_pts", row[1] - row[2]
}

// lruEdge returns LFU-minus-LRU miss probability (x1000) at list size 3
// of a Figure-5 table (at size 1 the two policies are identical by
// construction, so the interesting gap starts at 2+).
func lruEdge(tab *experiments.Table) (string, float64) {
	row := tab.Rows[2]
	return "lfu_minus_lru_missprob_milli", 1000 * (row[3] - row[2])
}

func BenchmarkFig3aClientFetchesServer(b *testing.B) { benchFigure(b, "3a", fetchReduction) }
func BenchmarkFig3bClientFetchesWrite(b *testing.B)  { benchFigure(b, "3b", fetchReduction) }

func BenchmarkFig4aServerHitRateWorkstation(b *testing.B) { benchFigure(b, "4a", aggAdvantage) }
func BenchmarkFig4bServerHitRateUsers(b *testing.B)       { benchFigure(b, "4b", aggAdvantage) }
func BenchmarkFig4cServerHitRateServer(b *testing.B)      { benchFigure(b, "4c", aggAdvantage) }

func BenchmarkFig5aSuccessorListsWorkstation(b *testing.B) { benchFigure(b, "5a", lruEdge) }
func BenchmarkFig5bSuccessorListsServer(b *testing.B)      { benchFigure(b, "5b", lruEdge) }

func BenchmarkFig7SuccessorEntropy(b *testing.B) {
	benchFigure(b, "7", func(tab *experiments.Table) (string, float64) {
		return "server_entropy_bits_k1", tab.Rows[0][3]
	})
}

func BenchmarkFig8aFilteredEntropyWrite(b *testing.B) {
	benchFigure(b, "8a", func(tab *experiments.Table) (string, float64) {
		// Predictability gain of a 500-file filter over a 10-file
		// filter at k=1.
		return "f10_minus_f500_bits", tab.Rows[0][2] - tab.Rows[0][5]
	})
}

func BenchmarkFig8bFilteredEntropyUsers(b *testing.B) {
	benchFigure(b, "8b", func(tab *experiments.Table) (string, float64) {
		return "f10_minus_f500_bits", tab.Rows[0][2] - tab.Rows[0][5]
	})
}

func BenchmarkClaimsHeadline(b *testing.B) { benchFigure(b, "claims", nil) }

// Ablation benchmarks: the design choices DESIGN.md calls out.

// Placement of speculative members: tail (paper) vs head (aggressive).
func BenchmarkAblationPlacement(b *testing.B) {
	ids := workloadIDs(b, ProfileServer)
	for _, tt := range []struct {
		name string
		p    Placement
	}{{"tail", PlacementTail}, {"head", PlacementHead}} {
		tt := tt
		b.Run(tt.name, func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				c, err := New(Config{Capacity: 300, GroupSize: 5, Placement: tt.p})
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					c.Access(id)
				}
				hitRate = c.Stats().HitRate()
			}
			b.ReportMetric(100*hitRate, "hitrate_%")
		})
	}
}

// Group construction: transitive chaining (paper) vs breadth-first.
func BenchmarkAblationStrategy(b *testing.B) {
	ids := workloadIDs(b, ProfileServer)
	for _, tt := range []struct {
		name string
		s    GroupStrategy
	}{{"chain", StrategyChain}, {"breadth", StrategyBreadth}} {
		tt := tt
		b.Run(tt.name, func(b *testing.B) {
			var fetches uint64
			for i := 0; i < b.N; i++ {
				c, err := New(Config{Capacity: 300, GroupSize: 5, Strategy: tt.s})
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					c.Access(id)
				}
				fetches = c.Stats().DemandFetches()
			}
			b.ReportMetric(float64(fetches), "fetches")
		})
	}
}

// Successor-list policy inside the aggregating cache: LRU (paper) vs LFU.
func BenchmarkAblationSuccessorPolicy(b *testing.B) {
	ids := workloadIDs(b, ProfileWorkstation)
	for _, tt := range []struct {
		name   string
		policy SuccessorPolicy
	}{{"lru", SuccessorLRU}, {"lfu", SuccessorLFU}} {
		tt := tt
		b.Run(tt.name, func(b *testing.B) {
			var fetches uint64
			for i := 0; i < b.N; i++ {
				c, err := New(Config{Capacity: 300, GroupSize: 5, SuccessorPolicy: tt.policy})
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					c.Access(id)
				}
				fetches = c.Stats().DemandFetches()
			}
			b.ReportMetric(float64(fetches), "fetches")
		})
	}
}

// Plain replacement policies on the same workload, for context.
func BenchmarkAblationBaselines(b *testing.B) {
	ids := workloadIDs(b, ProfileServer)
	for _, p := range cache.Policies {
		b.Run(string(p), func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				c, err := NewBaseline(p, 300)
				if err != nil {
					b.Fatal(err)
				}
				for _, id := range ids {
					c.Access(id)
				}
				hitRate = c.Stats().HitRate()
			}
			b.ReportMetric(100*hitRate, "hitrate_%")
		})
	}
}

// Server metadata source: filtered miss stream (§4.3) vs piggybacked full
// stream (§3).
func BenchmarkAblationPiggyback(b *testing.B) {
	ids := workloadIDs(b, ProfileWorkstation)
	for _, tt := range []struct {
		name      string
		piggyback bool
	}{{"filtered", false}, {"piggybacked", true}} {
		tt := tt
		b.Run(tt.name, func(b *testing.B) {
			var hitRate float64
			for i := 0; i < b.N; i++ {
				r, err := SimulateServer(ids, ServerSimConfig{
					FilterCapacity: 200,
					ServerCapacity: 300,
					Scheme:         ServerAggregating,
					GroupSize:      5,
					Piggyback:      tt.piggyback,
				})
				if err != nil {
					b.Fatal(err)
				}
				hitRate = r.HitRate
			}
			b.ReportMetric(100*hitRate, "hitrate_%")
		})
	}
}

// Micro-benchmarks: per-access costs of the hot paths.

func BenchmarkAccessAggregating(b *testing.B) {
	ids := workloadIDs(b, ProfileServer)
	c, err := New(Config{Capacity: 300, GroupSize: 5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(ids[i%len(ids)])
	}
}

func BenchmarkAccessBaselineLRU(b *testing.B) {
	ids := workloadIDs(b, ProfileServer)
	c, err := NewBaseline(BaselineLRU, 300)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(ids[i%len(ids)])
	}
}

func BenchmarkTrackerObserve(b *testing.B) {
	ids := workloadIDs(b, ProfileServer)
	tr, err := NewTracker(SuccessorLRU, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Observe(ids[i%len(ids)])
	}
}

func BenchmarkSuccessorEntropyK1(b *testing.B) {
	ids := workloadIDs(b, ProfileServer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SuccessorEntropy(ids, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension-study benchmarks (see EXPERIMENTS.md "Extensions").

func BenchmarkExtensionPrefetchComparison(b *testing.B) {
	benchFigure(b, "xprefetch", func(tab *experiments.Table) (string, float64) {
		// Request savings of grouping vs the last-successor prefetcher.
		agg := tab.Rows[len(tab.Rows)-1]
		last := tab.Rows[2]
		return "request_reduction_%", 100 * (1 - agg[2]/last[2])
	})
}

func BenchmarkExtensionPlacement(b *testing.B) {
	benchFigure(b, "xplacement", func(tab *experiments.Table) (string, float64) {
		// Seek advantage of grouped layout over organ pipe.
		return "grouped_vs_organpipe_ratio", tab.Rows[2][0] / tab.Rows[1][0]
	})
}

func BenchmarkExtensionHoard(b *testing.B) {
	benchFigure(b, "xhoard", func(tab *experiments.Table) (string, float64) {
		// Completion-point advantage at the tightest budget that fits a
		// few whole tasks.
		row := tab.Rows[2]
		return "closure_minus_freq_pts", row[2] - row[1]
	})
}
