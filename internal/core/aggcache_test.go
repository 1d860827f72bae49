package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aggcache/internal/alloctest"
	"aggcache/internal/cache"
	"aggcache/internal/group"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

func mustNew(t *testing.T, cfg Config) *AggregatingCache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero capacity", Config{}},
		{"negative capacity", Config{Capacity: -3}},
		{"negative group", Config{Capacity: 10, GroupSize: -1}},
		{"bad successor policy", Config{Capacity: 10, SuccessorPolicy: "bogus"}},
		{"bad placement", Config{Capacity: 10, Placement: Placement(9)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Errorf("New(%+v) succeeded", tt.cfg)
			}
		})
	}
}

func TestDefaults(t *testing.T) {
	c := mustNew(t, Config{Capacity: 10})
	if c.GroupSize() != 5 {
		t.Errorf("default GroupSize = %d, want 5", c.GroupSize())
	}
	if c.Cap() != 10 {
		t.Errorf("Cap = %d, want 10", c.Cap())
	}
}

func TestGroupSize1IsPlainLRU(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 4, GroupSize: 1})
	lru, _ := cache.NewLRU(4)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		id := trace.FileID(rng.Intn(12))
		if agg.Access(id) != lru.Access(id) {
			t.Fatalf("divergence from plain LRU at access %d", i)
		}
	}
	if agg.Stats().DemandFetches() != lru.Stats().Misses {
		t.Errorf("agg fetches %d != lru misses %d",
			agg.Stats().DemandFetches(), lru.Stats().Misses)
	}
}

func TestImplicitPrefetchServesChain(t *testing.T) {
	// Two deterministic working sets that evict each other (capacity
	// holds only one): entering a set misses on its first file, and the
	// group fetch pre-loads the rest — those accesses are prefetch hits.
	agg := mustNew(t, Config{Capacity: 5, GroupSize: 5, SuccessorCapacity: 2})
	taskA := []trace.FileID{1, 2, 3, 4, 5}
	taskB := []trace.FileID{10, 11, 12, 13, 14}
	var accesses int
	for round := 0; round < 30; round++ {
		for _, id := range taskA {
			agg.Access(id)
			accesses++
		}
		for _, id := range taskB {
			agg.Access(id)
			accesses++
		}
	}
	s := agg.Stats()
	if s.PrefetchHits == 0 {
		t.Error("no prefetch hits on deterministic alternating chains")
	}
	// With groups the fetch count must be well below one per access.
	if s.DemandFetches() >= uint64(accesses)/2 {
		t.Errorf("fetches = %d of %d accesses, not reduced", s.DemandFetches(), accesses)
	}
}

func TestGroupingBeatsLRUOnCyclicPattern(t *testing.T) {
	// The loop of N+1 distinct files over a cache of N is LRU's worst
	// case (0 hits). Grouping learns the cycle and prefetches ahead.
	const universe = 8
	var seq []trace.FileID
	for round := 0; round < 200; round++ {
		for id := trace.FileID(0); id < universe; id++ {
			seq = append(seq, id)
		}
	}
	lru, _ := cache.NewLRU(universe - 1)
	for _, id := range seq {
		lru.Access(id)
	}
	agg := mustNew(t, Config{Capacity: universe - 1, GroupSize: 5})
	for _, id := range seq {
		agg.Access(id)
	}
	if lruHits := lru.Stats().Hits; lruHits != 0 {
		t.Fatalf("LRU hits = %d, want 0 (pathological loop)", lruHits)
	}
	if hits := agg.Stats().Hits; hits == 0 {
		t.Error("aggregating cache hits = 0 on loop, want > 0")
	}
	if f := agg.Stats().DemandFetches(); f >= uint64(len(seq)) {
		t.Errorf("fetches = %d of %d accesses, no reduction", f, len(seq))
	}
}

func TestDemandedFileAtHeadMembersAtTail(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 6, GroupSize: 3, SuccessorCapacity: 2})
	// Teach 1 -> 2 -> 3.
	for i := 0; i < 3; i++ {
		agg.Access(1)
		agg.Access(2)
		agg.Access(3)
	}
	// Fill recency with other files, evicting 1,2,3.
	agg.Access(10)
	agg.Access(11)
	agg.Access(12)
	agg.Access(13)
	agg.Access(14)
	agg.Access(15)
	if agg.Contains(1) {
		t.Skip("1 still resident; capacity assumptions changed")
	}
	// Miss on 1 fetches {1,2,3}: 1 at head, 3 at the very tail.
	agg.Access(1)
	if !agg.Contains(2) || !agg.Contains(3) {
		t.Fatal("group members not resident after group fetch")
	}
}

func TestServeWithoutLearn(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 4, GroupSize: 2})
	// Learn a relationship only via Learn.
	agg.Learn(1)
	agg.Learn(2)
	agg.Learn(1)
	agg.Learn(2)
	// Serve must not have counted any accesses yet.
	if s := agg.Stats(); s.Hits+s.Misses != 0 {
		t.Fatalf("Learn affected demand stats: %+v", s)
	}
	agg.Serve(1)
	if !agg.Contains(2) {
		t.Error("Serve(1) did not fetch learned successor 2")
	}
}

func TestStatsAccounting(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 4, GroupSize: 2, SuccessorCapacity: 1})
	agg.Access(1) // miss, group {1}
	agg.Access(2) // miss, group {2} (no successor of 2 yet)
	agg.Access(1) // hit
	agg.Access(2) // hit (2 resident)
	s := agg.Stats()
	if s.Misses != 2 || s.Hits != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.GroupFetches != s.Misses {
		t.Errorf("GroupFetches = %d != Misses = %d", s.GroupFetches, s.Misses)
	}
	if s.FilesFetched < s.GroupFetches {
		t.Errorf("FilesFetched = %d < GroupFetches = %d", s.FilesFetched, s.GroupFetches)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", s.HitRate())
	}
}

func TestPrefetchAccuracyBounds(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 8, GroupSize: 4})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		agg.Access(trace.FileID(rng.Intn(30)))
	}
	acc := agg.Stats().PrefetchAccuracy()
	if acc < 0 || acc > 1 {
		t.Errorf("PrefetchAccuracy = %v out of [0,1]", acc)
	}
}

func TestPrefetchAccuracyIdle(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 8})
	if got := agg.Stats().PrefetchAccuracy(); got != 0 {
		t.Errorf("idle PrefetchAccuracy = %v, want 0", got)
	}
}

func TestPlacementHeadVariant(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 4, GroupSize: 3, Placement: PlacementHead})
	for i := 0; i < 5; i++ {
		agg.Access(1)
		agg.Access(2)
		agg.Access(3)
	}
	if s := agg.Stats(); s.Hits == 0 {
		t.Errorf("head placement produced no hits: %+v", s)
	}
}

func TestBuildGroupDoesNotTouchState(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 4, GroupSize: 3})
	agg.Access(1)
	agg.Access(2)
	agg.Access(1)
	before := agg.Stats()
	g := agg.BuildGroup(1)
	if len(g) == 0 || g[0] != 1 {
		t.Errorf("BuildGroup = %v", g)
	}
	if agg.Stats() != before {
		t.Error("BuildGroup changed stats")
	}
}

func TestTrackerExposed(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 4})
	agg.Access(7)
	agg.Access(8)
	if f, ok := agg.Tracker().First(7); !ok || f != 8 {
		t.Errorf("Tracker().First(7) = %d,%v want 8,true", f, ok)
	}
}

// Property: occupancy never exceeds capacity, a served file is always
// resident afterwards, and fetch counters stay consistent, across random
// configurations and access strings.
func TestAggregatingCacheInvariants(t *testing.T) {
	f := func(seed int64, capRaw, gRaw, succRaw uint8, headPlacement bool) bool {
		capacity := int(capRaw%30) + 2
		g := int(gRaw%10) + 1
		succCap := int(succRaw%5) + 1
		placement := PlacementTail
		if headPlacement {
			placement = PlacementHead
		}
		agg, err := New(Config{
			Capacity:          capacity,
			GroupSize:         g,
			SuccessorCapacity: succCap,
			Placement:         placement,
		})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 800; i++ {
			id := trace.FileID(rng.Intn(capacity * 2))
			agg.Access(id)
			if agg.Len() > agg.Cap() {
				return false
			}
			if !agg.Contains(id) {
				return false
			}
		}
		s := agg.Stats()
		return s.GroupFetches == s.Misses &&
			s.FilesFetched >= s.GroupFetches &&
			s.FilesFetched <= s.GroupFetches*uint64(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Ablation guard: on a predictable chain workload the paper's chain
// strategy must not lose to doing nothing (g=1).
func TestChainStrategyHelpsOnPredictableWorkload(t *testing.T) {
	run := func(g int, strat group.Strategy) uint64 {
		agg, err := New(Config{Capacity: 10, GroupSize: g, Strategy: strat,
			SuccessorPolicy: successor.PolicyLRU})
		if err != nil {
			t.Fatal(err)
		}
		// Three interleaved deterministic tasks.
		tasks := [][]trace.FileID{
			{1, 2, 3, 4, 5},
			{20, 21, 22, 23, 24},
			{40, 41, 42, 43, 44},
		}
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 400; i++ {
			task := tasks[rng.Intn(len(tasks))]
			for _, id := range task {
				agg.Access(id)
			}
		}
		return agg.Stats().DemandFetches()
	}
	lruFetches := run(1, group.StrategyChain)
	g5Fetches := run(5, group.StrategyChain)
	if g5Fetches >= lruFetches {
		t.Errorf("g5 fetches %d >= LRU fetches %d; grouping did not help", g5Fetches, lruFetches)
	}
}

// TestAllocBudgetAccessFirstSight pins a demand access of a never-seen
// file on a full cache at zero allocations: the tracker takes the new
// file's successor list from its slab and entries from its arena, and the
// cache recycles the node it evicts.
func TestAllocBudgetAccessFirstSight(t *testing.T) {
	c := mustNew(t, Config{Capacity: 32, GroupSize: 5})
	next := trace.FileID(0)
	allocs := alloctest.PerOp(t, func() {
		c.Access(next)
		next++
	})
	if allocs != 0 {
		t.Errorf("Access of a never-seen id allocates %.0f objects, budget exactly 0", allocs)
	}
	if s := c.Stats(); s.Hits != 0 {
		t.Errorf("Hits = %d: the pinned accesses were not all first sights", s.Hits)
	}
}
