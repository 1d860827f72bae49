package core

import (
	"fmt"
	"math/rand"
	"slices"
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

// stageFirst is the reference ServeFrom and Stage are pinned to: learn
// seq, then
// count the demand for its last entry, build that file's group StageDepth
// deep with a builder of its own over the same metadata, install the
// build on a hit as on a miss, and answer with its first GroupSize
// members.
func stageFirst(t *testing.T, c *AggregatingCache, src uint64, seq []trace.FileID) ([]trace.FileID, bool) {
	t.Helper()
	c.LearnFrom(src, seq...)
	id := seq[len(seq)-1]
	deep, err := group.NewCutBuilder(c.Tracker(), StageDepth*c.cfg.GroupSize, c.cfg.Strategy, c.cfg.LinkShare)
	if err != nil {
		t.Fatal(err)
	}
	staged := deep.Build(id)
	hit := c.demand(id)
	c.install(staged, hit)
	return staged[:min(len(staged), c.GroupSize())], hit
}

// TestServeFromIsServeAndBuildGroup: on a stream with no piggybacked
// history, ServeFrom answers with the group BuildGroup builds after
// learning — the paper's g-group — on hits and misses alike, and with
// Stage after it leaves the cache and its Stats exactly as learning, then
// staging the StageDepth-deep build on hit and miss (stageFirst), do.
func TestServeFromIsServeAndBuildGroup(t *testing.T) {
	cfg := Config{Capacity: 12, GroupSize: 4}
	served, grouped := mustNew(t, cfg), mustNew(t, cfg)
	rng := rand.New(rand.NewSource(1))
	var scratch []trace.FileID
	hits := 0
	for i := 0; i < 2000; i++ {
		id := trace.FileID(rng.Intn(30))
		reply, wantHit := stageFirst(t, served, 1, []trace.FileID{id})
		want := served.BuildGroup(id)
		if !slices.Equal(reply, want) {
			t.Fatalf("access %d of %d: the deep build's prefix %v, BuildGroup %v", i, id, reply, want)
		}
		var hit, owed bool
		scratch, hit, owed = grouped.ServeFrom(scratch[:0], 1, []trace.FileID{id})
		grouped.Stage(1, []trace.FileID{id}, hit, owed)
		if hit != wantHit {
			t.Fatalf("access %d of %d: ServeFrom hit = %v, reference hit = %v", i, id, hit, wantHit)
		}
		if !slices.Equal(scratch, want) {
			t.Fatalf("access %d of %d (hit %v): ServeFrom group = %v, BuildGroup = %v", i, id, hit, scratch, want)
		}
		if grouped.Stats() != served.Stats() {
			t.Fatalf("access %d of %d (hit %v): ServeFrom stats %+v, reference stats %+v", i, id, hit, grouped.Stats(), served.Stats())
		}
		for f := trace.FileID(0); f < 30; f++ {
			if grouped.Contains(f) != served.Contains(f) {
				t.Fatalf("access %d: residency of %d differs", i, f)
			}
		}
		if hit {
			hits++
		}
	}
	if hits == 0 || hits == 2000 {
		t.Fatalf("%d hits in 2000 accesses: the stream must both hit and miss", hits)
	}
}

// TestServeFromRestagesOnHit: ServeFrom answers and counts the demand,
// a miss as the fetch, and installs nothing; Stage installs the deep
// group. On a hit it installs the demanded file's deep group again, which
// loads the members that are not resident but fetches nothing, so every
// request is still a hit or a fetch.
func TestServeFromRestagesOnHit(t *testing.T) {
	c := mustNew(t, Config{Capacity: 8, GroupSize: 2})
	for i := 0; i < 3; i++ {
		c.LearnFrom(1, 1, 2, 3, 4, 5)
	}
	seq := []trace.FileID{1}
	reply, hit, owed := c.ServeFrom(nil, 2, seq)
	if hit || !slices.Equal(reply, []trace.FileID{1, 2}) {
		t.Fatalf("first open of 1: reply %v hit %v, want [1 2] and a miss", reply, hit)
	}
	if st := c.Stats(); st.Misses != 1 || st.GroupFetches != 1 || st.FilesFetched != 0 || st.Loads != 0 || c.Contains(1) {
		t.Fatalf("answered, not staged: %+v, 1 resident %v; want the fetch counted and nothing installed", st, c.Contains(1))
	}
	c.Stage(2, seq, hit, owed)
	st := c.Stats()
	if st.GroupFetches != 1 || st.FilesFetched != 4 || st.Loads != 4 || !c.Contains(4) || c.Contains(5) {
		t.Fatalf("after the miss: %+v, 4 resident %v, 5 resident %v; want the 4-deep group {1 2 3 4} staged", st, c.Contains(4), c.Contains(5))
	}
	seq = []trace.FileID{3}
	reply, hit, owed = c.ServeFrom(nil, 2, seq)
	if !hit || !slices.Equal(reply, []trace.FileID{3, 4}) {
		t.Fatalf("open of staged 3: reply %v hit %v, want [3 4] and a hit", reply, hit)
	}
	c.Stage(2, seq, hit, owed)
	st = c.Stats()
	if !c.Contains(5) {
		t.Error("the hit on 3 did not re-stage its continuation 5")
	}
	if st.GroupFetches != 1 || st.FilesFetched != 4 || st.Loads != 5 {
		t.Errorf("after the hit: %+v; want one fetch of 4 files and 5 loads", st)
	}
	if st.Hits+st.GroupFetches != 2 || st.PrefetchHits != 1 {
		t.Errorf("after the hit: %+v; want Hits + GroupFetches == 2 requests, one prefetch hit", st)
	}
}

// TestServeFromMatchesLearnThenServe is ServeFrom's differential test: a
// server that answers each request with ServeFrom and then finishes it
// with Stage holds the same groups, hits, cache contents and successor
// lists as one that learns each request's history first and stages after
// (stageFirst: the deep build, installed on hit and miss, answered with
// its prefix). Seeded streams from four sources interleave in runs, as
// the requests of concurrent connections do. The reply and hit are
// compared after ServeFrom, and the stats, cache and successor lists
// after Stage. Every case that decides whether learning must come first
// occurs: an empty history, a history naming the demanded file, the
// source's last access in the group, a member named mid-history, and
// learning left owed to Stage.
func TestServeFromMatchesLearnThenServe(t *testing.T) {
	const (
		files   = 40
		sources = 4
	)
	configs := map[string]Config{
		"chain":   {Capacity: 10, GroupSize: 4},
		"cut":     {Capacity: 10, GroupSize: 5, LinkShare: 1.0 / 3},
		"breadth": {Capacity: 10, GroupSize: 4, Strategy: group.StrategyBreadth},
		"lfu":     {Capacity: 10, GroupSize: 3, SuccessorPolicy: successor.PolicyLFU},
		"single":  {Capacity: 10, GroupSize: 1},
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				diffServeFrom(t, cfg, seed, files, sources)
			}
		})
	}
}

func diffServeFrom(t *testing.T, cfg Config, seed int64, files, sources int) {
	t.Helper()
	ref, sut := mustNew(t, cfg), mustNew(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	// Each source walks its own task of eight files with locality, now
	// and then jumping to another task, so learned chains form groups.
	pos := make([]int, sources)
	next := func(src int) trace.FileID {
		if rng.Intn(5) == 0 {
			pos[src] = rng.Intn(files/8) * 8
		} else {
			pos[src] = pos[src]/8*8 + (pos[src]+1)%8
		}
		return trace.FileID(pos[src])
	}
	var (
		seq, hist []trace.FileID
		scratch   []trace.FileID
		cases     [5]int // empty, names demanded, last in group, member mid-history, owed
	)
	src := 0
	for step := 0; step < 3000; step++ {
		if rng.Intn(3) == 0 {
			src = rng.Intn(sources)
		}
		hist = hist[:0]
		for n := rng.Intn(6); len(hist) < n; {
			hist = append(hist, next(src))
		}
		d := next(src)
		switch rng.Intn(8) {
		case 0:
			hist = hist[:0]
		case 1:
			// The demanded file is also in the history, as when a client
			// re-demands a file it has just evicted.
			hist = append(hist, d)
		case 2:
			if len(hist) > 1 {
				// A member named mid-history: the demanded file's own
				// chain, then more history after it.
				hist = append(hist[:1], append([]trace.FileID{d}, hist[1:]...)...)
			}
		}

		// The cases, read off the metadata the group is built from.
		before := sut.BuildGroup(d)
		last, hasLast := sut.Tracker().Last(uint64(src))
		if len(hist) == 0 {
			cases[0]++
		}
		if slices.Contains(hist, d) {
			cases[1]++
		}
		if hasLast && len(before) > 1 && slices.Contains(before, last) {
			cases[2]++
		}
		if len(before) > 1 && len(hist) > 1 && slices.ContainsFunc(hist[:len(hist)-1], func(h trace.FileID) bool { return slices.Contains(before, h) }) {
			cases[3]++
		}

		want, wantHit := stageFirst(t, ref, uint64(src), append(slices.Clone(hist), d))

		seq = append(append(seq[:0], hist...), d)
		var hit, isOwed bool
		scratch, hit, isOwed = sut.ServeFrom(scratch[:0], uint64(src), seq)
		if isOwed {
			cases[4]++
		}
		where := fmt.Sprintf("seed %d step %d (source %d, history %v, demanded %d)", seed, step, src, hist, d)
		if hit != wantHit || !slices.Equal(scratch, want) {
			t.Fatalf("%s: ServeFrom = %v hit %v, learning first = %v hit %v", where, scratch, hit, want, wantHit)
		}
		sut.Stage(uint64(src), seq, hit, isOwed)
		if sut.Stats() != ref.Stats() {
			t.Fatalf("%s: stats %+v, learning first %+v", where, sut.Stats(), ref.Stats())
		}
		for f := trace.FileID(0); f < trace.FileID(files); f++ {
			if sut.Contains(f) != ref.Contains(f) {
				t.Fatalf("%s: residency of %d differs", where, f)
			}
			if got, want := sut.Tracker().Successors(f), ref.Tracker().Successors(f); !slices.Equal(got, want) {
				t.Fatalf("%s: successors of %d = %v, learning first %v", where, f, got, want)
			}
			for _, s := range ref.Tracker().Successors(f) {
				if got, want := sut.Tracker().List(f).Count(s), ref.Tracker().List(f).Count(s); got != want {
					t.Fatalf("%s: count of %d after %d = %d, learning first %d", where, s, f, got, want)
				}
			}
		}
	}
	for i, n := range cases {
		if n == 0 && !(i >= 2 && i <= 3 && cfg.GroupSize == 1) {
			t.Errorf("seed %d: case %d never occurred (cases %v)", seed, i, cases)
		}
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
