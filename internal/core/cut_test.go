package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aggcache/internal/trace"
)

// The link cut (Config.LinkShare) is the cache's adaptive group size: a
// group grows along its predecessors' links as far as they predict and
// stops at the first weak one, so g is a cap. These tests pin the same
// promises the windowed controller it replaced made: valid bounds, a
// default that changes nothing, full groups where the workload is
// predictable, small ones where it is not, never more than g, and fetch
// counts near the best static g.

const third = 1.0 / 3

// twoChains is two deterministic 15-file tasks run alternately: every link
// has one successor, so every link is strong.
func twoChains(rounds int) []trace.FileID {
	var seq []trace.FileID
	for round := 0; round < rounds; round++ {
		for i := 0; i < 15; i++ {
			seq = append(seq, trace.FileID(i))
		}
		for i := 0; i < 15; i++ {
			seq = append(seq, trace.FileID(100+i))
		}
	}
	return seq
}

// randomIDs is n uniform draws from [0, universe).
func randomIDs(seed int64, n, universe int) []trace.FileID {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]trace.FileID, n)
	for i := range seq {
		seq[i] = trace.FileID(rng.Intn(universe))
	}
	return seq
}

func run(t *testing.T, cfg Config, seq []trace.FileID) Stats {
	t.Helper()
	agg := mustNew(t, cfg)
	for _, id := range seq {
		agg.Access(id)
	}
	return agg.Stats()
}

func TestAdaptiveValidation(t *testing.T) {
	for _, share := range []float64{-0.5, 1, 1.5, math.NaN()} {
		if _, err := New(Config{Capacity: 10, GroupSize: 5, LinkShare: share}); err == nil {
			t.Errorf("LinkShare %v accepted", share)
		}
	}
}

// TestAdaptiveDefaults: LinkShare defaults to 0, which cuts nothing: where
// every link is a three-way tie, the default cache still fetches whole
// groups and the cut one fetches single files.
func TestAdaptiveDefaults(t *testing.T) {
	c := mustNew(t, Config{Capacity: 20, GroupSize: 5})
	if c.cfg.LinkShare != 0 {
		t.Errorf("default LinkShare = %v, want 0", c.cfg.LinkShare)
	}
	cut := mustNew(t, Config{Capacity: 20, GroupSize: 5, LinkShare: third})
	// 1's successors 2, 3, 4, once each; each of those is followed by 1.
	for _, id := range []trace.FileID{1, 2, 1, 3, 1, 4, 1} {
		c.Learn(id)
		cut.Learn(id)
	}
	if g := c.AppendGroup(nil, 1); len(g) != 4 {
		t.Errorf("default AppendGroup(nil, 1) = %v, want all four files", g)
	}
	if g := cut.AppendGroup(nil, 1); len(g) != 1 {
		t.Errorf("cut AppendGroup(nil, 1) = %v, want [1]", g)
	}
}

// TestAdaptiveGrowsOnPredictableWorkload: once the chains are learned,
// every fetch under the cut carries the whole cap.
func TestAdaptiveGrowsOnPredictableWorkload(t *testing.T) {
	const g = 10
	agg := mustNew(t, Config{Capacity: 20, GroupSize: g, LinkShare: third})
	seq := twoChains(400)
	for _, id := range seq[:60] {
		agg.Access(id)
	}
	before := agg.Stats()
	for _, id := range seq[60:] {
		agg.Access(id)
	}
	after := agg.Stats()
	fetches := after.GroupFetches - before.GroupFetches
	if fetches == 0 {
		t.Fatal("no fetches after warm-up")
	}
	if files := after.FilesFetched - before.FilesFetched; files != g*fetches {
		t.Errorf("%d files in %d fetches, want %d each", files, fetches, g)
	}
}

// TestAdaptiveShrinksOnRandomWorkload: with no relationships to learn,
// the cut's groups fall toward the demanded file alone.
func TestAdaptiveShrinksOnRandomWorkload(t *testing.T) {
	seq := randomIDs(3, 30000, 5000)
	s := run(t, Config{Capacity: 50, GroupSize: 8, LinkShare: third}, seq)
	if mean := float64(s.FilesFetched) / float64(s.GroupFetches); mean > 3 {
		t.Errorf("%.2f files per fetch on a random workload, want at most 3 of the cap 8", mean)
	}
}

// TestAdaptiveStaysWithinBounds: on a half-predictable, half-noise
// workload every fetch carries between 1 and g files.
func TestAdaptiveStaysWithinBounds(t *testing.T) {
	const g = 5
	agg := mustNew(t, Config{Capacity: 30, GroupSize: g, LinkShare: third})
	rng := rand.New(rand.NewSource(9))
	sizes := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		id := trace.FileID(i % 40)
		if i%2 == 1 {
			id = trace.FileID(rng.Intn(2000))
		}
		before := agg.Stats().FilesFetched
		if agg.Access(id) {
			continue
		}
		n := agg.Stats().FilesFetched - before
		if n < 1 || n > g {
			t.Fatalf("access %d: a fetch of %d files escaped [1,%d]", i, n, g)
		}
		sizes[n] = true
	}
	if len(sizes) < 2 {
		t.Errorf("fetch sizes %v: the cut never varied the group size", sizes)
	}
}

// TestNonAdaptiveGroupSizeFixed: at share 0 the group size is fixed at g
// once every file has successors to chain.
func TestNonAdaptiveGroupSizeFixed(t *testing.T) {
	agg := mustNew(t, Config{Capacity: 20, GroupSize: 4})
	seq := randomIDs(1, 5000, 100)
	for i, id := range seq {
		before := agg.Stats().FilesFetched
		if agg.Access(id) || i < 1000 {
			continue
		}
		if n := agg.Stats().FilesFetched - before; n != 4 {
			t.Fatalf("access %d: fetched %d files at share 0, want g = 4", i, n)
		}
	}
	if g := agg.GroupSize(); g != 4 {
		t.Errorf("GroupSize = %d, want 4", g)
	}
}

// TestAdaptiveApproachesBestStatic: at cap 10 the cut matches the better
// static configuration on each extreme workload — static g = 10's fetches
// when predictable, and about plain LRU's transfer when random.
func TestAdaptiveApproachesBestStatic(t *testing.T) {
	predictable := twoChains(300)
	cut := run(t, Config{Capacity: 20, GroupSize: 10, LinkShare: third}, predictable)
	static2 := run(t, Config{Capacity: 20, GroupSize: 2}, predictable)
	static10 := run(t, Config{Capacity: 20, GroupSize: 10}, predictable)
	if cut.DemandFetches() >= static2.DemandFetches() {
		t.Errorf("predictable: cut fetches %d >= static g2 %d", cut.DemandFetches(), static2.DemandFetches())
	}
	if cut.DemandFetches() > static10.DemandFetches() {
		t.Errorf("predictable: cut fetches %d above static g10 %d", cut.DemandFetches(), static10.DemandFetches())
	}

	random := randomIDs(5, 30000, 400)
	cut = run(t, Config{Capacity: 50, GroupSize: 10, LinkShare: third}, random)
	lru := run(t, Config{Capacity: 50, GroupSize: 1}, random)
	static10 = run(t, Config{Capacity: 50, GroupSize: 10}, random)
	if cut.DemandFetches() > static10.DemandFetches() {
		t.Errorf("random: cut fetches %d above static g10 %d", cut.DemandFetches(), static10.DemandFetches())
	}
	if float64(cut.FilesFetched) > 1.5*float64(lru.FilesFetched) {
		t.Errorf("random: cut transferred %d files, plain LRU %d", cut.FilesFetched, lru.FilesFetched)
	}
}

// TestLoadMetadataKeepsCut: a cache restored from a snapshot builds with
// the configured share, so every group equals the one built before the
// save.
func TestLoadMetadataKeepsCut(t *testing.T) {
	cfg := Config{Capacity: 50, GroupSize: 5, LinkShare: third}
	agg := mustNew(t, cfg)
	// A 60-file loop with every fifth access replaced by noise from 240
	// other files: the loop's links are strong, the noise's weak.
	seq := randomIDs(7, 20000, 240)
	for i, id := range seq {
		if i%5 != 4 {
			id = trace.FileID(240 + i%60)
		}
		agg.Access(id)
	}
	var before [][]trace.FileID
	var short int
	for id := trace.FileID(0); id < 300; id++ {
		g := agg.AppendGroup(nil, id)
		if len(g) < cfg.GroupSize {
			short++
		}
		before = append(before, g)
	}
	if short == 0 || short == len(before) {
		t.Fatalf("%d of %d groups cut: the workload does not exercise the cut", short, len(before))
	}
	var buf bytes.Buffer
	if err := agg.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	restored := mustNew(t, cfg)
	if err := restored.LoadMetadata(&buf, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	for id, want := range before {
		if got := restored.AppendGroup(nil, trace.FileID(id)); !slices.Equal(got, want) {
			t.Fatalf("AppendGroup(nil, %d) after load = %v, before save %v", id, got, want)
		}
	}
}
