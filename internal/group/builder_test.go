package group

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"aggcache/internal/alloctest"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

func newTracker(t *testing.T, seq []trace.FileID) *successor.Tracker {
	t.Helper()
	tr, err := successor.NewTracker(successor.PolicyLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr.ObserveAll(seq)
	return tr
}

func TestNewBuilderValidation(t *testing.T) {
	tr := newTracker(t, nil)
	if _, err := NewBuilder(nil, 3, StrategyChain); err == nil {
		t.Error("nil tracker accepted")
	}
	if _, err := NewBuilder(tr, 0, StrategyChain); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := NewBuilder(tr, 3, Strategy(99)); err == nil {
		t.Error("bad strategy accepted")
	}
}

func TestBuildSize1IsJustTheFile(t *testing.T) {
	tr := newTracker(t, []trace.FileID{1, 2, 3})
	b, _ := NewBuilder(tr, 1, StrategyChain)
	g := b.Build(1)
	if len(g) != 1 || g[0] != 1 {
		t.Errorf("Build = %v, want [1]", g)
	}
}

func TestBuildChainsTransitiveSuccessors(t *testing.T) {
	// Deterministic chain 1->2->3->4 repeated.
	tr := newTracker(t, []trace.FileID{1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4})
	b, _ := NewBuilder(tr, 3, StrategyChain)
	g := b.Build(1)
	want := []trace.FileID{1, 2, 3}
	if len(g) != 3 {
		t.Fatalf("Build = %v, want %v", g, want)
	}
	for i := range want {
		if g[i] != want[i] {
			t.Fatalf("Build = %v, want %v", g, want)
		}
	}
}

func TestBuildNoMetadataReturnsSingleton(t *testing.T) {
	tr := newTracker(t, nil)
	b, _ := NewBuilder(tr, 5, StrategyChain)
	g := b.Build(42)
	if len(g) != 1 || g[0] != 42 {
		t.Errorf("Build = %v, want [42]", g)
	}
}

func TestBuildBreaksCycles(t *testing.T) {
	// 1->2->1 cycle; group of 4 must not loop forever or duplicate, and
	// falls back to other successors when available.
	tr := newTracker(t, []trace.FileID{1, 2, 1, 2, 1, 2})
	b, _ := NewBuilder(tr, 4, StrategyChain)
	g := b.Build(1)
	seen := make(map[trace.FileID]bool)
	for _, m := range g {
		if seen[m] {
			t.Fatalf("duplicate member in %v", g)
		}
		seen[m] = true
	}
	if len(g) != 2 {
		t.Errorf("Build = %v, want [1 2] (cycle exhausts candidates)", g)
	}
}

func TestBuildFallbackUsesLowerRankedSuccessors(t *testing.T) {
	// 1 is followed by 2 (most recent) and 3; 2 dead-ends back to 1.
	// Chain: 1 -> 2 -> (1 seen, dead end) -> fallback picks 3 from 1's
	// list.
	tr := newTracker(t, []trace.FileID{1, 3, 9, 1, 2, 1, 2, 1, 2})
	b, _ := NewBuilder(tr, 3, StrategyChain)
	g := b.Build(1)
	if len(g) != 3 {
		t.Fatalf("Build = %v, want 3 members", g)
	}
	if g[0] != 1 || g[1] != 2 {
		t.Fatalf("Build = %v, want prefix [1 2]", g)
	}
	if g[2] != 3 {
		t.Errorf("Build = %v, want fallback member 3", g)
	}
}

func TestBuildBreadthTakesRankedSuccessorsFirst(t *testing.T) {
	// 1's successors by recency: 4, 3, 2 (capacity 3). Breadth group of
	// 3 takes 4 and 3; chain group of 3 would take 4 then 4's successor.
	tr := newTracker(t, []trace.FileID{1, 2, 9, 1, 3, 9, 1, 4, 5, 9})
	bb, _ := NewBuilder(tr, 3, StrategyBreadth)
	g := bb.Build(1)
	if len(g) != 3 || g[0] != 1 || g[1] != 4 || g[2] != 3 {
		t.Errorf("breadth Build = %v, want [1 4 3]", g)
	}
	bc, _ := NewBuilder(tr, 3, StrategyChain)
	g = bc.Build(1)
	if len(g) != 3 || g[0] != 1 || g[1] != 4 || g[2] != 5 {
		t.Errorf("chain Build = %v, want [1 4 5]", g)
	}
}

// Property: for any sequence and size, Build(id) starts with id, has no
// duplicates, and has length in [1, size].
func TestBuildInvariants(t *testing.T) {
	for _, strat := range []Strategy{StrategyChain, StrategyBreadth} {
		strat := strat
		f := func(raw []uint8, sizeRaw uint8, startRaw uint8) bool {
			seq := make([]trace.FileID, len(raw))
			for i, r := range raw {
				seq[i] = trace.FileID(r % 20)
			}
			tr, err := successor.NewTracker(successor.PolicyLRU, 3)
			if err != nil {
				return false
			}
			tr.ObserveAll(seq)
			size := int(sizeRaw%10) + 1
			b, err := NewBuilder(tr, size, strat)
			if err != nil {
				return false
			}
			id := trace.FileID(startRaw % 20)
			g := b.Build(id)
			if len(g) < 1 || len(g) > size || g[0] != id {
				return false
			}
			seen := make(map[trace.FileID]bool, len(g))
			for _, m := range g {
				if seen[m] {
					return false
				}
				seen[m] = true
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("strategy %d: %v", strat, err)
		}
	}
}

func TestBuildCover(t *testing.T) {
	seq := []trace.FileID{1, 2, 3, 1, 2, 3, 4, 5, 4, 5, 1, 2}
	tr := newTracker(t, seq)
	b, _ := NewBuilder(tr, 3, StrategyChain)
	c := BuildCover(tr, b, seq)

	// Every file in the sequence must be covered.
	for _, id := range seq {
		if !c.Covers(id) {
			t.Errorf("file %d not covered", id)
		}
	}
	if c.Covers(99) {
		t.Error("Covers(99) = true for absent file")
	}
	if c.OverlapFactor() < 1.0 {
		t.Errorf("OverlapFactor = %v, want >= 1", c.OverlapFactor())
	}
	if c.Members() < 5 {
		t.Errorf("Members = %d, want >= 5 distinct files covered", c.Members())
	}
}

func TestBuildCoverEmpty(t *testing.T) {
	tr := newTracker(t, nil)
	b, _ := NewBuilder(tr, 3, StrategyChain)
	c := BuildCover(tr, b, nil)
	if len(c.Groups) != 0 {
		t.Errorf("Groups = %v, want empty", c.Groups)
	}
	if c.OverlapFactor() != 0 {
		t.Errorf("OverlapFactor = %v, want 0", c.OverlapFactor())
	}
}

func TestBuildCoverAllowsOverlap(t *testing.T) {
	// Shared hub file 0 follows everything (like /bin/sh): appears in
	// the successor lists of several seeds, so it should land in more
	// than one group.
	seq := []trace.FileID{1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0}
	tr := newTracker(t, seq)
	b, _ := NewBuilder(tr, 2, StrategyChain)
	c := BuildCover(tr, b, seq)
	var containing int
	for _, g := range c.Groups {
		for _, m := range g {
			if m == 0 {
				containing++
				break
			}
		}
	}
	if containing < 2 {
		t.Errorf("hub file in %d groups, want >= 2 (overlap permitted)", containing)
	}
}

func TestCoverStats(t *testing.T) {
	seq := []trace.FileID{1, 0, 2, 0, 3, 0, 1, 0, 2, 0, 3, 0}
	tr := newTracker(t, seq)
	b, _ := NewBuilder(tr, 2, StrategyChain)
	c := BuildCover(tr, b, seq)
	st := c.Stats()
	if st.Groups != len(c.Groups) {
		t.Errorf("Groups = %d, want %d", st.Groups, len(c.Groups))
	}
	if st.Members != c.Members() {
		t.Errorf("Members = %d, want %d", st.Members, c.Members())
	}
	if st.Distinct != 4 {
		t.Errorf("Distinct = %d, want 4", st.Distinct)
	}
	if st.Replicas != st.Members-st.Distinct {
		t.Errorf("Replicas inconsistent: %+v", st)
	}
	// The hub file 0 appears in several groups.
	if st.MaxMemberships < 2 {
		t.Errorf("MaxMemberships = %d, want >= 2 for the hub", st.MaxMemberships)
	}
	if st.MeanGroupLen <= 0 || st.MeanGroupLen > 2 {
		t.Errorf("MeanGroupLen = %v", st.MeanGroupLen)
	}
}

func TestCoverStatsEmpty(t *testing.T) {
	var c Cover
	st := c.Stats()
	if st != (CoverStats{}) {
		t.Errorf("empty stats = %+v", st)
	}
}

// cutBuild observes seq into an LRU tracker of capacity 3 and builds the
// group of id at size 5 under the given share.
func cutBuild(t *testing.T, seq []trace.FileID, share float64, id trace.FileID) []trace.FileID {
	t.Helper()
	b, err := NewCutBuilder(newTracker(t, seq), 5, StrategyChain, share)
	if err != nil {
		t.Fatal(err)
	}
	return b.Build(id)
}

// TestBuildCutsWeakLinks: at share 1/3 a successor joins only when 3·count
// exceeds the counts its predecessor's list retains, in the chain and in
// the fallback alike.
func TestBuildCutsWeakLinks(t *testing.T) {
	cases := []struct {
		name string
		seq  []trace.FileID
		want []trace.FileID
	}{
		// 1's counts (1,1,1): no link passes 3 > 3.
		{"three-way tie", []trace.FileID{1, 2, 1, 3, 1, 4}, []trace.FileID{1}},
		// (2,1,1): only the 2 passes 6 > 4; the ranked-first 4 and the
		// fallback's 3 do not.
		{"one strong link", []trace.FileID{1, 3, 1, 2, 1, 2, 1, 4}, []trace.FileID{1, 2}},
		// (1,1): both pass 3 > 2; the chain takes the most recent, 3, and
		// the fallback the other.
		{"two-way tie", []trace.FileID{1, 2, 1, 3}, []trace.FileID{1, 3, 2}},
		// 1's counts 4:1 (ranked first), 3:3, 2:3 — 4 is weak. The chain
		// runs 1, 3, 8 and stalls at 8 (its one successor is 1). The
		// fallback takes 1's other strong successor, 2, skipping the weak
		// 4; 2's successors 10, 7, 9 are a three-way tie, so it stops.
		{"fallback", []trace.FileID{1, 2, 9, 1, 3, 8, 1, 2, 7, 1, 3, 8, 1, 2, 10, 1, 3, 8, 1, 4, 5}, []trace.FileID{1, 3, 8, 2}},
	}
	for _, c := range cases {
		if got := cutBuild(t, c.seq, 1.0/3, 1); !slices.Equal(got, c.want) {
			t.Errorf("%s: Build(1) = %v, want %v", c.name, got, c.want)
		}
	}
	// Uncut, the same metadata fills the group.
	seq := cases[len(cases)-1].seq
	if got, want := cutBuild(t, seq, 0, 1), []trace.FileID{1, 4, 5, 3, 8}; !slices.Equal(got, want) {
		t.Errorf("share 0: Build(1) = %v, want %v", got, want)
	}
}

func TestNewCutBuilderValidation(t *testing.T) {
	tr := newTracker(t, nil)
	for _, share := range []float64{-0.1, 1, 2, math.NaN()} {
		if _, err := NewCutBuilder(tr, 3, StrategyChain, share); err == nil {
			t.Errorf("share %v accepted", share)
		}
	}
}

// TestAllocBudgetCutBuild pins a build under the cut, into a reused
// buffer, at zero allocations.
func TestAllocBudgetCutBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := make([]trace.FileID, 5000)
	for i := range seq {
		seq[i] = trace.FileID(rng.Intn(200))
	}
	b, err := NewCutBuilder(newTracker(t, seq), 5, StrategyChain, 1.0/3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]trace.FileID, 0, 5)
	var id trace.FileID
	if n := alloctest.PerOp(t, func() {
		buf = b.AppendBuild(buf[:0], id)
		id = (id + 1) % 200
	}); n != 0 {
		t.Errorf("cut build allocates %v, want 0", n)
	}
}

// checkBuilder observes seq into a tracker of the given policy and, every
// seventh observation and at the end, builds the group of every id seen so
// far with Builder at share 0 and with refBuilder, for both strategies and
// sizes 1-8. The builders persist across checks, so their scratch state
// is exercised too.
func checkBuilder(t *testing.T, policy successor.Policy, capacity int, seq []trace.FileID) {
	t.Helper()
	tr, err := successor.NewTracker(policy, capacity)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct {
		got  *Builder
		want *refBuilder
	}
	var pairs []pair
	for _, st := range []Strategy{StrategyChain, StrategyBreadth} {
		for size := 1; size <= 8; size++ {
			got, err := NewBuilder(tr, size, st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := newRefBuilder(tr, size, st)
			if err != nil {
				t.Fatal(err)
			}
			pairs = append(pairs, pair{got, want})
		}
	}
	var maxID trace.FileID
	for i, id := range seq {
		tr.Observe(id)
		maxID = max(maxID, id)
		if i%7 != 6 && i != len(seq)-1 {
			continue
		}
		for _, p := range pairs {
			for q := trace.FileID(0); q <= maxID; q++ {
				if got, want := p.got.Build(q), p.want.Build(q); !slices.Equal(got, want) {
					t.Fatalf("%s/%d, strategy %d size %d, after %d observations: Build(%d) = %v, reference %v",
						policy, capacity, p.got.strategy, p.got.size, i+1, q, got, want)
				}
			}
		}
	}
}

var refPolicies = []successor.Policy{successor.PolicyLRU, successor.PolicyLFU, successor.PolicyDecay, successor.PolicyOracle}

// TestBuilderMatchesReferenceAtZero: with no cut, Builder is the builder
// from before the cut, group for group, on every policy and strategy.
func TestBuilderMatchesReferenceAtZero(t *testing.T) {
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 2 + rng.Intn(24)
		seq := make([]trace.FileID, 150)
		for i := range seq {
			seq[i] = trace.FileID(rng.Intn(universe))
		}
		checkBuilder(t, refPolicies[seed%4], 1+rng.Intn(5), seq)
	}
}

// FuzzBuilder checks Builder at share 0 against the reference on traces
// decoded from the input: the first byte picks the policy (low two bits)
// and the list capacity (1..5), each later byte an id.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 2, 4, 1, 3, 5, 2})
	f.Add([]byte{7, 0, 1, 0, 2, 0, 3, 0, 1, 4, 4, 1})
	f.Add([]byte{14, 1, 2, 9, 1, 3, 8, 1, 2, 7, 1, 3, 8, 1, 2, 10, 1, 3, 8, 1, 4, 5})
	f.Add([]byte{3, 5, 5, 5, 6, 5, 7, 6, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 400 {
			return
		}
		seq := make([]trace.FileID, 0, len(data)-1)
		for _, b := range data[1:] {
			seq = append(seq, trace.FileID(b%24))
		}
		checkBuilder(t, refPolicies[data[0]&3], 1+int(data[0]>>2)%5, seq)
	})
}

// TestDeepBuildPrefixIsTheGroup: for the chain, breadth and cut builders
// over random trackers, the first g members of a build capped at 2g are
// the build capped at g, whether the deep build comes from AppendBuildN on
// the g builder, from a builder of size 2g or from resuming the g build
// (ResumeN) after another build in between; and DependsOn afterwards
// covers every member of the deep build. This is what lets one build serve
// both a reply and the deeper group a server stages, extended from the
// reply.
func TestDeepBuildPrefixIsTheGroup(t *testing.T) {
	builders := []struct {
		name     string
		strategy Strategy
		share    float64
	}{{"chain", StrategyChain, 0}, {"breadth", StrategyBreadth, 0}, {"cut", StrategyChain, 1.0 / 3}}
	deeper := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		universe := 2 + rng.Intn(30)
		tr, err := successor.NewTracker(refPolicies[seed%4], 1+rng.Intn(5))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			tr.Observe(trace.FileID(rng.Intn(universe)))
		}
		for _, bc := range builders {
			for g := 1; g <= 8; g++ {
				shallow, err := NewCutBuilder(tr, g, bc.strategy, bc.share)
				if err != nil {
					t.Fatal(err)
				}
				deep, err := NewCutBuilder(tr, 2*g, bc.strategy, bc.share)
				if err != nil {
					t.Fatal(err)
				}
				for id := trace.FileID(0); id < trace.FileID(universe); id++ {
					want := shallow.Build(id)
					shallow.Build(trace.FileID(rng.Intn(universe))) // another connection's build
					resumed := shallow.ResumeN(slices.Clone(want), 2*g)
					for _, m := range resumed {
						if !shallow.DependsOn(m) {
							t.Fatalf("seed %d %s g %d: resumed %v of %d does not depend on member %d", seed, bc.name, g, resumed, id, m)
						}
					}
					built := shallow.AppendBuildN(nil, id, 2*g)
					if !slices.Equal(built, deep.Build(id)) {
						t.Fatalf("seed %d %s g %d: AppendBuildN(%d, %d) = %v, size-%d builder %v",
							seed, bc.name, g, id, 2*g, built, 2*g, deep.Build(id))
					}
					if !slices.Equal(resumed, built) {
						t.Fatalf("seed %d %s g %d: ResumeN(%v, %d) = %v, AppendBuildN = %v", seed, bc.name, g, want, 2*g, resumed, built)
					}
					for _, m := range built {
						if !shallow.DependsOn(m) {
							t.Fatalf("seed %d %s g %d: deep build %v of %d does not depend on member %d", seed, bc.name, g, built, id, m)
						}
					}
					if got := built[:min(len(built), g)]; !slices.Equal(got, want) {
						t.Fatalf("seed %d %s g %d: first %d of the deep build of %d = %v, the g build %v", seed, bc.name, g, g, id, got, want)
					}
					if len(built) > len(want) {
						deeper++
					}
				}
			}
		}
	}
	if deeper == 0 {
		t.Error("no deep build outgrew its g build: the prefix was never tested")
	}
}
