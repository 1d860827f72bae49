package successor

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aggcache/internal/alloctest"
	"aggcache/internal/trace"
)

func TestTrackerObserveBuildsLists(t *testing.T) {
	tr, err := NewTracker(PolicyLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr.ObserveAll([]trace.FileID{1, 2, 1, 3})
	// Successors of 1: 2 then 3 (3 most recent).
	got := tr.Successors(1)
	if len(got) != 2 || got[0] != 3 || got[1] != 2 {
		t.Errorf("Successors(1) = %v, want [3 2]", got)
	}
	if f, ok := tr.First(2); !ok || f != 1 {
		t.Errorf("First(2) = %d,%v want 1,true", f, ok)
	}
	if _, ok := tr.First(3); ok {
		t.Error("First(3) reported a successor; 3 is the last access")
	}
}

func TestTrackerAccessCounts(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 2)
	tr.ObserveAll([]trace.FileID{5, 5, 7})
	if tr.AccessCount(5) != 2 || tr.AccessCount(7) != 1 || tr.AccessCount(9) != 0 {
		t.Errorf("counts = %d,%d,%d", tr.AccessCount(5), tr.AccessCount(7), tr.AccessCount(9))
	}
	if tr.Observed() != 3 {
		t.Errorf("Observed = %d, want 3", tr.Observed())
	}
}

func TestTrackerReset(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 2)
	tr.Observe(1)
	tr.Reset()
	tr.Observe(2)
	// The 1->2 transition must NOT have been recorded.
	if tr.List(1) != nil && tr.List(1).Contains(2) {
		t.Error("transition recorded across Reset")
	}
}

func TestTrackerSelfSuccession(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 2)
	tr.ObserveAll([]trace.FileID{4, 4})
	if f, ok := tr.First(4); !ok || f != 4 {
		t.Errorf("First(4) = %d,%v want self-successor 4", f, ok)
	}
}

func TestTrackerMetadataEntries(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 2)
	tr.ObserveAll([]trace.FileID{1, 2, 3, 1, 2, 3})
	// Each of 1,2,3 has at least one successor; entries bounded by cap.
	n := tr.MetadataEntries()
	if n < 3 || n > 6 {
		t.Errorf("MetadataEntries = %d, want within [3,6]", n)
	}
	if tr.TrackedFiles() != 3 {
		t.Errorf("TrackedFiles = %d, want 3", tr.TrackedFiles())
	}
}

func TestNewTrackerValidation(t *testing.T) {
	if _, err := NewTracker("bogus", 2); err == nil {
		t.Error("bogus policy accepted")
	}
	if _, err := NewTracker(PolicyLFU, -1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestEvaluateReplacementDeterministicSequence(t *testing.T) {
	// Perfectly repeating A B A B ...: after the first transition the
	// successor is always retained, so misses = 2 (first A->B, first
	// B->A) out of 9 transitions.
	seq := []trace.FileID{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}
	ev, err := EvaluateReplacement(seq, PolicyLRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Transitions != 9 {
		t.Fatalf("Transitions = %d, want 9", ev.Transitions)
	}
	if ev.Missed != 2 {
		t.Errorf("Missed = %d, want 2", ev.Missed)
	}
}

func TestEvaluateReplacementAlternatingNeedsCapacity2(t *testing.T) {
	// A's successor alternates B,C,B,C: a 1-entry LRU list always holds
	// the wrong one, a 2-entry list holds both after warmup.
	seq := []trace.FileID{1, 2, 1, 3, 1, 2, 1, 3, 1, 2, 1, 3}
	one, err := EvaluateReplacement(seq, PolicyLRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	two, err := EvaluateReplacement(seq, PolicyLRU, 2)
	if err != nil {
		t.Fatal(err)
	}
	if one.MissProbability() <= two.MissProbability() {
		t.Errorf("cap1 miss %.3f not worse than cap2 miss %.3f",
			one.MissProbability(), two.MissProbability())
	}
}

func TestOracleLowerBoundsOnlinePolicies(t *testing.T) {
	// On any sequence the Oracle's miss probability is <= LRU's and
	// LFU's at every capacity.
	seq := []trace.FileID{1, 2, 3, 1, 2, 4, 1, 3, 2, 1, 2, 3, 4, 1, 2, 1, 3, 1, 2, 2, 4, 1}
	oracle, err := EvaluateReplacement(seq, PolicyOracle, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{PolicyLRU, PolicyLFU} {
		for capacity := 1; capacity <= 4; capacity++ {
			ev, err := EvaluateReplacement(seq, p, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Missed < oracle.Missed {
				t.Errorf("%s cap=%d missed %d < oracle %d", p, capacity, ev.Missed, oracle.Missed)
			}
		}
	}
}

func TestEvaluateReplacementSweepMonotonicity(t *testing.T) {
	// Larger lists can only retain more: miss probability must be
	// non-increasing in capacity for LRU.
	seq := make([]trace.FileID, 0, 4000)
	// Pseudo-random but deterministic pattern with structure.
	x := uint32(12345)
	for i := 0; i < 4000; i++ {
		x = x*1664525 + 1013904223
		seq = append(seq, trace.FileID(x%37))
	}
	probs, err := EvaluateReplacementSweep(seq, PolicyLRU, []int{1, 2, 3, 5, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(probs); i++ {
		if probs[i] > probs[i-1]+1e-12 {
			t.Errorf("miss prob increased with capacity: %v", probs)
			break
		}
	}
}

func TestEvaluateReplacementEmpty(t *testing.T) {
	ev, err := EvaluateReplacement(nil, PolicyLRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MissProbability() != 0 {
		t.Error("empty sequence miss probability != 0")
	}
	if _, err := EvaluateReplacement(nil, "bogus", 1); err == nil {
		t.Error("bogus policy accepted")
	}
}

func TestBuildGraph(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 2)
	tr.ObserveAll([]trace.FileID{1, 2, 1, 3, 1, 2})
	g := BuildGraph(tr)
	// 1's successors: most recent first = [2 3].
	es := g.Successors(1)
	if len(es) != 2 || es[0].To != 2 || es[1].To != 3 {
		t.Fatalf("Successors(1) = %+v", es)
	}
	if es[0].Weight != 2 {
		t.Errorf("edge 1->2 weight = %d, want 2", es[0].Weight)
	}
	nodes := g.Nodes()
	if len(nodes) != 3 {
		t.Errorf("Nodes = %v, want 3 nodes", nodes)
	}
	if g.EdgeCount() != 4 {
		t.Errorf("EdgeCount = %d, want 4", g.EdgeCount())
	}
}

func TestGraphWriteDOT(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 2)
	in := trace.NewInterner()
	a := in.Intern("/bin/a")
	b := in.Intern("/bin/b")
	tr.ObserveAll([]trace.FileID{a, b})
	g := BuildGraph(tr)

	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, in); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"/bin/a" -> "/bin/b"`) {
		t.Errorf("DOT output missing edge: %s", out)
	}
	if !strings.HasPrefix(out, "digraph") || !strings.Contains(out, "}") {
		t.Errorf("DOT output malformed: %s", out)
	}

	// Without an interner, raw ids are used.
	buf.Reset()
	if err := g.WriteDOT(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"f0" -> "f1"`) {
		t.Errorf("DOT output missing fallback names: %s", buf.String())
	}
}

func TestNewDecayTracker(t *testing.T) {
	tr, err := NewDecayTracker(3, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	tr.ObserveAll([]trace.FileID{1, 2, 1, 2})
	if f, ok := tr.First(1); !ok || f != 2 {
		t.Errorf("First(1) = %d,%v", f, ok)
	}
	if _, err := NewDecayTracker(3, 2.0); err == nil {
		t.Error("bad lambda accepted")
	}
	// PolicyDecay through the plain constructor works too.
	tr2, err := NewTracker(PolicyDecay, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr2.Observe(1)
	tr2.Observe(2)
	if f, ok := tr2.First(1); !ok || f != 2 {
		t.Errorf("decay tracker First = %d,%v", f, ok)
	}
}

// The paper's §6 conjecture: a recency/frequency hybrid should be at
// least as good as the better of the two pure policies. Verify the decay
// policy is never much worse than LRU and beats LFU on the workload where
// frequency clings to stale phases.
func TestDecayCompetitiveOnDriftingWorkload(t *testing.T) {
	// Phase-drifting successor behaviour: A's successor changes every
	// 200 transitions.
	var seq []trace.FileID
	succ := trace.FileID(100)
	for phase := 0; phase < 6; phase++ {
		for i := 0; i < 200; i++ {
			seq = append(seq, 1, succ)
		}
		succ++
	}
	lru, err := EvaluateReplacement(seq, PolicyLRU, 2)
	if err != nil {
		t.Fatal(err)
	}
	lfu, err := EvaluateReplacement(seq, PolicyLFU, 2)
	if err != nil {
		t.Fatal(err)
	}
	decay, err := EvaluateReplacement(seq, PolicyDecay, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("miss prob: lru=%.4f lfu=%.4f decay=%.4f",
		lru.MissProbability(), lfu.MissProbability(), decay.MissProbability())
	if decay.MissProbability() > lru.MissProbability()+1e-9 {
		t.Errorf("decay %.4f worse than lru %.4f", decay.MissProbability(), lru.MissProbability())
	}
	if decay.MissProbability() > lfu.MissProbability()+1e-9 {
		t.Errorf("decay %.4f worse than lfu %.4f", decay.MissProbability(), lfu.MissProbability())
	}
}

func TestObserveFromKeepsStreamsSeparate(t *testing.T) {
	// Client A opens 1,2 and client B opens 10,20, perfectly
	// interleaved. Merged observation would record bogus transitions
	// 1->10, 2->20; per-source observation must not.
	tr, err := NewTracker(PolicyLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tr.ObserveFrom(1, 1)
		tr.ObserveFrom(2, 10)
		tr.ObserveFrom(1, 2)
		tr.ObserveFrom(2, 20)
	}
	if f, ok := tr.First(1); !ok || f != 2 {
		t.Errorf("First(1) = %d,%v want 2", f, ok)
	}
	if f, ok := tr.First(10); !ok || f != 20 {
		t.Errorf("First(10) = %d,%v want 20", f, ok)
	}
	if l := tr.List(1); l != nil && l.Contains(10) {
		t.Error("cross-client transition 1->10 recorded")
	}
	if tr.Observed() != 20 {
		t.Errorf("Observed = %d, want 20", tr.Observed())
	}
}

// TestObserveFromBatchMatchesSingles: a run of accesses handed to
// ObserveFrom in one call must teach exactly what the same accesses teach
// one call at a time — same rankings, same counts, same Observed — under
// every policy, with four sources interleaving batches of 0 to 50 sparse
// ids, each source's context carrying over from one batch to its next.
func TestObserveFromBatchMatchesSingles(t *testing.T) {
	batched, single := newPolicyTrackers(t), newPolicyTrackers(t)
	for name, bt := range batched {
		st := single[name]
		rng := rand.New(rand.NewSource(29))
		// Sparse ids: a few hundred files scattered over 64 k, so the
		// dense tables grow in jumps and most slots stay empty.
		universe := make([]trace.FileID, 300)
		for i := range universe {
			universe[i] = trace.FileID(rng.Intn(1 << 16))
		}
		var batch []trace.FileID
		for round := 0; round < 3000; round++ {
			src := uint64(rng.Intn(4))
			batch = batch[:0]
			for n := rng.Intn(51); n > 0; n-- {
				// Skewed, so lists fill, rank and evict.
				batch = append(batch, universe[rng.Intn(1+rng.Intn(len(universe)))])
			}
			bt.ObserveFrom(src, batch...)
			for _, id := range batch {
				st.ObserveFrom(src, id)
			}
		}
		if bt.Observed() != st.Observed() {
			t.Fatalf("%s: Observed = %d batched, %d one at a time", name, bt.Observed(), st.Observed())
		}
		if bt.TrackedFiles() != st.TrackedFiles() || bt.MetadataEntries() != st.MetadataEntries() {
			t.Fatalf("%s: %d files / %d entries batched, %d / %d one at a time", name,
				bt.TrackedFiles(), bt.MetadataEntries(), st.TrackedFiles(), st.MetadataEntries())
		}
		for _, id := range universe {
			if bt.AccessCount(id) != st.AccessCount(id) {
				t.Fatalf("%s: AccessCount(%d) = %d batched, %d one at a time", name, id, bt.AccessCount(id), st.AccessCount(id))
			}
			got, want := bt.Successors(id), st.Successors(id)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Successors(%d) = %v batched, %v one at a time", name, id, got, want)
			}
			for _, s := range want {
				if bt.List(id).Count(s) != st.List(id).Count(s) {
					t.Fatalf("%s: count of %d after %d = %d batched, %d one at a time", name, s, id, bt.List(id).Count(s), st.List(id).Count(s))
				}
			}
		}
	}
}

func TestForgetSource(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 2)
	tr.ObserveFrom(7, 1)
	tr.ForgetSource(7)
	tr.ObserveFrom(7, 2)
	// The 1->2 transition must not exist: the context was dropped.
	if l := tr.List(1); l != nil && l.Contains(2) {
		t.Error("transition recorded across ForgetSource")
	}
}

func TestEvaluateReplacementEventsPerClient(t *testing.T) {
	// Two clients each running a perfect chain, interleaved in an
	// irregular order (a regular alternation would itself be a
	// learnable cycle). Each client's own stream stays deterministic.
	var events []trace.Event
	pos := [2]int{}
	x := uint32(99)
	for len(events) < 400 {
		x = x*1664525 + 1013904223
		c := int(x>>30) & 1
		base := trace.FileID(0)
		if c == 1 {
			base = 10
		}
		events = append(events, trace.Event{
			Op:     trace.OpOpen,
			Client: uint16(c + 1),
			File:   base + trace.FileID(pos[c]%3),
		})
		pos[c]++
	}
	merged, err := EvaluateReplacementEvents(events, PolicyLRU, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	perClient, err := EvaluateReplacementEvents(events, PolicyLRU, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("miss prob: merged=%.3f per-client=%.3f", merged.MissProbability(), perClient.MissProbability())
	if perClient.MissProbability() >= merged.MissProbability() {
		t.Errorf("per-client %.3f not below merged %.3f on interleaved chains",
			perClient.MissProbability(), merged.MissProbability())
	}
	// Per-client streams are perfect cycles: after warmup every
	// transition is retained even by a 1-entry list.
	if perClient.MissProbability() > 0.05 {
		t.Errorf("per-client miss prob %.3f, want near 0", perClient.MissProbability())
	}
	// Per-client transitions: one fewer per client than its accesses.
	if perClient.Transitions != uint64(len(events)-2) {
		t.Errorf("Transitions = %d, want %d", perClient.Transitions, len(events)-2)
	}
	// Non-open events are ignored.
	events = append(events, trace.Event{Op: trace.OpWrite, Client: 1, File: 0})
	again, err := EvaluateReplacementEvents(events, PolicyLRU, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if again.Transitions != perClient.Transitions {
		t.Error("write event counted as a transition")
	}
}

// newPolicyTrackers returns one tracker per policy, bounded ones at
// capacity 3 (the default) and 5 (a list that grows past its first block).
func newPolicyTrackers(t *testing.T) map[string]*Tracker {
	t.Helper()
	out := make(map[string]*Tracker)
	for _, c := range []int{3, 5} {
		for _, p := range []Policy{PolicyLRU, PolicyLFU, PolicyDecay} {
			tr, err := NewTracker(p, c)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/%d", p, c)] = tr
		}
	}
	tr, err := NewTracker(PolicyOracle, 0)
	if err != nil {
		t.Fatal(err)
	}
	out["oracle"] = tr
	return out
}

// TestTrackerListsMatchStandaloneLists: a tracker's lists live in its slab
// and their entries in blocks carved from one arena, interleaved as the
// files are first seen and as each list outgrows its block. Fed the same
// transitions, standalone lists (heap blocks, nothing shared) must rank
// exactly as the tracker's do — a block that overlapped a neighbour's, or a
// move that lost an entry, shows up as a different ranking.
func TestTrackerListsMatchStandaloneLists(t *testing.T) {
	for name, tr := range newPolicyTrackers(t) {
		rng := rand.New(rand.NewSource(11))
		ref := make(map[trace.FileID]*List)
		var prev trace.FileID
		for i := 0; i < 30000; i++ {
			// A skewed universe: a few files with long successor lists,
			// thousands seen once or twice.
			id := trace.FileID(rng.Intn(8))
			if rng.Intn(3) == 0 {
				id = trace.FileID(rng.Intn(4000))
			}
			tr.Observe(id)
			if i > 0 {
				l := ref[prev]
				if l == nil {
					var err error
					if l, err = NewList(tr.policy, tr.capacity); err != nil {
						t.Fatal(err)
					}
					ref[prev] = l
				}
				l.Observe(id)
			}
			prev = id
		}
		if tr.TrackedFiles() != len(ref) {
			t.Fatalf("%s: TrackedFiles = %d, want %d", name, tr.TrackedFiles(), len(ref))
		}
		for id, l := range ref {
			got, want := tr.Successors(id), l.Ranked()
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: Successors(%d) = %v, standalone list says %v", name, id, got, want)
			}
			if tl := tr.List(id); tl.Len() > cap(tl.entries) || (tl.Len() > firstBlock && cap(tl.entries) >= 2*tl.Len()) {
				t.Fatalf("%s: list of %d holds %d entries in a block of %d", name, id, tl.Len(), cap(tl.entries))
			}
		}
	}
}

// TestAllocBudgetObserveFirstSight pins learning a new file at zero
// allocations under every policy: its successor list comes from the
// tracker's slab and its entries from the tracker's arena. The dense
// per-file tables and the slab and arena chunks still grow now and then,
// amortised to nothing per observation.
func TestAllocBudgetObserveFirstSight(t *testing.T) {
	for name, tr := range newPolicyTrackers(t) {
		next := trace.FileID(0)
		if allocs := alloctest.PerOp(t, func() {
			tr.Observe(next)
			next++
		}); allocs != 0 {
			t.Errorf("%s: Observe of a never-seen id allocates %.0f objects, budget exactly 0", name, allocs)
		}
		// Interleaved sources, as a server learns from its connections:
		// the sources are known, the files are not.
		if allocs := alloctest.PerOp(t, func() {
			tr.ObserveFrom(uint64(next%4), next)
			next++
		}); allocs != 0 {
			t.Errorf("%s: ObserveFrom of a never-seen id allocates %.0f objects, budget exactly 0", name, allocs)
		}
		// A request's history in one call, as the server learns it.
		var batch [8]trace.FileID
		if allocs := alloctest.PerOp(t, func() {
			for i := range batch {
				batch[i] = next
				next++
			}
			tr.ObserveFrom(uint64(next%4), batch[:]...)
		}); allocs != 0 {
			t.Errorf("%s: ObserveFrom of a batch of never-seen ids allocates %.0f objects, budget exactly 0", name, allocs)
		}
	}
}
