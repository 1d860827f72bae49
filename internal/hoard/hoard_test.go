package hoard

import (
	"math/rand"
	"slices"
	"testing"

	"aggcache/internal/group"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

func tracker(t *testing.T, seq []trace.FileID) *successor.Tracker {
	t.Helper()
	tr, err := successor.NewTracker(successor.PolicyLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr.ObserveAll(seq)
	return tr
}

func TestBuildValidation(t *testing.T) {
	tr := tracker(t, nil)
	if _, err := Build(nil, PolicyFrequency, 10, 1); err == nil {
		t.Error("nil tracker accepted")
	}
	if _, err := Build(tr, "bogus", 10, 1); err == nil {
		t.Error("bogus policy accepted")
	}
	if _, err := Build(tr, PolicyFrequency, -1, 1); err == nil {
		t.Error("negative budget accepted")
	}
	if _, err := Build(tr, PolicyGroupClosure, 10, 0); err == nil {
		t.Error("zero group size accepted for closure policy")
	}
}

func TestBuildFrequencyTakesHottest(t *testing.T) {
	seq := []trace.FileID{1, 1, 1, 2, 2, 3}
	h, err := Build(tracker(t, seq), PolicyFrequency, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !h.Contains(1) || !h.Contains(2) {
		t.Errorf("hoard = %v, want {1,2}", h.Files())
	}
	if h.Contains(3) || h.Len() != 2 {
		t.Errorf("hoard = %v, want exactly {1,2}", h.Files())
	}
}

func TestBuildRespectsBudget(t *testing.T) {
	var seq []trace.FileID
	for i := 0; i < 100; i++ {
		seq = append(seq, trace.FileID(i%20))
	}
	tr := tracker(t, seq)
	for _, p := range []Policy{PolicyFrequency, PolicyGroupClosure} {
		h, err := Build(tr, p, 7, 4)
		if err != nil {
			t.Fatal(err)
		}
		if h.Len() > 7 {
			t.Errorf("%s: hoard size %d exceeds budget 7", p, h.Len())
		}
	}
}

func TestBuildZeroBudget(t *testing.T) {
	h, err := Build(tracker(t, []trace.FileID{1, 2}), PolicyFrequency, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 0 {
		t.Errorf("hoard = %v, want empty", h.Files())
	}
}

func TestGroupClosureHoardsWholeWorkingSets(t *testing.T) {
	// One hot task {1,2,3} (each file 10 accesses) and several lukewarm
	// standalone files with 4-9 accesses each. Frequency at budget 3
	// takes 1,2,3 too... make the standalone files hotter than the
	// task tail: task files 2,3 get fewer accesses than standalones.
	var seq []trace.FileID
	for i := 0; i < 10; i++ {
		seq = append(seq, 1, 2, 3) // chain; each member 10 accesses
	}
	for i := 0; i < 12; i++ {
		seq = append(seq, 50) // hot standalone
	}
	for i := 0; i < 11; i++ {
		seq = append(seq, 51)
	}
	tr := tracker(t, seq)

	h, err := Build(tr, PolicyGroupClosure, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	// The hottest seed is 50 (12 accesses): its group is just itself
	// (its successor list points to 50->50? no: successive 50s make
	// 50->50 self loop, filtered by Build's dedup). Then 51. Then 1's
	// closure {1,2,3} but only 1 slot remains -> partial. The point of
	// this test is subtler: with budget 5 the closure policy must bring
	// in 2 and 3 along with 1.
	h5, err := Build(tr, PolicyGroupClosure, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !h5.Contains(1) || !h5.Contains(2) || !h5.Contains(3) {
		t.Errorf("budget-5 closure hoard = %v, want task {1,2,3} complete", h5.Files())
	}
	_ = h
}

func TestEvaluate(t *testing.T) {
	h := &Hoard{files: map[trace.FileID]bool{1: true, 2: true}}
	r := Evaluate(h, []trace.FileID{1, 2, 3, 1, 4})
	if r.Accesses != 5 || r.Misses != 2 {
		t.Errorf("result = %+v", r)
	}
	if r.MissRate() != 0.4 {
		t.Errorf("MissRate = %v, want 0.4", r.MissRate())
	}
	if (Result{}).MissRate() != 0 {
		t.Error("empty MissRate != 0")
	}
}

func TestEvaluateRuns(t *testing.T) {
	h := &Hoard{files: map[trace.FileID]bool{1: true, 2: true}}
	r := EvaluateRuns(h, [][]trace.FileID{{1, 2}, {1, 3}, {2}})
	if r.Runs != 3 || r.Complete != 2 {
		t.Errorf("result = %+v", r)
	}
	if got := r.CompletionRate(); got < 0.66 || got > 0.67 {
		t.Errorf("CompletionRate = %v, want 2/3", got)
	}
	if (RunResult{}).CompletionRate() != 0 {
		t.Error("empty CompletionRate != 0")
	}
}

// The headline: on task-structured workloads judged by whole-session
// completeness, hoarding working-set closures beats hoarding by raw
// popularity at the same budget. Frequency ranks the early files of many
// tasks above the rarely-reached tails of even the hottest tasks, so it
// beheads every working set; closure hoards fewer tasks but whole.
func TestGroupClosureBeatsFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// 12 tasks x 8 files. 70% of runs hit the 4 hot tasks. A run
	// executes a random prefix of its task (interrupted builds), which
	// gives within-task popularity skew: tails are much colder than
	// heads.
	var tasks [][]trace.FileID
	id := trace.FileID(0)
	for i := 0; i < 12; i++ {
		var task []trace.FileID
		for j := 0; j < 8; j++ {
			task = append(task, id)
			id++
		}
		tasks = append(tasks, task)
	}
	pickTask := func() int {
		if rng.Float64() < 0.55 {
			return rng.Intn(3) // hot tasks
		}
		return 3 + rng.Intn(9)
	}
	// Connected-time history: many runs are interrupted early
	// (incremental builds, aborted scripts), truncating geometrically.
	// This is what gives within-task popularity skew: task tails are
	// far colder than heads, so frequency selection beheads every task.
	var past []trace.FileID
	for i := 0; i < 800; i++ {
		task := tasks[pickTask()]
		for _, id := range task {
			past = append(past, id)
			if rng.Float64() > 0.65 {
				break
			}
		}
	}
	// Disconnected sessions are complete work sessions: the whole task
	// is needed or the session fails.
	var future [][]trace.FileID
	for i := 0; i < 200; i++ {
		future = append(future, tasks[pickTask()])
	}

	tr := tracker(t, past)
	const budget = 32 // room for exactly 4 whole tasks
	freq, err := Build(tr, PolicyFrequency, budget, 8)
	if err != nil {
		t.Fatal(err)
	}
	closure, err := Build(tr, PolicyGroupClosure, budget, 8)
	if err != nil {
		t.Fatal(err)
	}
	fr := EvaluateRuns(freq, future)
	cr := EvaluateRuns(closure, future)
	t.Logf("disconnected run completion: frequency=%.3f group-closure=%.3f",
		fr.CompletionRate(), cr.CompletionRate())
	if cr.CompletionRate() <= fr.CompletionRate() {
		t.Errorf("group closure (%.3f) did not beat frequency (%.3f)",
			cr.CompletionRate(), fr.CompletionRate())
	}
}

// Complementary finding to the paper's Figure 5: recency-ranked successor
// lists are best for *cache* metadata, but hoard closures are better built
// from frequency-ranked lists — interrupted runs inject recent-but-wrong
// successors that recency ranking follows off the working set, while
// frequency ranking keeps the stable task structure.
func TestFrequencyRankedClosuresHoardBetter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const numTasks, taskLen = 12, 8
	var tasks [][]trace.FileID
	id := trace.FileID(0)
	for i := 0; i < numTasks; i++ {
		var task []trace.FileID
		for j := 0; j < taskLen; j++ {
			task = append(task, id)
			id++
		}
		tasks = append(tasks, task)
	}
	pick := func() int {
		if rng.Float64() < 0.55 {
			return rng.Intn(3)
		}
		return 3 + rng.Intn(numTasks-3)
	}
	var past []trace.FileID
	for i := 0; i < 1500; i++ {
		for _, fid := range tasks[pick()] {
			past = append(past, fid)
			if rng.Float64() > 0.65 {
				break
			}
		}
	}
	var future [][]trace.FileID
	for i := 0; i < 300; i++ {
		future = append(future, tasks[pick()])
	}

	completion := func(policy successor.Policy) float64 {
		tr, err := successor.NewTracker(policy, 3)
		if err != nil {
			t.Fatal(err)
		}
		tr.ObserveAll(past)
		h, err := Build(tr, PolicyGroupClosure, 32, taskLen)
		if err != nil {
			t.Fatal(err)
		}
		return EvaluateRuns(h, future).CompletionRate()
	}
	lru := completion(successor.PolicyLRU)
	lfu := completion(successor.PolicyLFU)
	t.Logf("closure completion: lru-ranked=%.3f lfu-ranked=%.3f", lru, lfu)
	if lfu <= lru {
		t.Errorf("frequency-ranked closures (%.3f) did not beat recency-ranked (%.3f)", lfu, lru)
	}
}

// coverHoard is the group-closure hoard as it was built before the
// lazy walk: the whole group.BuildCover over the hottest files,
// flattened, taken until the budget is full.
func coverHoard(t *testing.T, tr *successor.Tracker, budget, groupSize int) []trace.FileID {
	t.Helper()
	b, err := group.NewBuilder(tr, groupSize, group.StrategyChain)
	if err != nil {
		t.Fatal(err)
	}
	files := map[trace.FileID]bool{}
	for _, g := range group.BuildCover(tr, b, tr.Hottest()).Groups {
		for _, id := range g {
			if len(files) >= budget {
				break
			}
			files[id] = true
		}
	}
	return (&Hoard{files: files}).Files()
}

// TestGroupClosureMatchesWholeCover: the lazy group-closure hoard, which
// builds each uncovered seed's group only while the budget has room,
// selects what the whole cover's groups did, on four profiles, both
// successor policies, four budgets and three group sizes.
func TestGroupClosureMatchesWholeCover(t *testing.T) {
	for _, p := range workload.Profiles() {
		w, err := workload.Standard(p, 1, 12000)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []successor.Policy{successor.PolicyLRU, successor.PolicyLFU} {
			tr, err := successor.NewTracker(policy, 3)
			if err != nil {
				t.Fatal(err)
			}
			tr.ObserveAll(w.OpenIDs())
			for _, budget := range []int{8, 16, 64, 500} {
				for _, g := range []int{2, 5, 8} {
					h, err := Build(tr, PolicyGroupClosure, budget, g)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := h.Files(), coverHoard(t, tr, budget, g); !slices.Equal(got, want) {
						t.Errorf("%s %s budget %d g %d: hoard %v, the whole cover's %v", p, policy, budget, g, got, want)
					}
				}
			}
		}
	}
}
