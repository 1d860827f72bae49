// Package hoard applies grouping to mobile file hoarding — the paper's §6
// names this application as future work and §5 contrasts it with the Seer
// project's clustering approach. A hoard is the set of files copied onto a
// disconnecting machine; a hoard miss while disconnected is a hard
// failure, not a latency blip, so hoard selection quality matters more
// than cache replacement quality.
//
// Two selectors are provided:
//
//   - Frequency: take the most-accessed files until the budget is spent —
//     the independence-assumption baseline.
//   - GroupClosure: walk seeds in decreasing access count, but charge the
//     budget for each seed's *group* (its predicted successor closure) as
//     a unit, so working sets are hoarded whole instead of beheaded.
//
// On task-structured workloads, frequency selection strands the cold tail
// of every popular working set; group closure hoards fewer distinct
// working sets but hoards them completely, and wins on disconnected miss
// rate.
package hoard

import (
	"fmt"
	"sort"

	"aggcache/internal/group"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

// Policy selects a hoard-construction strategy.
type Policy string

// Hoard selection policies.
const (
	// PolicyFrequency hoards the globally most-accessed files.
	PolicyFrequency Policy = "frequency"
	// PolicyGroupClosure hoards whole predicted working sets.
	PolicyGroupClosure Policy = "group"
)

// Hoard is a selected set of files, bounded by a budget.
type Hoard struct {
	files map[trace.FileID]bool
}

// Contains reports whether id is hoarded.
func (h *Hoard) Contains(id trace.FileID) bool { return h.files[id] }

// Len returns the number of hoarded files.
func (h *Hoard) Len() int { return len(h.files) }

// Files returns the hoarded ids in ascending order.
func (h *Hoard) Files() []trace.FileID {
	out := make([]trace.FileID, 0, len(h.files))
	for id := range h.files {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Build selects up to budget files using the tracker's metadata. For
// PolicyGroupClosure, groupSize bounds each seed's closure (it is ignored
// for PolicyFrequency).
func Build(t *successor.Tracker, policy Policy, budget, groupSize int) (*Hoard, error) {
	if t == nil {
		return nil, fmt.Errorf("hoard: tracker must not be nil")
	}
	if budget < 0 {
		return nil, fmt.Errorf("hoard: budget must be >= 0, got %d", budget)
	}
	h := &Hoard{files: make(map[trace.FileID]bool, budget)}
	switch policy {
	case PolicyFrequency:
		h.take(t.Hottest(), budget)
	case PolicyGroupClosure:
		if groupSize < 1 {
			return nil, fmt.Errorf("hoard: group size must be >= 1, got %d", groupSize)
		}
		b, err := group.NewBuilder(t, groupSize, group.StrategyChain)
		if err != nil {
			return nil, err
		}
		// The groups of group.BuildCover over t.Hottest(), hottest seed
		// first, each seed's whole closure charged before the next
		// seed's; built one at a time, and only until the budget is full.
		var covered []bool
		var g []trace.FileID
		for _, seed := range t.Hottest() {
			if h.Len() >= budget {
				break
			}
			if int(seed) < len(covered) && covered[seed] {
				continue
			}
			g = b.AppendBuild(g[:0], seed)
			for _, m := range g {
				if int(m) >= len(covered) {
					covered = trace.GrowDense(covered, m)
				}
				covered[m] = true
			}
			h.take(g, budget)
		}
	default:
		return nil, fmt.Errorf("hoard: unknown policy %q", policy)
	}
	return h, nil
}

// take hoards ids in order until the hoard holds budget files.
func (h *Hoard) take(ids []trace.FileID, budget int) {
	for _, id := range ids {
		if h.Len() >= budget {
			return
		}
		h.files[id] = true
	}
}

// Result is the outcome of a disconnected-operation replay.
type Result struct {
	Accesses uint64
	Misses   uint64
}

// MissRate is disconnected misses over accesses.
func (r Result) MissRate() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// Evaluate replays a (future) access sequence against the hoard: every
// access to an unhoarded file is a disconnected miss.
func Evaluate(h *Hoard, seq []trace.FileID) Result {
	var r Result
	for _, id := range seq {
		r.Accesses++
		if !h.Contains(id) {
			r.Misses++
		}
	}
	return r
}

// RunResult is the outcome of a session-level replay: disconnected work
// usually fails entirely when any needed file is missing (a build with a
// missing header does not half-succeed), so hoards are judged on how many
// whole runs they can serve.
type RunResult struct {
	Runs     uint64
	Complete uint64
}

// CompletionRate is fully served runs over all runs.
func (r RunResult) CompletionRate() float64 {
	if r.Runs == 0 {
		return 0
	}
	return float64(r.Complete) / float64(r.Runs)
}

// EvaluateRuns replays task runs against the hoard; a run is complete iff
// every one of its accesses is hoarded.
func EvaluateRuns(h *Hoard, runs [][]trace.FileID) RunResult {
	var r RunResult
	for _, run := range runs {
		r.Runs++
		complete := true
		for _, id := range run {
			if !h.Contains(id) {
				complete = false
				break
			}
		}
		if complete {
			r.Complete++
		}
	}
	return r
}
