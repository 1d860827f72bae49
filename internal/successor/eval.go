package successor

import (
	"aggcache/internal/trace"
)

// ReplacementEval is the outcome of replaying an access sequence against a
// successor-list replacement policy (Figure 5 of the paper).
type ReplacementEval struct {
	// Transitions is the number of observed immediate-successor events
	// (sequence length minus one, per contiguous run).
	Transitions uint64
	// Missed counts transitions whose successor was not retained in the
	// predecessor's list at the moment of the access.
	Missed uint64
}

// MissProbability is the likelihood of the policy failing to keep a future
// successor: Missed/Transitions. Because every file's transitions are
// replayed, the average is naturally weighted by file access frequency,
// matching the paper's definition.
func (e ReplacementEval) MissProbability() float64 {
	if e.Transitions == 0 {
		return 0
	}
	return float64(e.Missed) / float64(e.Transitions)
}

// EvaluateReplacement replays seq and measures how often the policy's
// bounded per-file lists fail to contain the actual next file. The check
// happens before the list is updated, so the first observation of a given
// successor is always a miss — including for the Oracle, which can predict
// any previously seen successor but not an unseen one. Every open comes
// from source 0, what Tracker.Observe records.
func EvaluateReplacement(seq []trace.FileID, policy Policy, capacity int) (ReplacementEval, error) {
	r, err := newReplay(policy, capacity)
	if err != nil {
		return ReplacementEval{}, err
	}
	for _, id := range seq {
		r.open(0, id)
	}
	return r.ev, nil
}

// EvaluateReplacementEvents replays open events, attributing each
// transition to the issuing client when perClient is true (so transitions
// never span clients), or treating the merged stream as one sequence,
// source 0, when false. The successor lists are shared either way; only
// the predecessor context, which the tracker keeps, differs. This
// quantifies the §2.2 modeling question about differentiating events by
// driving client.
func EvaluateReplacementEvents(events []trace.Event, policy Policy, capacity int, perClient bool) (ReplacementEval, error) {
	r, err := newReplay(policy, capacity)
	if err != nil {
		return ReplacementEval{}, err
	}
	for _, e := range events {
		if e.Op != trace.OpOpen {
			continue
		}
		var src uint64
		if perClient {
			src = uint64(e.Client)
		}
		r.open(src, e.File)
	}
	return r.ev, nil
}

// replay is both evaluators' tracker and tally. A method call per open,
// not a callback: the Fig 5 sweep replays every open of a trace once per
// policy and capacity.
type replay struct {
	tr *Tracker
	ev ReplacementEval
}

func newReplay(policy Policy, capacity int) (*replay, error) {
	tr, err := NewTracker(policy, capacity)
	if err != nil {
		return nil, err
	}
	return &replay{tr: tr}, nil
}

// open checks id against the list of src's predecessor, then learns it.
func (r *replay) open(src uint64, id trace.FileID) {
	if p, ok := r.tr.Last(src); ok {
		r.ev.Transitions++
		if l := r.tr.List(p); l == nil || !l.Contains(id) {
			r.ev.Missed++
		}
	}
	r.tr.ObserveFrom(src, id)
}

// EvaluateReplacementSweep runs EvaluateReplacement for every list capacity
// in capacities, returning miss probabilities in the same order. This is
// the exact sweep plotted in Figure 5 (capacities 1..10).
func EvaluateReplacementSweep(seq []trace.FileID, policy Policy, capacities []int) ([]float64, error) {
	out := make([]float64, len(capacities))
	for i, c := range capacities {
		ev, err := EvaluateReplacement(seq, policy, c)
		if err != nil {
			return nil, err
		}
		out[i] = ev.MissProbability()
	}
	return out, nil
}
