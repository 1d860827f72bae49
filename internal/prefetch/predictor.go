// Package prefetch implements the classic *predictive prefetching*
// baselines the paper positions itself against (§5): the last-successor
// predictor of Lei & Duchamp, the first-successor variant studied by
// Kroeger & Long, and the probability-graph scheme of Griffioen &
// Appleton with its look-ahead window and minimum-chance threshold. A
// PrefetchingCache drives any predictor the way those systems did —
// issuing explicit per-file prefetch requests after each demand access —
// so the aggregating cache's implicit group retrieval can be compared
// against genuine prefetchers on equal terms.
package prefetch

import (
	"fmt"

	"aggcache/internal/trace"
)

// Predictor guesses which files will be accessed soon, conditioned on the
// access history it has observed.
type Predictor interface {
	// Observe records a demand access in sequence order.
	Observe(id trace.FileID)
	// Predict returns up to n upcoming files, most likely first,
	// excluding none — callers filter out already-cached files.
	Predict(n int) []trace.FileID
	// Name identifies the predictor in reports.
	Name() string
}

// SuccessorChain predicts that each file will be followed by its stored
// successor, chaining that rule forward for deeper predictions. The two
// classic variants differ only in which successor is stored: the
// last-successor model (Lei & Duchamp 1997) keeps whatever followed the
// file last time; the first-successor variant compared by Kroeger & Long
// (1999) keeps whatever followed it the first time it was ever seen. That
// one adapts to nothing, which makes it a useful lower bound on
// adaptivity.
type SuccessorChain struct {
	next map[trace.FileID]trace.FileID
	// keepFirst selects the first-successor rule: Observe never
	// overwrites a stored successor.
	keepFirst bool
	prev      trace.FileID
	hasPrev   bool
}

var _ Predictor = (*SuccessorChain)(nil)

// NewLastSuccessor returns an empty last-successor predictor.
func NewLastSuccessor() *SuccessorChain {
	return &SuccessorChain{next: make(map[trace.FileID]trace.FileID)}
}

// NewFirstSuccessor returns an empty first-successor predictor.
func NewFirstSuccessor() *SuccessorChain {
	return &SuccessorChain{next: make(map[trace.FileID]trace.FileID), keepFirst: true}
}

// Observe implements Predictor.
func (p *SuccessorChain) Observe(id trace.FileID) {
	if p.hasPrev {
		if _, ok := p.next[p.prev]; !ok || !p.keepFirst {
			p.next[p.prev] = id
		}
	}
	p.prev = id
	p.hasPrev = true
}

// Predict implements Predictor by following the successor chain from the
// current file.
func (p *SuccessorChain) Predict(n int) []trace.FileID {
	if !p.hasPrev || n <= 0 {
		return nil
	}
	out := make([]trace.FileID, 0, n)
	seen := map[trace.FileID]bool{p.prev: true}
	cur := p.prev
	for len(out) < n {
		next, ok := p.next[cur]
		if !ok || seen[next] {
			break
		}
		out = append(out, next)
		seen[next] = true
		cur = next
	}
	return out
}

// Name implements Predictor.
func (p *SuccessorChain) Name() string {
	if p.keepFirst {
		return "first-successor"
	}
	return "last-successor"
}

// ProbabilityGraph is Griffioen & Appleton's predictor (USENIX 1994): a
// directed graph whose edge A->B counts how often B was accessed within a
// look-ahead window after A. Prediction returns the current file's
// followers whose estimated chance (edge count over the node's total)
// meets the minimum-chance threshold.
type ProbabilityGraph struct {
	lookahead int
	minChance float64
	counts    map[trace.FileID]map[trace.FileID]uint64
	totals    map[trace.FileID]uint64
	window    []trace.FileID
	cur       trace.FileID
	hasCur    bool
}

var _ Predictor = (*ProbabilityGraph)(nil)

// NewProbabilityGraph builds a probability-graph predictor. lookahead is
// the window size in accesses (the paper's scheme tracked followers
// "within a particular look-ahead window"); minChance in [0,1] is the
// prefetch threshold.
func NewProbabilityGraph(lookahead int, minChance float64) (*ProbabilityGraph, error) {
	if lookahead < 1 {
		return nil, fmt.Errorf("prefetch: lookahead must be >= 1, got %d", lookahead)
	}
	if minChance < 0 || minChance > 1 {
		return nil, fmt.Errorf("prefetch: min chance must be in [0,1], got %v", minChance)
	}
	return &ProbabilityGraph{
		lookahead: lookahead,
		minChance: minChance,
		counts:    make(map[trace.FileID]map[trace.FileID]uint64),
		totals:    make(map[trace.FileID]uint64),
	}, nil
}

// Observe implements Predictor: id is a follower (within the look-ahead
// window) of every file currently in the window.
func (p *ProbabilityGraph) Observe(id trace.FileID) {
	for _, w := range p.window {
		if w == id {
			continue
		}
		m, ok := p.counts[w]
		if !ok {
			m = make(map[trace.FileID]uint64, 4)
			p.counts[w] = m
		}
		m[id]++
		p.totals[w]++
	}
	p.window = append(p.window, id)
	if len(p.window) > p.lookahead {
		p.window = p.window[1:]
	}
	p.cur = id
	p.hasCur = true
}

// Predict implements Predictor: the current file's followers at or above
// the minimum chance, most likely first.
func (p *ProbabilityGraph) Predict(n int) []trace.FileID {
	if !p.hasCur || n <= 0 {
		return nil
	}
	m := p.counts[p.cur]
	total := p.totals[p.cur]
	if total == 0 {
		return nil
	}
	type cand struct {
		id    trace.FileID
		count uint64
	}
	cands := make([]cand, 0, len(m))
	for id, c := range m {
		if float64(c)/float64(total) >= p.minChance {
			cands = append(cands, cand{id: id, count: c})
		}
	}
	// Insertion sort by count desc, id asc for determinism (candidate
	// lists are tiny).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0; j-- {
			a, b := cands[j-1], cands[j]
			if a.count > b.count || (a.count == b.count && a.id < b.id) {
				break
			}
			cands[j-1], cands[j] = b, a
		}
	}
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]trace.FileID, len(cands))
	for i, c := range cands {
		out[i] = c.id
	}
	return out
}

// Name implements Predictor.
func (p *ProbabilityGraph) Name() string {
	return fmt.Sprintf("probability-graph(w=%d,p=%.2f)", p.lookahead, p.minChance)
}
