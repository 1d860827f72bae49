// Package successor implements the paper's per-file relationship metadata:
// for every file a small, bounded list of its observed immediate successors,
// managed by a pluggable replacement policy. Section 4.4 of the paper shows
// recency (LRU) consistently beats frequency (LFU) for this job, with an
// unbounded Oracle as the upper bound; all three live here, together with
// the Figure-5 evaluator that measures how often each policy fails to
// retain a future successor.
package successor

import (
	"fmt"

	"aggcache/internal/trace"
)

// Policy selects the replacement scheme for per-file successor lists.
type Policy string

// Successor-list replacement policies.
const (
	// PolicyLRU keeps the most recent successors (the paper's choice).
	PolicyLRU Policy = "lru"
	// PolicyLFU keeps the most frequent successors.
	PolicyLFU Policy = "lfu"
	// PolicyDecay ranks successors by exponentially decayed frequency —
	// the recency/frequency hybrid the paper's §6 names as the likely
	// ideal ("may well be based on a combination of recency and
	// frequency"). Each observation first scales every retained weight
	// by the decay factor λ, then credits the observed successor with
	// 1. λ -> 1 approaches LFU; λ -> 0 approaches pure last-successor.
	PolicyDecay Policy = "decay"
	// PolicyOracle keeps every successor ever observed (unbounded); it
	// upper-bounds any online policy regardless of state-space limits.
	PolicyOracle Policy = "oracle"
)

// DefaultDecay is the λ used when PolicyDecay is selected without an
// explicit factor; chosen by the sweep in the package tests.
const DefaultDecay = 0.75

func (p Policy) valid() bool {
	switch p {
	case PolicyLRU, PolicyLFU, PolicyDecay, PolicyOracle:
		return true
	}
	return false
}

// entry is one successor candidate in a list.
type entry struct {
	id    trace.FileID
	count uint64
	// weight is the decayed-frequency score used by PolicyDecay.
	weight float64
	// tick is the last observation time, used for recency ordering and
	// LFU tie-breaks.
	tick uint64
}

// List is a bounded set of immediate-successor candidates for one file.
// The zero value is not usable; create lists through a Tracker or NewList.
type List struct {
	policy   Policy
	capacity int
	lambda   float64
	entries  []entry // maintained in rank order, best candidate first
	clock    uint64
	// arena supplies the blocks entries move to as the list grows: the
	// owning tracker's, or nil for a standalone list, whose blocks come
	// straight from the heap.
	arena *entryArena
}

// firstBlock is the entries a list's first block holds, capped at its
// capacity: the default capacity (3) never grows past it.
const firstBlock = 4

// arenaChunk is the entries one arena chunk holds (32 B each: 64 KiB).
const arenaChunk = 2048

// entryArena carves list blocks out of shared chunks, so learning a new
// file or a new successor does not cost a heap object per list. A block is
// never handed out twice: a list that outgrows its block leaves it behind
// in its chunk, and the chunk lives as long as any block carved from it.
type entryArena struct {
	free []entry // the unused tail of the current chunk
}

// carve returns an empty block with room for n entries. A block over a
// quarter of a chunk is allocated on its own, so one huge list cannot
// waste most of a chunk.
func (a *entryArena) carve(n int) []entry {
	if a == nil || n > arenaChunk/4 {
		return make([]entry, 0, n)
	}
	if len(a.free) < n {
		a.free = make([]entry, arenaChunk)
	}
	b := a.free[:0:n]
	a.free = a.free[n:]
	return b
}

// room guarantees space for one more entry. A full block is replaced by
// one twice its size (the first holds firstBlock), capped at capacity
// except under PolicyOracle — one growth rule for every policy, so a
// list's block never holds more than twice its entries once it has grown.
func (l *List) room() {
	if len(l.entries) < cap(l.entries) {
		return
	}
	n := max(2*cap(l.entries), firstBlock)
	if l.policy != PolicyOracle {
		n = min(n, l.capacity)
	}
	l.entries = append(l.arena.carve(n), l.entries...)
}

// NewList returns an empty successor list. Capacity is ignored for
// PolicyOracle (the list is unbounded). PolicyDecay uses DefaultDecay;
// NewDecayList sets an explicit factor.
func NewList(policy Policy, capacity int) (*List, error) {
	if policy == PolicyDecay {
		return NewDecayList(capacity, DefaultDecay)
	}
	if !policy.valid() {
		return nil, fmt.Errorf("successor: unknown policy %q", policy)
	}
	if policy != PolicyOracle && capacity <= 0 {
		return nil, fmt.Errorf("successor: capacity must be positive, got %d", capacity)
	}
	return &List{policy: policy, capacity: capacity}, nil
}

// NewDecayList returns a PolicyDecay list with decay factor lambda in
// (0, 1].
func NewDecayList(capacity int, lambda float64) (*List, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("successor: capacity must be positive, got %d", capacity)
	}
	if lambda <= 0 || lambda > 1 {
		return nil, fmt.Errorf("successor: decay factor must be in (0,1], got %v", lambda)
	}
	return &List{policy: PolicyDecay, capacity: capacity, lambda: lambda}, nil
}

// Observe records that id was seen as the immediate successor.
func (l *List) Observe(id trace.FileID) {
	l.clock++
	idx := -1
	for i := range l.entries {
		if l.entries[i].id == id {
			idx = i
			break
		}
	}
	switch l.policy {
	case PolicyLRU:
		if idx >= 0 {
			e := l.entries[idx]
			e.count++
			e.tick = l.clock
			copy(l.entries[1:idx+1], l.entries[:idx])
			l.entries[0] = e
			return
		}
		e := entry{id: id, count: 1, tick: l.clock}
		if len(l.entries) < l.capacity {
			l.room()
			l.entries = append(l.entries, entry{})
		}
		copy(l.entries[1:], l.entries)
		l.entries[0] = e

	case PolicyLFU:
		if idx >= 0 {
			l.entries[idx].count++
			l.entries[idx].tick = l.clock
			// Bubble up while strictly more frequent, or equally
			// frequent but more recent, than the entry above.
			for idx > 0 && lfuLess(l.entries[idx-1], l.entries[idx]) {
				l.entries[idx-1], l.entries[idx] = l.entries[idx], l.entries[idx-1]
				idx--
			}
			return
		}
		e := entry{id: id, count: 1, tick: l.clock}
		if len(l.entries) < l.capacity {
			l.room()
			l.entries = append(l.entries, e)
		} else {
			// Replace the worst-ranked entry (list is rank ordered).
			l.entries[len(l.entries)-1] = e
		}
		idx = len(l.entries) - 1
		for idx > 0 && lfuLess(l.entries[idx-1], l.entries[idx]) {
			l.entries[idx-1], l.entries[idx] = l.entries[idx], l.entries[idx-1]
			idx--
		}

	case PolicyDecay:
		for i := range l.entries {
			l.entries[i].weight *= l.lambda
		}
		if idx >= 0 {
			l.entries[idx].count++
			l.entries[idx].weight++
			l.entries[idx].tick = l.clock
		} else {
			e := entry{id: id, count: 1, weight: 1, tick: l.clock}
			if len(l.entries) < l.capacity {
				l.room()
				l.entries = append(l.entries, e)
			} else {
				// Rank order means the worst weight is last.
				l.entries[len(l.entries)-1] = e
			}
			idx = len(l.entries) - 1
		}
		for idx > 0 && decayLess(l.entries[idx-1], l.entries[idx]) {
			l.entries[idx-1], l.entries[idx] = l.entries[idx], l.entries[idx-1]
			idx--
		}
		// A decayed observation can also demote the touched entry
		// relative to none (weights only grow for it), so no downward
		// pass is needed: all other weights shrank uniformly.

	case PolicyOracle:
		if idx >= 0 {
			l.entries[idx].count++
			l.entries[idx].tick = l.clock
			return
		}
		l.room()
		l.entries = append(l.entries, entry{id: id, count: 1, tick: l.clock})
	}
}

// decayLess reports whether a ranks strictly worse than b under decayed
// frequency (lower weight, ties broken by older tick).
func decayLess(a, b entry) bool {
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return a.tick < b.tick
}

// lfuLess reports whether a ranks strictly worse than b under the LFU
// ordering (lower count, ties broken by older tick).
func lfuLess(a, b entry) bool {
	if a.count != b.count {
		return a.count < b.count
	}
	return a.tick < b.tick
}

// Contains reports whether id is currently retained as a candidate.
func (l *List) Contains(id trace.FileID) bool {
	for i := range l.entries {
		if l.entries[i].id == id {
			return true
		}
	}
	return false
}

// First returns the most likely immediate successor, if any. For LRU that
// is the most recent successor (the paper's "last successor" predictor);
// for LFU the most frequent; for the Oracle the most frequent observed.
func (l *List) First() (trace.FileID, bool) {
	if len(l.entries) == 0 {
		return 0, false
	}
	if l.policy == PolicyOracle {
		best := 0
		for i := 1; i < len(l.entries); i++ {
			if lfuLess(l.entries[best], l.entries[i]) {
				best = i
			}
		}
		return l.entries[best].id, true
	}
	return l.entries[0].id, true
}

// Ranked returns the candidate successors, best first. The slice is freshly
// allocated.
func (l *List) Ranked() []trace.FileID {
	return l.AppendRanked(make([]trace.FileID, 0, len(l.entries)))
}

// AppendRanked appends the candidate successors, best first, to dst and
// returns the extended slice. When dst has spare capacity no allocation
// happens (except for PolicyOracle, whose unbounded entries need a
// sorting copy) — the group builder's hot loop depends on this.
func (l *List) AppendRanked(dst []trace.FileID) []trace.FileID {
	if l.policy == PolicyOracle {
		// Sort a copy by count desc, tick desc.
		tmp := make([]entry, len(l.entries))
		copy(tmp, l.entries)
		for i := 1; i < len(tmp); i++ {
			for j := i; j > 0 && lfuLess(tmp[j-1], tmp[j]); j-- {
				tmp[j-1], tmp[j] = tmp[j], tmp[j-1]
			}
		}
		for i := range tmp {
			dst = append(dst, tmp[i].id)
		}
		return dst
	}
	for i := range l.entries {
		dst = append(dst, l.entries[i].id)
	}
	return dst
}

// AppendLikely is AppendRanked keeping only the candidates whose count is
// more than share of the counts the list retains: at share 1/3, a
// successor that took more than a third of the retained successions.
// Share 0 keeps every candidate.
func (l *List) AppendLikely(dst []trace.FileID, share float64) []trace.FileID {
	start := len(dst)
	dst = l.AppendRanked(dst)
	if share <= 0 {
		return dst
	}
	var total uint64
	for i := range l.entries {
		total += l.entries[i].count
	}
	cut := share * float64(total)
	kept := dst[:start]
	for _, id := range dst[start:] {
		if float64(l.Count(id)) > cut {
			kept = append(kept, id)
		}
	}
	return kept
}

// Count returns how many times id has been observed while retained.
// Evicted candidates lose their counts, exactly like the paper's bounded
// metadata.
func (l *List) Count(id trace.FileID) uint64 {
	for i := range l.entries {
		if l.entries[i].id == id {
			return l.entries[i].count
		}
	}
	return 0
}

// Len returns the number of retained candidates.
func (l *List) Len() int { return len(l.entries) }

// Capacity returns the configured bound (0 means unbounded Oracle).
func (l *List) Capacity() int {
	if l.policy == PolicyOracle {
		return 0
	}
	return l.capacity
}
