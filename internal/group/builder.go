// Package group constructs retrieval groups from successor metadata: the
// demanded file plus a best-effort chain of its most-likely transitive
// successors (§2 of the paper). It also builds the overlapping
// minimal-covering-set groupings of §2.1 used when grouping drives data
// placement rather than caching.
package group

import (
	"fmt"

	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

// Strategy selects how a group is extended beyond the demanded file.
type Strategy int

// Group-construction strategies.
const (
	// StrategyChain follows the most-likely immediate successor
	// recursively (the paper's transitive-successor chaining), falling
	// back to lower-ranked successors of earlier members when the chain
	// dead-ends or cycles.
	StrategyChain Strategy = iota + 1
	// StrategyBreadth takes the demanded file's ranked successors first,
	// then their successors, breadth-first. Used for the ablation bench;
	// the paper's design is StrategyChain.
	StrategyBreadth
)

// Builder assembles groups of up to a fixed size from a tracker's
// metadata. The tracker stays owned by the caller and keeps learning as the
// workload proceeds; Build reads the current metadata.
//
// A Builder carries reusable scratch state (the generation-stamped
// seen-set below) and is not safe for concurrent use — exactly like the
// Tracker it reads. Parallel sweeps give every simulation its own
// Builder.
type Builder struct {
	tracker  *successor.Tracker
	size     int
	strategy Strategy
	// share is the link cut: a successor is a candidate only when its
	// count is more than share of the counts its predecessor's list
	// retains. 0 cuts nothing.
	share float64
	// built is the size cap of the last build, for DependsOn.
	built int

	// seen is a dense generation-stamped membership set indexed by
	// FileID (IDs are interned densely, so they double as indices).
	// seen[id] == gen means id is in the group being built. Bumping gen
	// empties the set in O(1), so the per-miss hot path allocates and
	// clears nothing.
	seen []uint32
	gen  uint32
	// succ and queue are scratch buffers for ranked-successor reads and
	// the breadth-first frontier.
	succ  []trace.FileID
	queue []trace.FileID
}

// NewBuilder returns a Builder producing groups of up to size files that
// cuts no link: it chains successors until the group holds size files or
// the metadata runs out — the paper's rule.
func NewBuilder(t *successor.Tracker, size int, strategy Strategy) (*Builder, error) {
	return NewCutBuilder(t, size, strategy, 0)
}

// NewCutBuilder returns a Builder that also cuts weak links: a successor
// joins a group only when its count is more than share of the counts its
// predecessor's list retains (at share 1/3, 3·count > total). A link that
// fails the test is skipped, and the chain falls back to earlier members
// under the same rule, so size is a cap rather than a target. Share 0 is
// NewBuilder.
func NewCutBuilder(t *successor.Tracker, size int, strategy Strategy, share float64) (*Builder, error) {
	if t == nil {
		return nil, fmt.Errorf("group: tracker must not be nil")
	}
	if size < 1 {
		return nil, fmt.Errorf("group: size must be >= 1, got %d", size)
	}
	if strategy != StrategyChain && strategy != StrategyBreadth {
		return nil, fmt.Errorf("group: unknown strategy %d", strategy)
	}
	if !(share >= 0 && share < 1) {
		return nil, fmt.Errorf("group: link share must be in [0,1), got %v", share)
	}
	return &Builder{tracker: t, size: size, strategy: strategy, share: share}, nil
}

// Size returns the group size cap g.
func (b *Builder) Size() int { return b.size }

// Build returns a best-effort group for a demand access to id: id itself
// first, then up to size-1 predicted members, without duplicates. The
// result length is in [1, size]. The returned slice is freshly allocated
// and owned by the caller; the per-miss hot path uses AppendBuild with a
// reused buffer instead.
func (b *Builder) Build(id trace.FileID) []trace.FileID {
	return b.AppendBuild(make([]trace.FileID, 0, b.size), id)
}

// AppendBuild appends the group for id to dst and returns the extended
// slice. With a buffer of spare capacity it performs no allocations
// (beyond one-time scratch growth), which is what strips the group
// construction out of the aggregating cache's miss-path heap traffic.
func (b *Builder) AppendBuild(dst []trace.FileID, id trace.FileID) []trace.FileID {
	return b.AppendBuildN(dst, id, b.size)
}

// AppendBuildN is AppendBuild with a size cap of n instead of Size. Both
// strategies extend a group one member at a time, each pick reading only
// the members before it, so the first m members of a build capped at
// n >= m are exactly the build capped at m: one deep build also yields
// every shallower group.
func (b *Builder) AppendBuildN(dst []trace.FileID, id trace.FileID, n int) []trace.FileID {
	start := len(dst)
	dst = append(dst, id)
	b.built = n
	if n <= 1 {
		return dst
	}
	b.nextGen()
	b.mark(id)
	return b.extend(dst, start, n)
}

// ResumeN extends group, a group this builder built, to a size cap of n
// and returns the extended slice. A build's state after each member is
// the members so far — its seen-set, the chain's last member, the
// breadth-first queue — so when the metadata has not changed since group
// was built, ResumeN returns exactly what AppendBuildN(group[0], n) would.
// A chain resumes from group's last member and rereads earlier lists only
// to fall back; breadth rereads its members' lists, finding marked files.
func (b *Builder) ResumeN(group []trace.FileID, n int) []trace.FileID {
	b.built = n
	b.nextGen()
	for _, m := range group {
		b.mark(m)
	}
	return b.extend(group, 0, n)
}

// extend grows the group dst[start:] to at most n members by the
// builder's strategy; its members are marked seen.
func (b *Builder) extend(dst []trace.FileID, start, n int) []trace.FileID {
	switch b.strategy {
	case StrategyChain:
		return b.extendChain(dst, start, n)
	case StrategyBreadth:
		return b.extendBreadth(dst, start, n)
	}
	return dst
}

// DependsOn reports whether the group the last AppendBuild or AppendBuildN
// returned depends on id's successor list. A build reads only its members'
// lists, so it does when id is a member; a group of one reads none.
func (b *Builder) DependsOn(id trace.FileID) bool {
	return b.built > 1 && b.marked(id)
}

// nextGen starts a fresh, empty seen-set in O(1) by bumping the
// generation stamp. On the (rare) uint32 wraparound the stamps are
// cleared so stale marks from 2^32 builds ago cannot alias.
func (b *Builder) nextGen() {
	b.gen++
	if b.gen == 0 {
		for i := range b.seen {
			b.seen[i] = 0
		}
		b.gen = 1
	}
}

// mark adds id to the current generation's membership, growing the dense
// table on first sight of a high id. FileIDs are interned densely in
// first-use order, so the table tops out at the trace's distinct-file
// count.
func (b *Builder) mark(id trace.FileID) {
	if int(id) >= len(b.seen) {
		b.seen = trace.GrowDense(b.seen, id)
	}
	b.seen[id] = b.gen
}

// marked reports membership in the group being built.
func (b *Builder) marked(id trace.FileID) bool {
	return int(id) < len(b.seen) && b.seen[id] == b.gen
}

// extendChain follows most-likely successors from the group's last member
// as far as possible; when the chain revisits a member or runs out of
// metadata it scans earlier members' remaining ranked successors for a
// fresh continuation point. The group under construction is dst[start:],
// capped at n members.
func (b *Builder) extendChain(dst []trace.FileID, start, n int) []trace.FileID {
	cur := dst[len(dst)-1]
	for len(dst)-start < n {
		next, ok := b.chainNext(cur)
		if !ok {
			next, ok = b.fallback(dst[start:])
			if !ok {
				break
			}
		}
		dst = append(dst, next)
		b.mark(next)
		cur = next
	}
	return dst
}

// successors reads id's ranked successors that pass the link cut into the
// scratch buffer.
func (b *Builder) successors(id trace.FileID) []trace.FileID {
	b.succ = b.tracker.AppendLikely(b.succ[:0], id, b.share)
	return b.succ
}

// chainNext picks the best-ranked unseen successor of cur.
func (b *Builder) chainNext(cur trace.FileID) (trace.FileID, bool) {
	for _, s := range b.successors(cur) {
		if !b.marked(s) {
			return s, true
		}
	}
	return 0, false
}

// fallback finds the first unseen successor of any existing member, in
// member order, so stalled chains restart from the most confirmed context.
func (b *Builder) fallback(group []trace.FileID) (trace.FileID, bool) {
	for _, m := range group {
		for _, s := range b.successors(m) {
			if !b.marked(s) {
				return s, true
			}
		}
	}
	return 0, false
}

// extendBreadth performs a BFS over ranked successors, capped at n
// members. Every member joins the queue as it joins the group, so the
// queue starts as the group dst[start:].
func (b *Builder) extendBreadth(dst []trace.FileID, start, n int) []trace.FileID {
	b.queue = append(b.queue[:0], dst[start:]...)
	for qi := 0; qi < len(b.queue) && len(dst)-start < n; qi++ {
		for _, s := range b.successors(b.queue[qi]) {
			if b.marked(s) {
				continue
			}
			dst = append(dst, s)
			b.mark(s)
			b.queue = append(b.queue, s)
			if len(dst)-start >= n {
				break
			}
		}
	}
	return dst
}
