package cache

import "aggcache/internal/trace"

// GroupLRU is the paper's group placement rule (§3) over an LRU list, and
// the only code that knows it: the demanded file goes to the MRU head, the
// rest of a fetched group to the LRU tail so unconfirmed successors never
// outrank confirmed residents, making room never evicts the incoming
// group's own files (§2's raised retention priority of soon-to-be-accessed
// members), and a member is speculative until its first demand. The
// simulator (core), the live client (fsnet) and the prefetching comparator
// (prefetch) all install through it.
//
// A server that stages groups deeper than it replies (Stage) keeps their
// members on a second, bounded list instead of the tail, where the next
// staging would evict them first: a probation list, as in segmented LRU.
// Install and Demand never put a file there. Not safe for concurrent use.
type GroupLRU struct {
	lru *LRU
}

// NewGroupLRU returns an empty set holding up to capacity files.
func NewGroupLRU(capacity int) (*GroupLRU, error) {
	lru, err := NewLRU(capacity)
	if err != nil {
		return nil, err
	}
	return &GroupLRU{lru: lru}, nil
}

// Demand records a demand reference to id. A resident id moves to the
// head, off the probation list if it was on it; speculative reports that
// it arrived as a non-demanded group member and this is its first demand
// (the flag is cleared). On a miss nothing changes: the caller fetches a
// group and calls Install or Stage.
func (g *GroupLRU) Demand(id trace.FileID) (hit, speculative bool) {
	l := g.lru
	i := l.slot.lookup(id)
	if i == none {
		return false, false
	}
	n := &l.nodes[i]
	speculative, n.speculative = n.speculative, false
	if n.probation {
		g.promote(i)
	} else {
		l.moveToHead(i)
	}
	return true, speculative
}

// Install places a fetched group: group[0], the demanded file, at the
// head, and every non-resident member behind it — at the tail, or at the
// head when head is set (the aggressive variant the paper argues against).
// Resident members keep the position they earned. Room is made only for
// files that are not resident, and never by evicting a file of the group,
// with one exception: the demanded file always enters, so when everything
// resident belongs to the group (tiny caches) the plain LRU victim goes.
// Members are taken in rank order; once no unprotected victim remains the
// least likely ones are dropped. It returns how many members were
// admitted. The group is read-only and not retained.
func (g *GroupLRU) Install(group []trace.FileID, head bool) (admitted int) {
	// Install leaves the probation list to the bound Stage keeps: it is
	// evicted only when the recency list has no victim left.
	return g.place(group, head, false, g.lru.capacity)
}

// Stage places a group a server stages ahead of demand. The demanded
// file, group[0], is placed as Install places it; every non-resident
// member enters the head of the probation list, the members in reverse
// rank order so the first successor is the most recent. Resident members
// stay where they are. Room is made, for the demanded file and the
// members alike, from the probation list's oldest file while that list
// holds probation files or more, and otherwise from the recency list's
// tail; never from the group itself, so as in Install the least likely
// members are dropped once only the group is left. A Demand moves a
// probation file to the head as a speculative hit; one evicted first was
// never demanded. It returns how many members were admitted. The group
// is read-only and not retained.
func (g *GroupLRU) Stage(group []trace.FileID, probation int) (admitted int) {
	return g.place(group, false, true, probation)
}

// StageMembers is Stage with no demanded file: every non-resident file of
// members enters the probation list as Stage's members do, and resident
// ones stay where they are. A ring node stages a peer's stage hint with it
// (core.AggregatingCache.StageHint).
func (g *GroupLRU) StageMembers(members []trace.FileID, probation int) (admitted int) {
	if len(members) == 0 {
		return 0
	}
	return g.placeMembers(members, members, false, true, probation)
}

// place is Install and Stage: the demanded file goes to the head of the
// recency list, members to its head or tail or, staged, onto the
// probation list behind the member admitted before them; room is made by
// evictOutside with bound.
func (g *GroupLRU) place(group []trace.FileID, head, staged bool, bound int) (admitted int) {
	g.placeDemanded(group, bound)
	return g.placeMembers(group, group[1:], head, staged, bound)
}

// placeDemanded places a group's demanded file, group[0], at the head of the
// recency list, as place does.
func (g *GroupLRU) placeDemanded(group []trace.FileID, bound int) {
	l := g.lru
	if i := l.slot.lookup(group[0]); i != none {
		n := &l.nodes[i]
		n.speculative = false
		if n.probation {
			g.promote(i)
		} else {
			l.moveToHead(i)
		}
	} else {
		// The demanded file always enters: when the group is all that
		// is resident, the least recent file goes.
		for l.size >= l.capacity && (g.evictOutside(group, bound) || g.evictOutside(nil, bound)) {
		}
		l.insertHead(group[0])
	}
}

// placeMembers places members, which belong to group: each non-resident
// one goes to the recency list's head or tail or, staged, onto the
// probation list behind the member admitted before it.
func (g *GroupLRU) placeMembers(group, members []trace.FileID, head, staged bool, bound int) (admitted int) {
	l := g.lru
	prev := none // the member staged last, behind which the next goes
	for _, m := range members {
		if l.Contains(m) {
			continue
		}
		if l.size >= l.capacity && !g.evictOutside(group, bound) {
			break
		}
		var i int32
		switch {
		case staged:
			i = l.add(m)
			if prev == none {
				l.linkHead(&l.probation, i)
			} else {
				l.linkAfter(&l.probation, prev, i)
			}
			l.nodes[i].probation = true
			l.probLen++
			prev = i
		case head:
			i = l.insertHead(m)
		default:
			i = l.insertTail(m)
		}
		l.nodes[i].speculative = true
		admitted++
	}
	return admitted
}

// evictOutside evicts one file that is not in group: the probation list's
// oldest while that list holds bound files or more, else the recency
// list's least recent, else the probation list's oldest. It reports false
// when every resident belongs to group.
func (g *GroupLRU) evictOutside(group []trace.FileID, bound int) bool {
	l := g.lru
	if l.probLen >= bound {
		if _, ok := l.evictOldestExcept(&l.probation, group); ok {
			return true
		}
	}
	if _, ok := l.evictOldestExcept(&l.links, group); ok {
		return true
	}
	_, ok := l.evictOldestExcept(&l.probation, group)
	return ok
}

// promote moves node i from the probation list to the head of the
// recency list.
func (g *GroupLRU) promote(i int32) {
	l := g.lru
	l.unlinkFrom(&l.probation, i)
	l.nodes[i].probation = false
	l.probLen--
	l.pushHead(i)
}

// OnEvict registers f to be called with each file evicted for capacity
// and whether it was still speculative — fetched but never demanded.
func (g *GroupLRU) OnEvict(f func(id trace.FileID, speculative bool)) { g.lru.onEvict = f }

// Contains reports residency without touching recency.
func (g *GroupLRU) Contains(id trace.FileID) bool { return g.lru.Contains(id) }

// Len returns the number of resident files.
func (g *GroupLRU) Len() int { return g.lru.size }

// Cap returns the capacity in files.
func (g *GroupLRU) Cap() int { return g.lru.capacity }

// Evictions returns the number of capacity evictions so far.
func (g *GroupLRU) Evictions() uint64 { return g.lru.stats.Evictions }
