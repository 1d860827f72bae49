package cache

import "aggcache/internal/trace"

// GroupLRU is the paper's group placement rule (§3) over an LRU list, and
// the only code that knows it: the demanded file goes to the MRU head, the
// rest of a fetched group to the LRU tail so unconfirmed successors never
// outrank confirmed residents, making room never evicts the incoming
// group's own files (§2's raised retention priority of soon-to-be-accessed
// members), and a member is speculative until its first demand. The
// simulator (core), the live client (fsnet) and the prefetching comparator
// (prefetch) all install through it. Not safe for concurrent use.
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
// head; speculative reports that it arrived as a non-demanded group member
// and this is its first demand (the flag is cleared). On a miss nothing
// changes: the caller fetches a group and calls Install.
func (g *GroupLRU) Demand(id trace.FileID) (hit, speculative bool) {
	l := g.lru
	i := l.slot.lookup(id)
	if i == none {
		return false, false
	}
	n := &l.nodes[i]
	speculative, n.speculative = n.speculative, false
	l.moveToHead(i)
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
	l := g.lru
	if i := l.slot.lookup(group[0]); i != none {
		l.nodes[i].speculative = false
		l.moveToHead(i)
	} else {
		for l.size >= l.capacity {
			if _, ok := l.evictVictimExceptIDs(group); ok {
				continue
			}
			if _, ok := l.evictVictim(); !ok {
				break
			}
		}
		l.insertHead(group[0])
	}
	for _, m := range group[1:] {
		if l.Contains(m) {
			continue
		}
		if l.size >= l.capacity {
			if _, ok := l.evictVictimExceptIDs(group); !ok {
				break
			}
		}
		var i int32
		if head {
			i = l.insertHead(m)
		} else {
			i = l.insertTail(m)
		}
		l.nodes[i].speculative = true
		admitted++
	}
	return admitted
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
