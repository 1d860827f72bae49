package cache

import (
	"container/list"

	"aggcache/internal/trace"
)

// arcRef is the map-and-container/list ARC the published bake-off numbers
// came from, kept verbatim (renamed) as the behaviour contract that
// TestARCMatchesReference and FuzzARC hold ARC to.
type arcRef struct {
	capacity int
	p        int // target size of t1

	t1, t2, b1, b2 *list.List // MRU at Front
	where          map[trace.FileID]arcLoc
	elems          map[trace.FileID]*list.Element
	stats          Stats
}

var _ Cache = (*arcRef)(nil)

type arcLoc uint8

const (
	inT1 arcLoc = iota + 1
	inT2
	inB1
	inB2
)

// newARCRef returns an ARC cache holding up to capacity files.
func newARCRef(capacity int) (*arcRef, error) {
	if err := checkCapacity(capacity); err != nil {
		return nil, err
	}
	return &arcRef{
		capacity: capacity,
		t1:       list.New(),
		t2:       list.New(),
		b1:       list.New(),
		b2:       list.New(),
		where:    make(map[trace.FileID]arcLoc, 2*capacity),
		elems:    make(map[trace.FileID]*list.Element, 2*capacity),
	}, nil
}

// Access records a demand reference per the ARC algorithm.
func (c *arcRef) Access(id trace.FileID) bool {
	switch c.where[id] {
	case inT1, inT2:
		// Case I: hit — promote to MRU of T2.
		c.stats.Hits++
		c.remove(id)
		c.pushFront(c.t2, id, inT2)
		return true

	case inB1:
		// Case II: ghost hit in B1 — favour recency.
		c.stats.Misses++
		c.p = minInt(c.capacity, c.p+maxInt(1, c.b2.Len()/maxInt(1, c.b1.Len())))
		c.replace(false)
		c.remove(id)
		c.pushFront(c.t2, id, inT2)
		return false

	case inB2:
		// Case III: ghost hit in B2 — favour frequency.
		c.stats.Misses++
		c.p = maxInt(0, c.p-maxInt(1, c.b1.Len()/maxInt(1, c.b2.Len())))
		c.replace(true)
		c.remove(id)
		c.pushFront(c.t2, id, inT2)
		return false
	}

	// Case IV: complete miss.
	c.stats.Misses++
	switch {
	case c.t1.Len()+c.b1.Len() == c.capacity:
		if c.t1.Len() < c.capacity {
			c.dropLRU(c.b1)
			c.replace(false)
		} else {
			// B1 is empty and T1 full: evict T1's LRU outright.
			c.evictLRU(c.t1)
		}
	case c.t1.Len()+c.b1.Len() < c.capacity:
		total := c.t1.Len() + c.t2.Len() + c.b1.Len() + c.b2.Len()
		if total >= c.capacity {
			if total == 2*c.capacity {
				c.dropLRU(c.b2)
			}
			c.replace(false)
		}
	}
	c.pushFront(c.t1, id, inT1)
	return false
}

// Contains reports residency (T1 or T2) without perturbing state.
func (c *arcRef) Contains(id trace.FileID) bool {
	loc := c.where[id]
	return loc == inT1 || loc == inT2
}

// Len returns the number of resident files.
func (c *arcRef) Len() int { return c.t1.Len() + c.t2.Len() }

// Cap returns the capacity in files.
func (c *arcRef) Cap() int { return c.capacity }

// Stats returns a copy of the demand statistics.
func (c *arcRef) Stats() Stats { return c.stats }

// TargetRecency returns p, ARC's learned target size for the recency
// list — observable for tests and ablation reports.
func (c *arcRef) TargetRecency() int { return c.p }

// replace demotes a resident to its ghost list per the ARC REPLACE rule.
func (c *arcRef) replace(ghostHitInB2 bool) {
	if c.t1.Len() >= 1 && (c.t1.Len() > c.p || (ghostHitInB2 && c.t1.Len() == c.p)) {
		id := c.t1.Back().Value.(trace.FileID)
		c.remove(id)
		c.pushFront(c.b1, id, inB1)
		c.stats.Evictions++
	} else if c.t2.Len() > 0 {
		id := c.t2.Back().Value.(trace.FileID)
		c.remove(id)
		c.pushFront(c.b2, id, inB2)
		c.stats.Evictions++
	}
}

func (c *arcRef) pushFront(l *list.List, id trace.FileID, loc arcLoc) {
	c.elems[id] = l.PushFront(id)
	c.where[id] = loc
}

// remove unlinks id from whichever list holds it.
func (c *arcRef) remove(id trace.FileID) {
	if e, ok := c.elems[id]; ok {
		switch c.where[id] {
		case inT1:
			c.t1.Remove(e)
		case inT2:
			c.t2.Remove(e)
		case inB1:
			c.b1.Remove(e)
		case inB2:
			c.b2.Remove(e)
		}
		delete(c.elems, id)
		delete(c.where, id)
	}
}

// dropLRU forgets the LRU entry of a ghost list.
func (c *arcRef) dropLRU(l *list.List) {
	if back := l.Back(); back != nil {
		c.remove(back.Value.(trace.FileID))
	}
}

// evictLRU evicts the LRU resident of l without ghost tracking.
func (c *arcRef) evictLRU(l *list.List) {
	if back := l.Back(); back != nil {
		c.remove(back.Value.(trace.FileID))
		c.stats.Evictions++
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
