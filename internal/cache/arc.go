package cache

import "aggcache/internal/trace"

// ARC is the Adaptive Replacement Cache of Megiddo & Modha (FAST 2003), a
// later landmark answer to the same recency-vs-frequency tension the
// paper's §2.2 discusses. It splits residents between a recency list (T1)
// and a frequency list (T2), keeps ghost histories of evictions from each
// (B1, B2), and continuously tunes the target size p of T1 from which
// ghost list is getting hits. Included as an ablation baseline.
//
// The four lists are the package's dense LRUs (DESIGN.md §9), MRU at the
// head, so a file is found by slot lookups and an access allocates nothing
// once the slabs are full. ARC's own bounds keep |T1|+|B1| <= c,
// |T1|+|T2| <= c and all four together <= 2c, so no list is full when it
// is inserted into and none ever evicts by itself.
type ARC struct {
	capacity int
	p        int // target size of t1

	t1, t2, b1 *LRU // capacity c each
	b2         *LRU // capacity 2c
	stats      Stats
}

var _ Cache = (*ARC)(nil)

// NewARC returns an ARC cache holding up to capacity files.
func NewARC(capacity int) (*ARC, error) {
	if err := checkCapacity(capacity); err != nil {
		return nil, err
	}
	t1, _ := NewLRU(capacity)
	t2, _ := NewLRU(capacity)
	b1, _ := NewLRU(capacity)
	b2, _ := NewLRU(2 * capacity)
	return &ARC{capacity: capacity, t1: t1, t2: t2, b1: b1, b2: b2}, nil
}

// Access records a demand reference per the ARC algorithm.
func (c *ARC) Access(id trace.FileID) bool {
	switch {
	case c.t2.touch(id):
		// Case I: hit in T2 — move to its MRU.
		c.stats.Hits++
		return true

	case c.t1.remove(id):
		// Case I: hit in T1 — promote to MRU of T2.
		c.stats.Hits++
		c.t2.insertHead(id)
		return true

	case c.b1.Contains(id):
		// Case II: ghost hit in B1 — favour recency.
		c.stats.Misses++
		c.p = min(c.capacity, c.p+max(1, c.b2.Len()/max(1, c.b1.Len())))
		c.replace(false)
		c.b1.remove(id)
		c.t2.insertHead(id)
		return false

	case c.b2.Contains(id):
		// Case III: ghost hit in B2 — favour frequency.
		c.stats.Misses++
		c.p = max(0, c.p-max(1, c.b1.Len()/max(1, c.b2.Len())))
		c.replace(true)
		c.b2.remove(id)
		c.t2.insertHead(id)
		return false
	}

	// Case IV: complete miss.
	c.stats.Misses++
	switch l1 := c.t1.Len() + c.b1.Len(); {
	case l1 == c.capacity:
		if c.t1.Len() < c.capacity {
			dropLRU(c.b1)
			c.replace(false)
		} else if _, ok := dropLRU(c.t1); ok {
			// B1 is empty and T1 full: evict T1's LRU outright.
			c.stats.Evictions++
		}
	case l1 < c.capacity:
		total := l1 + c.t2.Len() + c.b2.Len()
		if total >= c.capacity {
			if total == 2*c.capacity {
				dropLRU(c.b2)
			}
			c.replace(false)
		}
	}
	c.t1.insertHead(id)
	return false
}

// Contains reports residency (T1 or T2) without perturbing state.
func (c *ARC) Contains(id trace.FileID) bool { return c.t1.Contains(id) || c.t2.Contains(id) }

// Len returns the number of resident files.
func (c *ARC) Len() int { return c.t1.Len() + c.t2.Len() }

// Cap returns the capacity in files.
func (c *ARC) Cap() int { return c.capacity }

// Stats returns a copy of the demand statistics.
func (c *ARC) Stats() Stats { return c.stats }

// TargetRecency returns p, ARC's learned target size for the recency
// list — observable for tests and ablation reports.
func (c *ARC) TargetRecency() int { return c.p }

// replace demotes a resident to its ghost list per the ARC REPLACE rule.
func (c *ARC) replace(ghostHitInB2 bool) {
	if n := c.t1.Len(); n >= 1 && (n > c.p || (ghostHitInB2 && n == c.p)) {
		id, _ := dropLRU(c.t1)
		c.b1.insertHead(id)
		c.stats.Evictions++
	} else if id, ok := dropLRU(c.t2); ok {
		c.b2.insertHead(id)
		c.stats.Evictions++
	}
}

// dropLRU removes l's least recently used entry, reporting which id it was,
// or false when l is empty.
func dropLRU(l *LRU) (trace.FileID, bool) {
	id, ok := l.victim()
	if ok {
		l.remove(id)
	}
	return id, ok
}
