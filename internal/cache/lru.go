package cache

import "aggcache/internal/trace"

// LRU is a least-recently-used cache. Exported, it is the plain baseline
// of the Cache interface; its explicit placement operations (head and tail
// insertion, protected eviction, the eviction hook) are package-private and
// compose into the paper's group placement rule in one place, GroupLRU.
//
// Residency is dense (DESIGN.md §9): slot finds a file's node in the nodes
// slab, and the list is linked by int32 indices. Neither holds a pointer,
// so the collector never scans them and relinking needs no write barrier.
type LRU struct {
	capacity int
	slot     slots
	// nodes grows by append up to capacity; evicted nodes are recycled
	// through free, so a full cache churns with no allocation.
	nodes []lruNode
	links       // the recency list
	free  int32 // recycled nodes, linked through next, or none
	size  int
	// probation is GroupLRU's second list (Stage): a node flagged
	// probation is linked there instead of in the recency list. size
	// counts both lists; probLen counts probation alone.
	probation links
	probLen   int
	// onEvict, when set, sees every capacity eviction (not remove).
	onEvict func(id trace.FileID, speculative bool)
	stats   Stats
}

var _ Cache = (*LRU)(nil)

// links is a list of slab nodes linked through prev and next.
type links struct {
	head int32 // most recently used, or none
	tail int32 // least recently used, or none
}

type lruNode struct {
	id         trace.FileID
	prev, next int32
	// speculative marks a GroupLRU member not demanded since it arrived.
	speculative bool
	// probation marks a node linked on the probation list.
	probation bool
}

// NewLRU returns an LRU cache holding up to capacity files.
func NewLRU(capacity int) (*LRU, error) {
	if err := checkCapacity(capacity); err != nil {
		return nil, err
	}
	return &LRU{capacity: capacity, links: links{none, none}, probation: links{none, none}, free: none}, nil
}

// Access records a demand reference: a hit moves id to the head, a miss
// inserts it at the head, evicting the tail if full.
func (c *LRU) Access(id trace.FileID) bool {
	if i := c.slot.lookup(id); i != none {
		c.stats.Hits++
		c.moveToHead(i)
		return true
	}
	c.stats.Misses++
	c.pushHead(c.add(id))
	return false
}

// Contains reports residency without touching recency or stats.
func (c *LRU) Contains(id trace.FileID) bool { return c.slot.lookup(id) != none }

// touch moves a resident id to the head without counting a demand access.
// It reports whether id was resident.
func (c *LRU) touch(id trace.FileID) bool {
	i := c.slot.lookup(id)
	if i != none {
		c.moveToHead(i)
	}
	return i != none
}

// insertHead places id at the most-recently-used position, evicting from
// the tail if needed, and returns its node. A resident id is moved, not
// duplicated.
func (c *LRU) insertHead(id trace.FileID) int32 {
	if i := c.slot.lookup(id); i != none {
		c.moveToHead(i)
		return i
	}
	i := c.add(id)
	c.pushHead(i)
	return i
}

// insertTail places id at the least-recently-used position — the paper's
// placement for opportunistically fetched group members — and returns its
// node. A resident id is left where it is (it already earned its
// position). Inserting into a full cache evicts the current tail first, so
// the newcomer never displaces more than one resident and becomes the next
// victim itself.
func (c *LRU) insertTail(id trace.FileID) int32 {
	if i := c.slot.lookup(id); i != none {
		return i
	}
	i := c.add(id)
	n := &c.nodes[i]
	n.prev, n.next = c.tail, none
	if c.tail == none {
		c.head = i
	} else {
		c.nodes[c.tail].next = i
	}
	c.tail = i
	return i
}

// remove drops id from the cache, reporting whether it was resident.
// The removal is not counted as an eviction.
func (c *LRU) remove(id trace.FileID) bool {
	i := c.slot.lookup(id)
	if i == none {
		return false
	}
	c.drop(i)
	return true
}

// Len returns the number of resident files.
func (c *LRU) Len() int { return c.size }

// Cap returns the capacity in files.
func (c *LRU) Cap() int { return c.capacity }

// Stats returns a copy of the demand statistics.
func (c *LRU) Stats() Stats { return c.stats }

// victim returns the id that would be evicted next, or false if empty.
func (c *LRU) victim() (trace.FileID, bool) {
	if c.tail == none {
		return 0, false
	}
	return c.nodes[c.tail].id, true
}

// evictOldestExcept evicts the least recently used node of l whose id is
// not in protected, reporting which id was dropped, or false when every
// node of l is protected (a nil protected set protects nothing). The
// protected set is a small fetch group: membership is a linear scan, which
// for the paper's g of a handful beats building a map on every miss; the
// slice is read-only and never retained.
func (c *LRU) evictOldestExcept(l *links, protected []trace.FileID) (trace.FileID, bool) {
	for i := l.tail; i != none; i = c.nodes[i].prev {
		if !containsID(protected, c.nodes[i].id) {
			return c.evict(i), true
		}
	}
	return 0, false
}

func containsID(ids []trace.FileID, id trace.FileID) bool {
	for _, p := range ids {
		if p == id {
			return true
		}
	}
	return false
}

// evict removes node i for capacity and fires the hook.
func (c *LRU) evict(i int32) trace.FileID {
	n := c.nodes[i]
	c.drop(i)
	c.stats.Evictions++
	if c.onEvict != nil {
		c.onEvict(n.id, n.speculative)
	}
	return n.id
}

// resident returns the ids on the recency list from most to least
// recently used (a GroupLRU's probation files are not on it).
func (c *LRU) resident() []trace.FileID {
	out := make([]trace.FileID, 0, c.size)
	for i := c.head; i != none; i = c.nodes[i].next {
		out = append(out, c.nodes[i].id)
	}
	return out
}

// add makes room for the non-resident id and gives it an unlinked node,
// recycled when one is free: in steady state (every insertion paired with
// an eviction) the slab allocates nothing.
func (c *LRU) add(id trace.FileID) int32 {
	for c.size >= c.capacity {
		c.evict(c.tail)
	}
	i := c.free
	if i != none {
		c.free = c.nodes[i].next
		c.nodes[i] = lruNode{id: id}
	} else {
		i = int32(len(c.nodes))
		c.nodes = appendSlab(c.nodes, lruNode{id: id}, c.capacity)
	}
	c.slot.set(id, i)
	c.size++
	return i
}

// drop unlinks node i from its list, marks its file not resident and
// recycles it.
func (c *LRU) drop(i int32) {
	if c.nodes[i].probation {
		c.unlinkFrom(&c.probation, i)
		c.probLen--
	} else {
		c.unlink(i)
	}
	c.slot[c.nodes[i].id] = 0
	c.nodes[i].next = c.free
	c.free = i
	c.size--
}

func (c *LRU) pushHead(i int32) { c.linkHead(&c.links, i) }

func (c *LRU) moveToHead(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushHead(i)
}

func (c *LRU) unlink(i int32) { c.unlinkFrom(&c.links, i) }

// linkHead links the unlinked node i at l's head.
func (c *LRU) linkHead(l *links, i int32) {
	n := &c.nodes[i]
	n.prev, n.next = none, l.head
	if l.head == none {
		l.tail = i
	} else {
		c.nodes[l.head].prev = i
	}
	l.head = i
}

// linkAfter links the unlinked node i into l right behind node at.
func (c *LRU) linkAfter(l *links, at, i int32) {
	n := &c.nodes[i]
	n.prev, n.next = at, c.nodes[at].next
	if n.next == none {
		l.tail = i
	} else {
		c.nodes[n.next].prev = i
	}
	c.nodes[at].next = i
}

func (c *LRU) unlinkFrom(l *links, i int32) {
	n := &c.nodes[i]
	if n.prev == none {
		l.head = n.next
	} else {
		c.nodes[n.prev].next = n.next
	}
	if n.next == none {
		l.tail = n.prev
	} else {
		c.nodes[n.next].prev = n.prev
	}
}
