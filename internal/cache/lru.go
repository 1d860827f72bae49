package cache

import "aggcache/internal/trace"

// LRU is a least-recently-used cache. Exported, it is the plain baseline
// of the Cache interface; its explicit placement operations (head and tail
// insertion, protected eviction, the eviction hook) are package-private and
// compose into the paper's group placement rule in one place, GroupLRU.
type LRU struct {
	capacity int
	nodes    map[trace.FileID]*lruNode
	head     *lruNode // most recently used
	tail     *lruNode // least recently used
	free     *lruNode // recycled nodes, so steady-state churn stays off the heap
	// onEvict, when set, sees every capacity eviction (not remove).
	onEvict func(id trace.FileID, speculative bool)
	stats   Stats
}

var _ Cache = (*LRU)(nil)

type lruNode struct {
	id         trace.FileID
	prev, next *lruNode
	// speculative marks a GroupLRU member not demanded since it arrived.
	speculative bool
}

// NewLRU returns an LRU cache holding up to capacity files.
func NewLRU(capacity int) (*LRU, error) {
	if err := checkCapacity(capacity); err != nil {
		return nil, err
	}
	return &LRU{
		capacity: capacity,
		nodes:    make(map[trace.FileID]*lruNode, capacity),
	}, nil
}

// Access records a demand reference: a hit moves id to the head, a miss
// inserts it at the head, evicting the tail if full.
func (c *LRU) Access(id trace.FileID) bool {
	if n, ok := c.nodes[id]; ok {
		c.stats.Hits++
		c.moveToHead(n)
		return true
	}
	c.stats.Misses++
	c.insertHead(id)
	return false
}

// Contains reports residency without touching recency or stats.
func (c *LRU) Contains(id trace.FileID) bool {
	_, ok := c.nodes[id]
	return ok
}

// touch moves a resident id to the head without counting a demand access.
// It reports whether id was resident.
func (c *LRU) touch(id trace.FileID) bool {
	n, ok := c.nodes[id]
	if ok {
		c.moveToHead(n)
	}
	return ok
}

// insertHead places id at the most-recently-used position, evicting from
// the tail if needed. A resident id is moved, not duplicated.
func (c *LRU) insertHead(id trace.FileID) *lruNode {
	if n, ok := c.nodes[id]; ok {
		c.moveToHead(n)
		return n
	}
	c.makeRoom()
	n := c.newNode(id)
	c.nodes[id] = n
	c.pushHead(n)
	return n
}

// insertTail places id at the least-recently-used position — the paper's
// placement for opportunistically fetched group members. A resident id is
// left where it is (it already earned its position). Inserting into a full
// cache evicts the current tail first, so the newcomer never displaces more
// than one resident and becomes the next victim itself.
func (c *LRU) insertTail(id trace.FileID) *lruNode {
	if n, ok := c.nodes[id]; ok {
		return n
	}
	c.makeRoom()
	n := c.newNode(id)
	c.nodes[id] = n
	if c.tail == nil {
		c.head, c.tail = n, n
		return n
	}
	n.prev = c.tail
	c.tail.next = n
	c.tail = n
	return n
}

// remove drops id from the cache, reporting whether it was resident.
// The removal is not counted as an eviction.
func (c *LRU) remove(id trace.FileID) bool {
	n, ok := c.nodes[id]
	if !ok {
		return false
	}
	c.unlink(n)
	delete(c.nodes, id)
	c.recycle(n)
	return true
}

// Len returns the number of resident files.
func (c *LRU) Len() int { return len(c.nodes) }

// Cap returns the capacity in files.
func (c *LRU) Cap() int { return c.capacity }

// Stats returns a copy of the demand statistics.
func (c *LRU) Stats() Stats { return c.stats }

// victim returns the id that would be evicted next, or false if empty.
func (c *LRU) victim() (trace.FileID, bool) {
	if c.tail == nil {
		return 0, false
	}
	return c.tail.id, true
}

// evictVictimExceptIDs evicts the least recently used entry whose id is
// not in protected, reporting which id was dropped, or false when every
// resident is protected. The protected set is a small fetch group:
// membership is a linear scan, which for the paper's g of a handful beats
// building a map on every miss; the slice is read-only and never retained.
func (c *LRU) evictVictimExceptIDs(protected []trace.FileID) (trace.FileID, bool) {
	for n := c.tail; n != nil; n = n.prev {
		if containsID(protected, n.id) {
			continue
		}
		return c.evict(n), true
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

// evict removes n for capacity, recycles it, and fires the hook.
func (c *LRU) evict(n *lruNode) trace.FileID {
	id, speculative := n.id, n.speculative
	c.unlink(n)
	delete(c.nodes, id)
	c.recycle(n)
	c.stats.Evictions++
	if c.onEvict != nil {
		c.onEvict(id, speculative)
	}
	return id
}

// evictVictim evicts the least recently used entry, reporting which id was
// dropped.
func (c *LRU) evictVictim() (trace.FileID, bool) {
	if c.tail == nil {
		return 0, false
	}
	return c.evict(c.tail), true
}

// resident returns the resident ids from most to least recently used.
func (c *LRU) resident() []trace.FileID {
	out := make([]trace.FileID, 0, len(c.nodes))
	for n := c.head; n != nil; n = n.next {
		out = append(out, n.id)
	}
	return out
}

func (c *LRU) makeRoom() {
	for len(c.nodes) >= c.capacity {
		c.evict(c.tail)
	}
}

// newNode reuses a recycled node when one is available; in steady state
// (every insertion paired with an eviction) the list allocates nothing.
func (c *LRU) newNode(id trace.FileID) *lruNode {
	if n := c.free; n != nil {
		c.free = n.next
		*n = lruNode{id: id}
		return n
	}
	return &lruNode{id: id}
}

// recycle pushes an unlinked node onto the free list. The list never
// exceeds the high-water mark of concurrent residents, so it cannot grow
// beyond capacity nodes.
func (c *LRU) recycle(n *lruNode) {
	n.prev = nil
	n.next = c.free
	c.free = n
}

func (c *LRU) pushHead(n *lruNode) {
	n.next = c.head
	n.prev = nil
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *LRU) moveToHead(n *lruNode) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushHead(n)
}

func (c *LRU) unlink(n *lruNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}
