package cache

import "aggcache/internal/trace"

// LFU is a least-frequently-used cache with O(1) operations, implemented
// with a doubly linked list of frequency buckets, each holding an LRU list
// of entries at that frequency. Ties at the minimum frequency are broken in
// LRU order, which is the strongest common variant and the fairest baseline
// for Figure 4.
//
// Frequencies are counted only while a file is resident (no ghost history);
// this matches the paper's description of a "basic" LFU server cache.
type LFU struct {
	capacity int
	nodes    map[trace.FileID]*lfuNode
	freqHead *freqBucket // lowest frequency
	// freeNodes and freeBuckets recycle evicted nodes and emptied buckets
	// (linked through next), so a full cache misses with no allocation.
	// Neither list outgrows the high-water mark of its kind in use, and
	// there are never more than capacity of either.
	freeNodes   *lfuNode
	freeBuckets *freqBucket
	stats       Stats
}

var _ Cache = (*LFU)(nil)

type freqBucket struct {
	freq       uint64
	head, tail *lfuNode // head is most recent within the bucket
	prev, next *freqBucket
}

type lfuNode struct {
	id         trace.FileID
	bucket     *freqBucket
	prev, next *lfuNode
}

// NewLFU returns an LFU cache holding up to capacity files.
func NewLFU(capacity int) (*LFU, error) {
	if err := checkCapacity(capacity); err != nil {
		return nil, err
	}
	return &LFU{
		capacity: capacity,
		nodes:    make(map[trace.FileID]*lfuNode, capacity),
	}, nil
}

// Access records a demand reference: a hit promotes id to the next
// frequency bucket, a miss inserts it at frequency 1, evicting the least
// frequent (LRU-within-bucket) victim if full.
func (c *LFU) Access(id trace.FileID) bool {
	if n, ok := c.nodes[id]; ok {
		c.stats.Hits++
		c.promote(n)
		return true
	}
	c.stats.Misses++
	if len(c.nodes) >= c.capacity {
		c.evict()
	}
	c.insert(id)
	return false
}

// Contains reports residency without perturbing state.
func (c *LFU) Contains(id trace.FileID) bool {
	_, ok := c.nodes[id]
	return ok
}

// Frequency returns the resident frequency count of id, or 0 if absent.
func (c *LFU) Frequency(id trace.FileID) uint64 {
	if n, ok := c.nodes[id]; ok {
		return n.bucket.freq
	}
	return 0
}

// Len returns the number of resident files.
func (c *LFU) Len() int { return len(c.nodes) }

// Cap returns the capacity in files.
func (c *LFU) Cap() int { return c.capacity }

// Stats returns a copy of the demand statistics.
func (c *LFU) Stats() Stats { return c.stats }

// Victim returns the id that would be evicted next, or false if empty.
func (c *LFU) Victim() (trace.FileID, bool) {
	if c.freqHead == nil {
		return 0, false
	}
	return c.freqHead.tail.id, true
}

func (c *LFU) insert(id trace.FileID) {
	b := c.freqHead
	if b == nil || b.freq != 1 {
		nb := c.newBucket(freqBucket{freq: 1, next: b})
		if b != nil {
			b.prev = nb
		}
		c.freqHead = nb
		b = nb
	}
	n := c.newNode(id)
	c.nodes[id] = n
	bucketPushHead(b, n)
	n.bucket = b
}

// promote moves n from its bucket to the freq+1 bucket.
func (c *LFU) promote(n *lfuNode) {
	b := n.bucket
	next := b.next
	if next == nil || next.freq != b.freq+1 {
		nb := c.newBucket(freqBucket{freq: b.freq + 1, prev: b, next: next})
		if next != nil {
			next.prev = nb
		}
		b.next = nb
		next = nb
	}
	c.bucketRemove(b, n)
	bucketPushHead(next, n)
	n.bucket = next
}

func (c *LFU) evict() {
	b := c.freqHead
	v := b.tail
	c.bucketRemove(b, v)
	delete(c.nodes, v.id)
	v.bucket, v.next = nil, c.freeNodes
	c.freeNodes = v
	c.stats.Evictions++
}

// newNode reuses a recycled node when one is available, like LRU.newNode.
func (c *LFU) newNode(id trace.FileID) *lfuNode {
	if n := c.freeNodes; n != nil {
		c.freeNodes = n.next
		*n = lfuNode{id: id}
		return n
	}
	return &lfuNode{id: id}
}

// newBucket places a bucket holding b in recycled storage when there is
// some.
func (c *LFU) newBucket(b freqBucket) *freqBucket {
	nb := c.freeBuckets
	if nb == nil {
		nb = new(freqBucket)
	} else {
		c.freeBuckets = nb.next
	}
	*nb = b
	return nb
}

// bucketRemove unlinks n from b, dropping b entirely if it empties.
func (c *LFU) bucketRemove(b *freqBucket, n *lfuNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		b.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		b.tail = n.prev
	}
	n.prev, n.next = nil, nil
	if b.head == nil {
		// Unlink the empty bucket.
		if b.prev != nil {
			b.prev.next = b.next
		} else {
			c.freqHead = b.next
		}
		if b.next != nil {
			b.next.prev = b.prev
		}
		*b = freqBucket{next: c.freeBuckets}
		c.freeBuckets = b
	}
}

func bucketPushHead(b *freqBucket, n *lfuNode) {
	n.next = b.head
	n.prev = nil
	if b.head != nil {
		b.head.prev = n
	}
	b.head = n
	if b.tail == nil {
		b.tail = n
	}
}
