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
//
// Residency is dense, as in LRU: slot finds a file's node, and nodes and
// buckets are slabs linked by int32 indices.
type LFU struct {
	capacity int
	slot     slots
	nodes    []lfuNode
	buckets  []freqBucket
	freqHead int32 // lowest-frequency bucket, or none
	// freeNodes and freeBuckets recycle evicted nodes and emptied buckets
	// (linked through next), so a full cache misses with no allocation.
	// Each slab is as long as the most of its kind ever in use at once,
	// which is never more than capacity: a bucket in use holds a node, and
	// promote makes a bucket only when the node's old one keeps another.
	freeNodes   int32
	freeBuckets int32
	size        int
	stats       Stats
}

var _ Cache = (*LFU)(nil)

type freqBucket struct {
	freq       uint64
	head, tail int32 // nodes; head is most recent within the bucket
	prev, next int32 // buckets
}

type lfuNode struct {
	id         trace.FileID
	bucket     int32
	prev, next int32
}

// NewLFU returns an LFU cache holding up to capacity files.
func NewLFU(capacity int) (*LFU, error) {
	if err := checkCapacity(capacity); err != nil {
		return nil, err
	}
	return &LFU{capacity: capacity, freqHead: none, freeNodes: none, freeBuckets: none}, nil
}

// Access records a demand reference: a hit promotes id to the next
// frequency bucket, a miss inserts it at frequency 1, evicting the least
// frequent (LRU-within-bucket) victim if full.
func (c *LFU) Access(id trace.FileID) bool {
	if i := c.slot.lookup(id); i != none {
		c.stats.Hits++
		c.promote(i)
		return true
	}
	c.stats.Misses++
	if c.size >= c.capacity {
		c.evict()
	}
	c.insert(id)
	return false
}

// Contains reports residency without perturbing state.
func (c *LFU) Contains(id trace.FileID) bool { return c.slot.lookup(id) != none }

// Frequency returns the resident frequency count of id, or 0 if absent.
func (c *LFU) Frequency(id trace.FileID) uint64 {
	if i := c.slot.lookup(id); i != none {
		return c.buckets[c.nodes[i].bucket].freq
	}
	return 0
}

// Len returns the number of resident files.
func (c *LFU) Len() int { return c.size }

// Cap returns the capacity in files.
func (c *LFU) Cap() int { return c.capacity }

// Stats returns a copy of the demand statistics.
func (c *LFU) Stats() Stats { return c.stats }

// Victim returns the id that would be evicted next, or false if empty.
func (c *LFU) Victim() (trace.FileID, bool) {
	if c.freqHead == none {
		return 0, false
	}
	return c.nodes[c.buckets[c.freqHead].tail].id, true
}

func (c *LFU) insert(id trace.FileID) {
	b := c.freqHead
	if b == none || c.buckets[b].freq != 1 {
		nb := c.newBucket(freqBucket{freq: 1, prev: none, next: b})
		if b != none {
			c.buckets[b].prev = nb
		}
		c.freqHead = nb
		b = nb
	}
	i := c.freeNodes
	if i != none {
		c.freeNodes = c.nodes[i].next
		c.nodes[i] = lfuNode{id: id}
	} else {
		i = int32(len(c.nodes))
		c.nodes = appendSlab(c.nodes, lfuNode{id: id}, c.capacity)
	}
	c.slot.set(id, i)
	c.size++
	c.pushHead(b, i)
}

// promote moves node i from its bucket to the freq+1 bucket. A node alone
// in its bucket with no freq+1 bucket after it keeps the bucket, which
// takes the new frequency: the same order as moving it, without the churn.
func (c *LFU) promote(i int32) {
	b := c.nodes[i].bucket
	bk := c.buckets[b]
	if bk.next != none && c.buckets[bk.next].freq == bk.freq+1 {
		c.bucketRemove(b, i)
		c.pushHead(bk.next, i)
		return
	}
	if bk.head == bk.tail {
		c.buckets[b].freq++
		return
	}
	nb := c.newBucket(freqBucket{freq: bk.freq + 1, prev: b, next: bk.next})
	if bk.next != none {
		c.buckets[bk.next].prev = nb
	}
	c.buckets[b].next = nb
	c.bucketRemove(b, i)
	c.pushHead(nb, i)
}

func (c *LFU) evict() {
	b := c.freqHead
	v := c.buckets[b].tail
	c.bucketRemove(b, v)
	c.slot[c.nodes[v].id] = 0
	c.nodes[v].next = c.freeNodes
	c.freeNodes = v
	c.size--
	c.stats.Evictions++
}

// newBucket places b in a recycled bucket when there is one and returns its
// index; b's head and tail are set to none.
func (c *LFU) newBucket(b freqBucket) int32 {
	b.head, b.tail = none, none
	i := c.freeBuckets
	if i == none {
		c.buckets = appendSlab(c.buckets, b, c.capacity)
		return int32(len(c.buckets) - 1)
	}
	c.freeBuckets = c.buckets[i].next
	c.buckets[i] = b
	return i
}

// bucketRemove unlinks node i from bucket b, dropping b entirely if it
// empties.
func (c *LFU) bucketRemove(b, i int32) {
	n, bk := &c.nodes[i], &c.buckets[b]
	if n.prev == none {
		bk.head = n.next
	} else {
		c.nodes[n.prev].next = n.next
	}
	if n.next == none {
		bk.tail = n.prev
	} else {
		c.nodes[n.next].prev = n.prev
	}
	if bk.head != none {
		return
	}
	if bk.prev == none {
		c.freqHead = bk.next
	} else {
		c.buckets[bk.prev].next = bk.next
	}
	if bk.next != none {
		c.buckets[bk.next].prev = bk.prev
	}
	bk.next = c.freeBuckets
	c.freeBuckets = b
}

// pushHead makes node i the most recent entry of bucket b.
func (c *LFU) pushHead(b, i int32) {
	n, bk := &c.nodes[i], &c.buckets[b]
	n.bucket, n.prev, n.next = b, none, bk.head
	if bk.head == none {
		bk.tail = i
	} else {
		c.nodes[bk.head].prev = i
	}
	bk.head = i
}
