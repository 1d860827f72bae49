package cache

import (
	"math/rand"
	"testing"

	"aggcache/internal/trace"
)

// TestDenseResidencyBounds pins the memory bound DESIGN.md §9 states:
// after 100 000 distinct ids, in random order, through a capacity-c cache,
// no slab has room for more than c entries and the slot table is at most
// 1.5 x (largest id + 1) + 1 long.
func TestDenseResidencyBounds(t *testing.T) {
	const distinct = 100_000
	ids := make([]trace.FileID, distinct)
	for k, id := range rand.New(rand.NewSource(1)).Perm(distinct) {
		ids[k] = trace.FileID(id)
	}
	slotLimit := int(1.5*distinct) + 1
	for _, c := range []int{1, 7, 300} {
		lru, _ := NewLRU(c)
		g, _ := NewGroupLRU(c)
		lfu, _ := NewLFU(c)
		for k, id := range ids {
			lru.Access(id)
			g.Install(ids[k:min(k+5, distinct)], k%3 == 0)
			lfu.Access(id)
			lfu.Access(ids[k/2])
		}
		for _, s := range []struct {
			name       string
			slot, slab int
		}{
			{"LRU nodes", len(lru.slot), cap(lru.nodes)},
			{"GroupLRU nodes", len(g.lru.slot), cap(g.lru.nodes)},
			{"LFU nodes", len(lfu.slot), cap(lfu.nodes)},
			{"LFU buckets", len(lfu.slot), cap(lfu.buckets)},
		} {
			if s.slab > c {
				t.Errorf("capacity %d: %s slab has room for %d entries, want <= %d", c, s.name, s.slab, c)
			}
			if s.slot > slotLimit {
				t.Errorf("capacity %d: %s slot table is %d long, want <= %d", c, s.name, s.slot, slotLimit)
			}
		}
	}
}
