package cache

import (
	"math/rand"
	"testing"

	"aggcache/internal/trace"
)

// TestDenseResidencyBounds pins the memory bound DESIGN.md §9 states:
// after 100 000 distinct ids, in random order, through a capacity-c cache,
// no slab has room for more than c entries (2c for ARC's B2) and every slot
// table is at most 1.5 x (largest id + 1) + 1 long.
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
		arc, _ := NewARC(c)
		for k, id := range ids {
			lru.Access(id)
			g.Install(ids[k:min(k+5, distinct)], k%3 == 0)
			lfu.Access(id)
			lfu.Access(ids[k/2])
			arc.Access(id)
			arc.Access(ids[k/2])
			arc.Access(ids[max(k-2*c, 0)])
		}
		for _, s := range []struct {
			name              string
			slot, slab, limit int
		}{
			{"LRU nodes", len(lru.slot), cap(lru.nodes), c},
			{"GroupLRU nodes", len(g.lru.slot), cap(g.lru.nodes), c},
			{"LFU nodes", len(lfu.slot), cap(lfu.nodes), c},
			{"LFU buckets", len(lfu.slot), cap(lfu.buckets), c},
			{"ARC T1 nodes", len(arc.t1.slot), cap(arc.t1.nodes), c},
			{"ARC T2 nodes", len(arc.t2.slot), cap(arc.t2.nodes), c},
			{"ARC B1 nodes", len(arc.b1.slot), cap(arc.b1.nodes), c},
			{"ARC B2 nodes", len(arc.b2.slot), cap(arc.b2.nodes), 2 * c},
		} {
			if s.slab > s.limit {
				t.Errorf("capacity %d: %s slab has room for %d entries, want <= %d", c, s.name, s.slab, s.limit)
			}
			if s.slot > slotLimit {
				t.Errorf("capacity %d: %s slot table is %d long, want <= %d", c, s.name, s.slot, slotLimit)
			}
		}
	}
}
