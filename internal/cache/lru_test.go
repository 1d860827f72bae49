package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aggcache/internal/alloctest"
	"aggcache/internal/trace"
)

func TestNewLRURejectsBadCapacity(t *testing.T) {
	for _, c := range []int{0, -1} {
		if _, err := NewLRU(c); err == nil {
			t.Errorf("NewLRU(%d) succeeded", c)
		}
	}
}

func TestLRUBasicHitMiss(t *testing.T) {
	c, _ := NewLRU(2)
	if c.Access(1) {
		t.Error("first access hit")
	}
	if !c.Access(1) {
		t.Error("second access missed")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c, _ := NewLRU(3)
	c.Access(1)
	c.Access(2)
	c.Access(3)
	c.Access(1) // 1 is now MRU; LRU order: 1,3,2
	c.Access(4) // evicts 2
	if c.Contains(2) {
		t.Error("2 still resident, want evicted")
	}
	for _, id := range []trace.FileID{1, 3, 4} {
		if !c.Contains(id) {
			t.Errorf("%d evicted, want resident", id)
		}
	}
	if v, ok := c.victim(); !ok || v != 3 {
		t.Errorf("Victim = %d,%v want 3,true", v, ok)
	}
}

func TestLRUInsertTailIsNextVictim(t *testing.T) {
	c, _ := NewLRU(3)
	c.Access(1)
	c.Access(2)
	c.insertTail(9)
	if v, _ := c.victim(); v != 9 {
		t.Errorf("Victim = %d, want tail-inserted 9", v)
	}
	// Tail insert into a full cache evicts the old tail, and the
	// newcomer becomes the victim.
	c.Access(3) // miss on full cache evicts tail 9; order now 3,2,1
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	c.insertTail(10)
	if c.Len() != 3 {
		t.Errorf("Len = %d after tail insert, want 3", c.Len())
	}
	if v, _ := c.victim(); v != 10 {
		t.Errorf("Victim = %d, want 10", v)
	}
}

func TestLRUInsertTailResidentNoop(t *testing.T) {
	c, _ := NewLRU(3)
	c.Access(1)
	c.Access(2) // order: 2,1
	c.insertTail(2)
	got := c.resident()
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("Resident = %v, want [2 1] (tail insert must not demote a resident)", got)
	}
}

func TestLRUTouch(t *testing.T) {
	c, _ := NewLRU(2)
	c.Access(1)
	c.Access(2) // order: 2,1
	if !c.touch(1) {
		t.Error("Touch(1) = false")
	}
	if c.touch(9) {
		t.Error("Touch(9) = true for absent id")
	}
	// Touch must not count demand stats.
	if s := c.Stats(); s.Hits != 0 || s.Misses != 2 {
		t.Errorf("stats after Touch = %+v", s)
	}
	if v, _ := c.victim(); v != 2 {
		t.Errorf("Victim = %d, want 2 after touching 1", v)
	}
}

func TestLRURemove(t *testing.T) {
	c, _ := NewLRU(2)
	c.Access(1)
	c.Access(2)
	if !c.remove(1) {
		t.Error("Remove(1) = false")
	}
	if c.remove(1) {
		t.Error("double Remove(1) = true")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if s := c.Stats(); s.Evictions != 0 {
		t.Errorf("Remove counted as eviction: %+v", s)
	}
}

func TestLRUResidentOrder(t *testing.T) {
	c, _ := NewLRU(4)
	for _, id := range []trace.FileID{1, 2, 3} {
		c.Access(id)
	}
	c.insertTail(9)
	got := c.resident()
	want := []trace.FileID{3, 2, 1, 9}
	if len(got) != len(want) {
		t.Fatalf("Resident = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Resident = %v, want %v", got, want)
		}
	}
}

func TestLRUVictimEmpty(t *testing.T) {
	c, _ := NewLRU(1)
	if _, ok := c.victim(); ok {
		t.Error("Victim on empty cache reported ok")
	}
}

// lruModel is an executable-specification LRU used to cross-check the
// linked-list implementation.
type lruModel struct {
	cap   int
	order []trace.FileID // MRU first
}

func (m *lruModel) access(id trace.FileID) bool {
	for i, v := range m.order {
		if v == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			m.order = append([]trace.FileID{id}, m.order...)
			return true
		}
	}
	m.order = append([]trace.FileID{id}, m.order...)
	if len(m.order) > m.cap {
		m.order = m.order[:m.cap]
	}
	return false
}

// sparseID spreads a quarter of a small universe far past the slot table
// the rest grows, so model tests cross regrowth and unseen high ids.
func sparseID(k int) trace.FileID {
	if k%4 == 0 {
		return farID(k)
	}
	return trace.FileID(k)
}

// Property: the LRU implementation agrees with the executable model on
// random access strings, and never exceeds capacity.
func TestLRUMatchesModel(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		c, err := NewLRU(capacity)
		if err != nil {
			return false
		}
		m := &lruModel{cap: capacity}
		for i := 0; i < 500; i++ {
			id := sparseID(rng.Intn(capacity * 3))
			if c.Access(id) != m.access(id) {
				return false
			}
			if c.Len() > capacity {
				return false
			}
			got := c.resident()
			if len(got) != len(m.order) {
				return false
			}
			for j := range got {
				if got[j] != m.order[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAllocBudgetLRUMissEvicts pins a miss on a full LRU at zero
// allocations: the evicted node is recycled for the newcomer. A loop over
// twice the capacity misses on every access, and the set-up has inserted
// the whole universe, so the slot table never grows.
func TestAllocBudgetLRUMissEvicts(t *testing.T) {
	const capacity, universe = 64, 128
	c, err := NewLRU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for id := range trace.FileID(universe) {
		c.Access(id)
	}
	next := trace.FileID(0)
	allocs := alloctest.PerOp(t, func() {
		c.Access(next)
		next = (next + 1) % universe
	})
	if allocs != 0 {
		t.Errorf("an evicting LRU miss allocates %.0f objects, budget exactly 0", allocs)
	}
	if s := c.Stats(); s.Hits != 0 || s.Evictions == 0 {
		t.Errorf("stats = %+v: the pinned op was not an evicting miss", s)
	}
}
