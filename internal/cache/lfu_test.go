package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aggcache/internal/alloctest"
	"aggcache/internal/trace"
)

func TestNewLFURejectsBadCapacity(t *testing.T) {
	if _, err := NewLFU(0); err == nil {
		t.Error("NewLFU(0) succeeded")
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	c, _ := NewLFU(3)
	c.Access(1)
	c.Access(1)
	c.Access(2)
	c.Access(2)
	c.Access(3) // freq: 1->2, 2->2, 3->1
	c.Access(4) // must evict 3
	if c.Contains(3) {
		t.Error("3 resident, want evicted (least frequent)")
	}
	for _, id := range []trace.FileID{1, 2, 4} {
		if !c.Contains(id) {
			t.Errorf("%d missing", id)
		}
	}
}

func TestLFUTieBrokenByLRU(t *testing.T) {
	c, _ := NewLFU(3)
	c.Access(1)
	c.Access(2)
	c.Access(3) // all freq 1; LRU of the tie is 1
	if v, ok := c.Victim(); !ok || v != 1 {
		t.Errorf("Victim = %d,%v want 1,true", v, ok)
	}
	c.Access(4) // evicts 1
	if c.Contains(1) {
		t.Error("1 resident, want evicted (LRU within frequency tie)")
	}
}

func TestLFUFrequencyTracking(t *testing.T) {
	c, _ := NewLFU(4)
	c.Access(7)
	c.Access(7)
	c.Access(7)
	if got := c.Frequency(7); got != 3 {
		t.Errorf("Frequency(7) = %d, want 3", got)
	}
	if got := c.Frequency(42); got != 0 {
		t.Errorf("Frequency(42) = %d, want 0", got)
	}
}

func TestLFUForgetsOnEviction(t *testing.T) {
	c, _ := NewLFU(1)
	c.Access(1)
	c.Access(1) // freq 2
	c.Access(2) // evicts 1
	c.Access(1) // re-enters at freq 1, evicting 2
	if got := c.Frequency(1); got != 1 {
		t.Errorf("Frequency(1) after re-fetch = %d, want 1 (no ghost history)", got)
	}
}

func TestLFUVictimEmpty(t *testing.T) {
	c, _ := NewLFU(1)
	if _, ok := c.Victim(); ok {
		t.Error("Victim on empty cache reported ok")
	}
}

func TestLFUStats(t *testing.T) {
	c, _ := NewLFU(2)
	c.Access(1)
	c.Access(1)
	c.Access(2)
	c.Access(3)
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 3 || s.Evictions != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// lfuModel is an executable specification: evict minimum frequency, ties by
// least recent use.
type lfuModel struct {
	cap  int
	freq map[trace.FileID]int
	last map[trace.FileID]int
	tick int
}

func newLFUModel(capacity int) *lfuModel {
	return &lfuModel{
		cap:  capacity,
		freq: make(map[trace.FileID]int),
		last: make(map[trace.FileID]int),
	}
}

func (m *lfuModel) access(id trace.FileID) bool {
	m.tick++
	if _, ok := m.freq[id]; ok {
		m.freq[id]++
		m.last[id] = m.tick
		return true
	}
	if len(m.freq) >= m.cap {
		var victim trace.FileID
		best := -1
		for v := range m.freq {
			if best == -1 ||
				m.freq[v] < m.freq[victim] ||
				(m.freq[v] == m.freq[victim] && m.last[v] < m.last[victim]) {
				victim = v
				best = 0
			}
		}
		delete(m.freq, victim)
		delete(m.last, victim)
	}
	m.freq[id] = 1
	m.last[id] = m.tick
	return false
}

// Property: the bucket LFU agrees with the executable model and stays
// within capacity.
func TestLFUMatchesModel(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw%12) + 1
		rng := rand.New(rand.NewSource(seed))
		c, err := NewLFU(capacity)
		if err != nil {
			return false
		}
		m := newLFUModel(capacity)
		for i := 0; i < 600; i++ {
			id := sparseID(rng.Intn(capacity * 3))
			if c.Access(id) != m.access(id) {
				return false
			}
			if c.Len() > capacity || c.Len() != len(m.freq) {
				return false
			}
			for v, f := range m.freq {
				if !c.Contains(v) || c.Frequency(v) != uint64(f) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAllocBudgetLFUMissEvicts pins a miss on a full LFU at zero
// allocations: the evicted node and any bucket it empties are recycled for
// the newcomer. Each op also hits the newcomer once, so buckets empty and
// are rebuilt at two frequencies. The ids loop over twice the capacity,
// which the set-up has inserted, so the slot table never grows.
func TestAllocBudgetLFUMissEvicts(t *testing.T) {
	const capacity, universe = 64, 128
	c, err := NewLFU(capacity)
	if err != nil {
		t.Fatal(err)
	}
	c.Access(universe - 1)
	c.Access(universe - 1)
	next := trace.FileID(0)
	allocs := alloctest.PerOp(t, func() {
		c.Access(next)
		c.Access(next)
		next = (next + 1) % universe
	})
	if allocs != 0 {
		t.Errorf("an evicting LFU miss allocates %.0f objects, budget exactly 0", allocs)
	}
	if s := c.Stats(); s.Evictions == 0 || s.Hits != s.Misses {
		t.Errorf("stats = %+v: the pinned ops were not an evicting miss and a hit each", s)
	}
}
