package cache

import (
	"container/list"
	"math/rand"
	"slices"
	"testing"

	"aggcache/internal/alloctest"
	"aggcache/internal/trace"
)

func TestNewARCValidation(t *testing.T) {
	if _, err := NewARC(0); err == nil {
		t.Error("capacity 0 accepted")
	}
}

func TestARCBasicHitMiss(t *testing.T) {
	c, _ := NewARC(2)
	if c.Access(1) {
		t.Error("cold access hit")
	}
	if !c.Access(1) {
		t.Error("warm access missed")
	}
	if !c.Contains(1) {
		t.Error("Contains(1) false")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestARCInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c, _ := NewARC(16)
	for i := 0; i < 20000; i++ {
		id := trace.FileID(rng.Intn(64))
		c.Access(id)
		if c.Len() > c.Cap() {
			t.Fatalf("residents %d exceed capacity %d", c.Len(), c.Cap())
		}
		if !c.Contains(id) {
			t.Fatal("just-accessed id not resident")
		}
		if p := c.TargetRecency(); p < 0 || p > c.Cap() {
			t.Fatalf("p = %d out of [0,%d]", p, c.Cap())
		}
		// Ghost lists individually bounded by capacity (ARC keeps
		// |T1|+|B1| <= c and |L1|+|L2| <= 2c).
		if c.b1.Len() > c.Cap() || c.b2.Len() > c.Cap()+1 {
			t.Fatalf("ghost lists out of bound: b1=%d b2=%d", c.b1.Len(), c.b2.Len())
		}
	}
}

// ARC's signature behaviour: a one-shot scan must not flush the frequent
// working set the way plain LRU does.
func TestARCScanResistance(t *testing.T) {
	const capacity = 16
	arc, _ := NewARC(capacity)
	lru, _ := NewLRU(capacity)

	hot := make([]trace.FileID, 8)
	for i := range hot {
		hot[i] = trace.FileID(i)
	}
	// Warm the hot set until it is frequent (in T2).
	for round := 0; round < 10; round++ {
		for _, id := range hot {
			arc.Access(id)
			lru.Access(id)
		}
	}
	// One-shot scan of many cold files.
	for i := 100; i < 200; i++ {
		arc.Access(trace.FileID(i))
		lru.Access(trace.FileID(i))
	}
	var arcSurvived, lruSurvived int
	for _, id := range hot {
		if arc.Contains(id) {
			arcSurvived++
		}
		if lru.Contains(id) {
			lruSurvived++
		}
	}
	if lruSurvived != 0 {
		t.Fatalf("LRU kept %d hot files through the scan; test premise broken", lruSurvived)
	}
	if arcSurvived < len(hot)/2 {
		t.Errorf("ARC kept only %d/%d hot files through the scan", arcSurvived, len(hot))
	}
}

func TestARCGhostHitAdaptsP(t *testing.T) {
	c, _ := NewARC(4)
	// Build frequent residents (T2) so later misses demote T1 entries
	// into the B1 ghost list instead of evicting them outright (a pure
	// miss stream never populates B1, per Case IV.A).
	c.Access(0)
	c.Access(0)
	c.Access(1)
	c.Access(1) // 0,1 in T2
	c.Access(2)
	c.Access(3) // 2,3 in T1; cache full
	c.Access(4) // REPLACE demotes T1's LRU (2) into B1
	if c.Contains(2) {
		t.Fatal("2 still resident; expected demotion to ghost B1")
	}
	p0 := c.TargetRecency()
	c.Access(2) // B1 ghost hit: p must grow (favour recency)
	if c.TargetRecency() <= p0 {
		t.Errorf("p = %d after B1 ghost hit, want > %d", c.TargetRecency(), p0)
	}
	if !c.Contains(2) {
		t.Error("ghost-hit file not brought back resident")
	}
}

// listOrder returns l's ids from MRU to LRU.
func listOrder(l *list.List) []trace.FileID {
	var out []trace.FileID
	for e := l.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(trace.FileID))
	}
	return out
}

// checkARC runs ids through ARC and arcRef side by side and fails at the
// first access after which they disagree on the hit, p, Len, Stats,
// residency of the accessed file or the order of any of T1, T2, B1 and B2,
// or after which one of ARC's LRUs has evicted by itself.
func checkARC(t testing.TB, capacity int, ids []trace.FileID) {
	t.Helper()
	got, err := NewARC(capacity)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := newARCRef(capacity)
	for k, id := range ids {
		if hit, wantHit := got.Access(id), want.Access(id); hit != wantHit {
			t.Fatalf("access %d: Access(%d) = %v, reference %v", k, id, hit, wantHit)
		}
		if got.TargetRecency() != want.TargetRecency() || got.Len() != want.Len() || got.Stats() != want.Stats() {
			t.Fatalf("access %d: p/Len/Stats = %d/%d/%+v, reference %d/%d/%+v", k,
				got.TargetRecency(), got.Len(), got.Stats(), want.TargetRecency(), want.Len(), want.Stats())
		}
		if got.Contains(id) != want.Contains(id) {
			t.Fatalf("access %d: Contains(%d) = %v, reference disagrees", k, id, got.Contains(id))
		}
		for _, l := range []struct {
			name string
			got  *LRU
			want *list.List
		}{{"T1", got.t1, want.t1}, {"T2", got.t2, want.t2}, {"B1", got.b1, want.b1}, {"B2", got.b2, want.b2}} {
			if g, w := l.got.resident(), listOrder(l.want); !slices.Equal(g, w) {
				t.Fatalf("access %d: %s = %v, reference %v", k, l.name, g, w)
			}
			if n := l.got.Stats().Evictions; n != 0 {
				t.Fatalf("access %d: %s evicted %d entries by itself", k, l.name, n)
			}
		}
	}
}

// TestARCMatchesReference holds ARC to the map-and-list implementation the
// published numbers came from: random skewed strings at capacities 1-16,
// over universes from just past the capacity (ghost hits) to four times
// it, a quarter of the ids far past the slot tables.
func TestARCMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(16)
		universe := capacity + 1 + rng.Intn(3*capacity)
		ids := make([]trace.FileID, 3000)
		for k := range ids {
			n := 1 + rng.Intn(universe)
			if rng.Intn(4) == 0 {
				ids[k] = farID(rng.Intn(n))
			} else {
				ids[k] = trace.FileID(rng.Intn(n))
			}
		}
		checkARC(t, capacity, ids)
	}
}

// FuzzARC checks ARC against the reference on strings decoded from the
// input: the first byte picks the capacity (1..16), each later byte an id;
// a byte of 0xC0 or more is a far id.
func FuzzARC(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 1, 2, 3, 4, 2, 5, 0, 1})
	f.Add([]byte{0, 1, 2, 1, 0xc1, 2, 0xc1, 0xc2, 1})
	f.Add([]byte{15, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 0, 1, 2, 0xf0, 3, 0xf0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ids := make([]trace.FileID, 0, len(data)-1)
		for _, b := range data[1:] {
			if b >= 0xC0 {
				ids = append(ids, farID(int(b)))
			} else {
				ids = append(ids, trace.FileID(b%40))
			}
		}
		checkARC(t, 1+int(data[0]%16), ids)
	})
}

// TestAllocBudgetARCMissEvicts pins an access on a full ARC — a hit, a
// ghost hit or an evicting miss — at zero allocations: every list recycles
// the node its last removal freed. The reference string has gone through
// the cache four times before the measurement, so the slabs and slot
// tables have grown all they will.
func TestAllocBudgetARCMissEvicts(t *testing.T) {
	const capacity, universe = 64, 256
	c, err := NewARC(capacity)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	refs := make([]trace.FileID, 4096)
	for k := range refs {
		refs[k] = trace.FileID(rng.Intn(1 + rng.Intn(universe)))
	}
	for range 4 {
		for _, id := range refs {
			c.Access(id)
		}
	}
	before, next := c.Stats(), 0
	allocs := alloctest.PerOp(t, func() {
		c.Access(refs[next])
		next = (next + 1) % len(refs)
	})
	if allocs != 0 {
		t.Errorf("an ARC access allocates %.0f objects, budget exactly 0", allocs)
	}
	if s := c.Stats(); s.Hits == before.Hits || s.Misses == before.Misses || s.Evictions == before.Evictions {
		t.Errorf("stats %+v, before %+v: the pinned ops did not hit, miss and evict", s, before)
	}
}
