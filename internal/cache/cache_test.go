package cache

import (
	"math/rand"
	"testing"

	"aggcache/internal/trace"
)

func TestNewFactory(t *testing.T) {
	for _, p := range Policies {
		c, err := New(p, 8)
		if err != nil {
			t.Fatalf("New(%s): %v", p, err)
		}
		if c.Cap() != 8 {
			t.Errorf("New(%s).Cap() = %d, want 8", p, c.Cap())
		}
	}
	if _, err := New("belady", 8); err == nil {
		t.Error("New(belady) succeeded, want error")
	}
	if _, err := New(PolicyLRU, 0); err == nil {
		t.Error("New(lru, 0) succeeded, want error")
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("idle HitRate != 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.Accesses() != 4 {
		t.Errorf("Accesses = %d, want 4", s.Accesses())
	}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v, want 0.75", s.HitRate())
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

// Property shared by all online policies: occupancy never exceeds capacity,
// Contains agrees with what Access just did, and a repeated access always
// hits.
func TestAllPoliciesInvariants(t *testing.T) {
	for _, p := range Policies {
		t.Run(string(p), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			c, err := New(p, 10)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2000; i++ {
				id := trace.FileID(rng.Intn(40))
				c.Access(id)
				if c.Len() > c.Cap() {
					t.Fatalf("occupancy %d exceeds capacity %d", c.Len(), c.Cap())
				}
				if !c.Contains(id) {
					t.Fatalf("just-accessed %d not resident", id)
				}
				if !c.Access(id) {
					t.Fatalf("immediate re-access of %d missed", id)
				}
			}
			s := c.Stats()
			if s.Accesses() != 4000 {
				t.Errorf("accesses = %d, want 4000", s.Accesses())
			}
		})
	}
}

// A cache with capacity >= universe must stop missing once warm.
func TestAllPoliciesNoEvictionWhenOversized(t *testing.T) {
	for _, p := range Policies {
		t.Run(string(p), func(t *testing.T) {
			c, err := New(p, 100)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 3000; i++ {
				c.Access(trace.FileID(rng.Intn(50)))
			}
			s := c.Stats()
			if s.Evictions != 0 {
				t.Errorf("evictions = %d, want 0", s.Evictions)
			}
			if s.Misses != 50 {
				t.Errorf("misses = %d, want 50 (one per unique file)", s.Misses)
			}
		})
	}
}

func TestOPTKnownSequence(t *testing.T) {
	// Classic example: with capacity 2 and string 1 2 3 1 2, OPT keeps 1
	// and 2 when 3 arrives... it must evict one of {1,2}; farthest next
	// use at that point: next(1)=3, next(2)=4, so it evicts 2? No: 3 is
	// inserted; victim is the resident with the farthest next use, which
	// is 2 (index 4) vs 1 (index 3) -> evict 2. Then 1 hits, 2 misses.
	refs := []trace.FileID{1, 2, 3, 1, 2}
	opt, err := NewOPT(2, refs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s.Hits != 1 || s.Misses != 4 {
		t.Errorf("OPT stats = %+v, want 1 hit 4 misses", s)
	}
}

func TestOPTBeatsLRUOnLoopingPattern(t *testing.T) {
	// Cyclic reference of N+1 files through an N-sized cache is LRU's
	// pathological case (0% hits); OPT must do strictly better.
	var refs []trace.FileID
	for round := 0; round < 50; round++ {
		for id := trace.FileID(0); id < 5; id++ {
			refs = append(refs, id)
		}
	}
	lru, _ := NewLRU(4)
	for _, id := range refs {
		lru.Access(id)
	}
	opt, _ := NewOPT(4, refs)
	optStats, err := opt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if lru.Stats().Hits != 0 {
		t.Fatalf("LRU hits = %d on loop, want 0", lru.Stats().Hits)
	}
	if optStats.Hits == 0 {
		t.Error("OPT hits = 0 on loop, want > 0")
	}
}

func TestOPTErrors(t *testing.T) {
	refs := []trace.FileID{1, 2}
	opt, _ := NewOPT(1, refs)
	if _, err := opt.Access(9); err == nil {
		t.Error("Access with wrong id succeeded")
	}
	if _, err := opt.Access(1); err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Access(2); err != nil {
		t.Fatal(err)
	}
	if _, err := opt.Access(1); err == nil {
		t.Error("Access past end succeeded")
	}
	if _, err := NewOPT(0, refs); err == nil {
		t.Error("NewOPT(0) succeeded")
	}
}

// Property: no online policy beats OPT's hit count on random strings.
func TestOPTIsUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		refs := make([]trace.FileID, 3000)
		for i := range refs {
			// Mildly skewed random references.
			refs[i] = trace.FileID(rng.Intn(rng.Intn(60) + 1))
		}
		const capacity = 12
		opt, _ := NewOPT(capacity, refs)
		optStats, err := opt.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range Policies {
			c, _ := New(p, capacity)
			for _, id := range refs {
				c.Access(id)
			}
			if got := c.Stats().Hits; got > optStats.Hits {
				t.Errorf("trial %d: %s hits %d > OPT hits %d", trial, p, got, optStats.Hits)
			}
		}
	}
}

func TestOPTContainsLenCap(t *testing.T) {
	refs := []trace.FileID{1, 2, 1}
	opt, _ := NewOPT(2, refs)
	if _, err := opt.Access(1); err != nil {
		t.Fatal(err)
	}
	if !opt.Contains(1) || opt.Contains(2) {
		t.Error("Contains wrong after one access")
	}
	if opt.Len() != 1 || opt.Cap() != 2 {
		t.Errorf("Len/Cap = %d/%d, want 1/2", opt.Len(), opt.Cap())
	}
}
