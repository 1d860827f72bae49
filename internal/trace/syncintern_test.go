package trace

import (
	"fmt"
	"sync"
	"testing"
)

func TestSyncInternerMatchesInterner(t *testing.T) {
	s := NewSyncInterner()
	plain := NewInterner()
	paths := []string{"/a", "/b", "/a", "/c", "/b", "/d"}
	for _, p := range paths {
		if got, want := s.Intern(p), plain.Intern(p); got != want {
			t.Errorf("Intern(%q) = %d, want %d", p, got, want)
		}
	}
	if s.Len() != plain.Len() {
		t.Errorf("Len = %d, want %d", s.Len(), plain.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if got, want := s.Path(FileID(i)), plain.Path(FileID(i)); got != want {
			t.Errorf("Path(%d) = %q, want %q", i, got, want)
		}
	}
	if _, ok := s.Lookup("/missing"); ok {
		t.Error("Lookup of missing path reported ok")
	}
	if got := s.Path(FileID(99)); got != "" {
		t.Errorf("Path of unassigned id = %q, want empty", got)
	}
}

func TestSyncInternerConcurrent(t *testing.T) {
	s := NewSyncInterner()
	const (
		goroutines = 8
		universe   = 64
		rounds     = 200
	)
	// Every goroutine interns an overlapping working set; IDs must come
	// out dense, stable, and consistent across Intern/Lookup/Path.
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				p := fmt.Sprintf("/f%02d", (g*3+n)%universe)
				id := s.Intern(p)
				if got := s.Path(id); got != p {
					t.Errorf("Path(Intern(%q)) = %q", p, got)
					return
				}
				if id2, ok := s.Lookup(p); !ok || id2 != id {
					t.Errorf("Lookup(%q) = %d,%v, want %d,true", p, id2, ok, id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != universe {
		t.Errorf("Len = %d, want %d", s.Len(), universe)
	}
	seen := make(map[FileID]bool)
	for i := 0; i < universe; i++ {
		p := fmt.Sprintf("/f%02d", i)
		id, ok := s.Lookup(p)
		if !ok || int(id) >= universe || seen[id] {
			t.Errorf("Lookup(%q) = %d,%v: want a unique dense id", p, id, ok)
		}
		seen[id] = true
	}
}

func TestWrapInterner(t *testing.T) {
	in := NewInterner()
	in.Intern("/x")
	in.Intern("/y")
	s := WrapInterner(in)
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if id, ok := s.Lookup("/y"); !ok || id != 1 {
		t.Errorf("Lookup(/y) = %d,%v, want 1,true", id, ok)
	}
	if got := s.Intern("/z"); got != 2 {
		t.Errorf("Intern(/z) = %d, want 2", got)
	}
}

// TestSyncInternerPromotion drives the interner well past the promotion
// threshold and checks that IDs stay dense and stable across epochs, via
// both the string and byte-slice entry points.
func TestSyncInternerPromotion(t *testing.T) {
	s := NewSyncInterner()
	const n = 1000 // several promotions at the minimum threshold of 64
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/epoch/f%04d", i)
		var id FileID
		if i%2 == 0 {
			id = s.Intern(p)
		} else {
			id = s.InternBytes([]byte(p))
		}
		if int(id) != i {
			t.Fatalf("Intern(%q) = %d, want %d", p, id, i)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("/epoch/f%04d", i)
		if id := s.InternBytes([]byte(p)); int(id) != i {
			t.Errorf("re-InternBytes(%q) = %d, want %d", p, id, i)
		}
		if got := s.Path(FileID(i)); got != p {
			t.Errorf("Path(%d) = %q, want %q", i, got, p)
		}
		// Promoted or still in the overlay, a known path is found; the
		// lookup itself assigns nothing.
		if id, ok := s.LookupBytes([]byte(p)); !ok || int(id) != i {
			t.Errorf("LookupBytes(%q) = %d,%v, want %d,true", p, id, ok, i)
		}
	}
	if _, ok := s.LookupBytes([]byte("/epoch/missing")); ok || s.Len() != n {
		t.Errorf("LookupBytes of an unknown path: ok=%v, Len = %d, want false and %d", ok, s.Len(), n)
	}
}

// TestInternerBytes exercises the plain Interner's byte-slice entry
// points against the string ones.
func TestInternerBytes(t *testing.T) {
	in := NewInterner()
	a := in.InternBytes([]byte("/a"))
	if b := in.Intern("/a"); b != a {
		t.Errorf("Intern after InternBytes: %d != %d", b, a)
	}
	if _, ok := in.LookupBytes([]byte("/missing")); ok {
		t.Error("LookupBytes(/missing) = true, want false")
	}
	if id, ok := in.LookupBytes([]byte("/a")); !ok || id != a {
		t.Errorf("LookupBytes(/a) = %d,%v, want %d,true", id, ok, a)
	}
}
