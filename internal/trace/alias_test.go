package trace

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"aggcache/internal/alloctest"
)

// Aliasing audit: the memoized workload cache hands the same Trace to many
// goroutines, so the sharing contracts of the accessors below are
// load-bearing. These tests pin them.

// OpenIDs must return a freshly allocated slice each call — callers (the
// workload cache included) hand it to concurrent readers and must never
// discover it aliases Trace internals or a previous call's result.
func TestOpenIDsDoesNotAlias(t *testing.T) {
	tr := NewTrace()
	tr.Append(Event{Op: OpOpen}, "/a")
	tr.Append(Event{Op: OpClose}, "/a")
	tr.Append(Event{Op: OpOpen}, "/b")

	first := tr.OpenIDs()
	second := tr.OpenIDs()
	if len(first) != 2 || len(second) != 2 {
		t.Fatalf("OpenIDs lengths = %d, %d, want 2", len(first), len(second))
	}
	if &first[0] == &second[0] {
		t.Fatal("consecutive OpenIDs calls share a backing array")
	}

	// Mutating a returned slice must not leak into the trace or into
	// later calls.
	first[0] = 999
	if tr.Events[0].File == 999 {
		t.Error("OpenIDs result aliases Trace.Events")
	}
	if got := tr.OpenIDs(); got[0] == 999 {
		t.Error("OpenIDs result carries a previous caller's mutation")
	}
}

// Clone must produce a fully independent interner: interning into either
// side afterwards must not be visible through the other.
func TestInternerCloneIsIndependent(t *testing.T) {
	in := NewInterner()
	a := in.Intern("/a")
	b := in.Intern("/b")

	cl := in.Clone()
	if cl.Path(a) != "/a" || cl.Path(b) != "/b" {
		t.Fatal("clone lost existing paths")
	}
	if got := cl.Intern("/a"); got != a {
		t.Errorf("clone re-interned /a as %d, want %d", got, a)
	}

	// Diverge both sides.
	c1 := in.Intern("/only-original")
	c2 := cl.Intern("/only-clone")
	if c1 != c2 {
		t.Fatalf("divergent interns got different next ids: %d vs %d", c1, c2)
	}
	if cl.Path(c2) != "/only-clone" {
		t.Errorf("clone path(%d) = %q", c2, cl.Path(c2))
	}
	if in.Path(c1) != "/only-original" {
		t.Errorf("original path(%d) = %q; clone mutation leaked", c1, in.Path(c1))
	}
	if in.Len() != cl.Len() {
		t.Errorf("lengths diverged unexpectedly: %d vs %d", in.Len(), cl.Len())
	}
}

// byteInterner is what Interner and SyncInterner share.
type byteInterner interface {
	Intern(path string) FileID
	InternBytes(path []byte) FileID
	Lookup(path string) (FileID, bool)
	Path(id FileID) string
}

// arenaPaths returns n distinct random paths; one in 2 000 is longer than
// a quarter of an arena chunk, so it bypasses the arena.
func arenaPaths(n int) (paths []string, smallBytes, large int) {
	rng := rand.New(rand.NewSource(9))
	letters := []byte("abcdefghijklmnopqrstuvwxyz0123456789._-/")
	for i := 0; i < n; i++ {
		tail := make([]byte, rng.Intn(120))
		if i%2000 == 1999 {
			tail = make([]byte, pathChunk/4+rng.Intn(1000))
		}
		for j := range tail {
			tail[j] = letters[rng.Intn(len(letters))]
		}
		p := fmt.Sprintf("/r/%d/%s", i, tail)
		if len(p) > pathChunk/4 {
			large++
		} else {
			smallBytes += len(p)
		}
		paths = append(paths, p)
	}
	return paths, smallBytes, large
}

// internAllThroughOneBuffer interns every path from one reused buffer,
// scribbled over after every call, and reports the ids in order to seen.
func internAllThroughOneBuffer(in byteInterner, paths []string, seen func(i int, id FileID)) {
	buf := make([]byte, 0, pathChunk)
	for i, p := range paths {
		buf = append(buf[:0], p...)
		id := in.InternBytes(buf)
		for j := range buf {
			buf[j] = 0xDB
		}
		seen(i, id)
	}
}

// TestInternBytesArenaAliasing: a first-seen path is copied into the
// interner's append-only arena, so the caller's buffer is free the moment
// InternBytes returns. 100 000 paths go through one buffer that is
// overwritten after every call; every Path(id) must still read the
// original and Lookup must map it back — for the SyncInterner across its
// promotions and with readers running beside the writer (run it under
// -race).
func TestInternBytesArenaAliasing(t *testing.T) {
	const n = 100000
	paths, smallBytes, large := arenaPaths(n)
	for _, tc := range []struct {
		name string
		make func() byteInterner
	}{
		{"Interner", func() byteInterner { return NewInterner() }},
		{"SyncInterner", func() byteInterner { return NewSyncInterner() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.make()
			var interned atomic.Int64
			var wg sync.WaitGroup
			stop := make(chan struct{})
			if s, ok := in.(*SyncInterner); ok {
				for r := 0; r < 2; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(r)))
						for {
							select {
							case <-stop:
								return
							default:
							}
							k := interned.Load()
							if k == 0 {
								continue
							}
							i := rng.Int63n(k)
							if got := s.Path(FileID(i)); got != paths[i] {
								t.Errorf("reader: Path(%d) = %.40q..., want %.40q...", i, got, paths[i])
								return
							}
							if id, ok := s.Lookup(paths[i]); !ok || int64(id) != i {
								t.Errorf("reader: Lookup(path %d) = %d,%v", i, id, ok)
								return
							}
						}
					}(r)
				}
			}
			internAllThroughOneBuffer(in, paths, func(i int, id FileID) {
				if int(id) != i {
					t.Fatalf("InternBytes(path %d) = %d", i, id)
				}
				interned.Store(int64(i + 1))
			})
			close(stop)
			wg.Wait()
			for i, p := range paths {
				if got := in.Path(FileID(i)); got != p {
					t.Fatalf("Path(%d) = %.40q..., want %.40q...", i, got, p)
				}
				if id, ok := in.Lookup(p); !ok || int(id) != i {
					t.Fatalf("Lookup(path %d) = %d,%v, want %d,true", i, id, ok, i)
				}
			}
		})
	}

	// What the arena costs: interning from bytes allocates what interning
	// the same strings does (the map and the table growing; a map's growth
	// moves by an allocation or two with its hash seed, hence mapJitter)
	// plus the reused buffer, one per 64 KiB chunk — one more for the tail
	// a path did not fit in — and one per path too long for the arena. The
	// SyncInterner rebuilds its maps at every promotion, and their growth
	// moves by tens of allocations with the seeds over this many paths, so
	// its first-sight cost is pinned per path instead, by
	// TestAllocBudgetInternBytesFirstSight.
	t.Run("allocs", func(t *testing.T) {
		const mapJitter = 4
		byBytes := alloctest.Total(t, func() {
			internAllThroughOneBuffer(NewInterner(), paths, func(int, FileID) {})
		})
		byString := alloctest.Total(t, func() {
			in := NewInterner()
			for _, p := range paths {
				in.Intern(p)
			}
		})
		chunks := (smallBytes + pathChunk - 1) / pathChunk
		if budget := byString + float64(1+chunks+1+large+mapJitter); byBytes > budget {
			t.Errorf("interning %d paths from bytes allocates %.0f objects; the same strings cost %.0f, so the buffer, %d chunks + 1 and %d long paths may add %d (+%d jitter), not %.0f",
				n, byBytes, byString, chunks, large, 1+chunks+1+large, mapJitter, byBytes-byString)
		}
	})
}

// TestAllocBudgetInternBytesFirstSight pins interning a never-seen path
// from a reused buffer at zero allocations on both interners: the path's
// bytes land in the arena, and the maps, the table and the arena's chunks
// grow only now and then, amortised to nothing per path.
func TestAllocBudgetInternBytesFirstSight(t *testing.T) {
	for name, in := range map[string]byteInterner{"Interner": NewInterner(), "SyncInterner": NewSyncInterner()} {
		buf := make([]byte, 0, 64)
		i := 0
		allocs := alloctest.PerOp(t, func() {
			buf = strconv.AppendInt(append(buf[:0], "/first/sight/"...), int64(i), 10)
			if id := in.InternBytes(buf); int(id) != i {
				t.Fatalf("%s: InternBytes(%s) = %d, want %d", name, buf, id, i)
			}
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: InternBytes of a never-seen path allocates %.0f objects, budget exactly 0", name, allocs)
		}
	}
}
