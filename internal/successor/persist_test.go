package successor

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"aggcache/internal/alloctest"
	"aggcache/internal/trace"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, tt := range []struct {
		name  string
		build func() (*Tracker, error)
	}{
		{"lru", func() (*Tracker, error) { return NewTracker(PolicyLRU, 3) }},
		{"lfu", func() (*Tracker, error) { return NewTracker(PolicyLFU, 2) }},
		{"decay", func() (*Tracker, error) { return NewDecayTracker(4, 0.6) }},
		{"oracle", func() (*Tracker, error) { return NewTracker(PolicyOracle, 0) }},
	} {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			orig, err := tt.build()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(5))
			var seq []trace.FileID
			for i := 0; i < 2000; i++ {
				seq = append(seq, trace.FileID(rng.Intn(60)))
			}
			orig.ObserveAll(seq)

			var buf bytes.Buffer
			if err := orig.Save(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadTracker(&buf)
			if err != nil {
				t.Fatal(err)
			}

			// Identical observable state: counts, rankings, metadata.
			if restored.Observed() != orig.Observed() {
				t.Errorf("Observed = %d, want %d", restored.Observed(), orig.Observed())
			}
			if restored.TrackedFiles() != orig.TrackedFiles() {
				t.Errorf("TrackedFiles = %d, want %d", restored.TrackedFiles(), orig.TrackedFiles())
			}
			for id := trace.FileID(0); id < 60; id++ {
				if restored.AccessCount(id) != orig.AccessCount(id) {
					t.Fatalf("AccessCount(%d) = %d, want %d",
						id, restored.AccessCount(id), orig.AccessCount(id))
				}
				a, b := orig.Successors(id), restored.Successors(id)
				if len(a) != len(b) {
					t.Fatalf("Successors(%d) = %v, want %v", id, b, a)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("Successors(%d) = %v, want %v", id, b, a)
					}
				}
			}

			// Both must evolve identically from here on: the
			// predecessor context survived too.
			next := trace.FileID(7)
			orig.Observe(next)
			restored.Observe(next)
			for id := trace.FileID(0); id < 60; id++ {
				a, b := orig.Successors(id), restored.Successors(id)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("post-restore divergence at Successors(%d)", id)
					}
				}
			}
		})
	}
}

func TestLoadTrackerRejectsGarbage(t *testing.T) {
	if _, err := LoadTracker(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := LoadTracker(strings.NewReader("XXXXnope")); err != ErrBadMetadata {
		t.Errorf("err = %v, want ErrBadMetadata", err)
	}
}

func TestLoadTrackerRejectsTruncation(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 3)
	tr.ObserveAll([]trace.FileID{1, 2, 3, 1, 2, 3})
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := LoadTracker(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncated snapshot at %d accepted", cut)
		}
	}
}

func TestSaveLoadEmptyTracker(t *testing.T) {
	tr, _ := NewTracker(PolicyLRU, 3)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadTracker(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Observed() != 0 || restored.TrackedFiles() != 0 {
		t.Error("empty tracker not empty after restore")
	}
}

// TestSaveLoadSaveIsByteIdentical: a loaded tracker carves its lists from
// its own slab and arena by the live growth rule, and saves back to the
// very bytes it was loaded from; learning a new file afterwards allocates
// nothing, as it does on a tracker that learned everything live.
func TestSaveLoadSaveIsByteIdentical(t *testing.T) {
	for name, orig := range newPolicyTrackers(t) {
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5000; i++ {
			orig.Observe(trace.FileID(rng.Intn(700)))
		}
		var first bytes.Buffer
		if err := orig.Save(&first); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadTracker(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := loaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("%s: Save -> Load -> Save changed the snapshot (%d -> %d bytes)", name, first.Len(), second.Len())
		}
		next := trace.FileID(700)
		if allocs := alloctest.PerOp(t, func() {
			loaded.Observe(next)
			next++
		}); allocs != 0 {
			t.Errorf("%s: a loaded tracker's Observe of a never-seen id allocates %.0f objects, budget exactly 0", name, allocs)
		}
	}
}
