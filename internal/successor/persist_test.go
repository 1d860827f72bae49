package successor

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
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
			restored, err := LoadTracker(&buf, 60) // every id it learned is below 60
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
	if _, err := LoadTracker(strings.NewReader(""), math.MaxInt); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := LoadTracker(strings.NewReader("XXXXnope"), math.MaxInt); err != ErrBadMetadata {
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
		if _, err := LoadTracker(bytes.NewReader(full[:cut]), math.MaxInt); err == nil {
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
	restored, err := LoadTracker(&buf, 0)
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
		loaded, err := LoadTracker(bytes.NewReader(first.Bytes()), math.MaxInt)
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

// snapshot encodes a tracker snapshot by hand: an LRU(3) tracker whose
// predecessor context is prev, with one count for owner and one list,
// owner's, holding the single successor succ.
func snapshot(prev, owner, succ uint64) []byte {
	b := []byte("AGSM")
	for _, v := range []uint64{persistVersion, 3} {
		b = binary.AppendUvarint(b, v)
	}
	b = append(b, "lru"...)
	for _, v := range []uint64{
		3, 0, // capacity, lambda bits
		2, 1, prev, // observed, hasPrev, prev
		1, owner, 1, // one count: owner seen once
		1, owner, 1, 1, // one list: owner, clock, one entry
		succ, 1, 0, 1, // the entry: id, count, weight bits, tick
	} {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestLoadTrackerRejectsOutOfRangeIDs: every id a snapshot names — counts,
// list owners, successor entries and the predecessor context — is checked
// against the caller's id space before it is converted to a FileID, so a
// successor id past the format's bound cannot size the group builder's
// dense tables, and one past 2^32 cannot wrap onto a real file.
func TestLoadTrackerRejectsOutOfRangeIDs(t *testing.T) {
	if _, err := LoadTracker(bytes.NewReader(snapshot(1, 0, 1)), 2); err != nil {
		t.Fatalf("in-range snapshot rejected: %v", err)
	}
	for _, tc := range []struct {
		name              string
		prev, owner, succ uint64
		files             int
	}{
		{"successor past the format bound", 1, 0, 0xFFFFFF00, math.MaxInt},
		{"successor wrapping to file 1", 1, 0, 1<<32 + 1, math.MaxInt},
		{"predecessor past the format bound", 0xFFFFFF00, 0, 1, math.MaxInt},
		{"successor at the id space", 1, 0, 2, 2},
		{"predecessor at the id space", 2, 0, 1, 2},
		{"owner at the id space", 1, 2, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadTracker(bytes.NewReader(snapshot(tc.prev, tc.owner, tc.succ)), tc.files)
			if !errors.Is(err, ErrBadMetadata) {
				t.Fatalf("err = %v, want ErrBadMetadata", err)
			}
		})
	}
}

// FuzzLoadTracker: any input either fails or loads a tracker that names
// no id outside the id space, and that saves to a snapshot which loads
// and saves back to the same bytes.
func FuzzLoadTracker(f *testing.F) {
	const files = 64
	f.Add(snapshot(1, 0, 1))
	f.Add(snapshot(1, 0, 0xFFFFFF00))
	for _, tr := range newPolicyTrackers(f) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 300; i++ {
			tr.Observe(trace.FileID(rng.Intn(files)))
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := LoadTracker(bytes.NewReader(data), files)
		if err != nil {
			return
		}
		if len(tr.counts) > 2*files || len(tr.lists) > 2*files {
			t.Fatalf("tables sized %d/%d for an id space of %d", len(tr.counts), len(tr.lists), files)
		}
		for id, l := range tr.lists {
			if l == nil {
				continue
			}
			for _, s := range l.Ranked() {
				if s >= files {
					t.Fatalf("list of %d names successor %d, id space %d", id, s, files)
				}
			}
		}
		var first, second bytes.Buffer
		if err := tr.Save(&first); err != nil {
			t.Fatal(err)
		}
		back, err := LoadTracker(bytes.NewReader(first.Bytes()), files)
		if err != nil {
			t.Fatalf("a loaded tracker's own snapshot fails to load: %v", err)
		}
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save -> Load -> Save changed the snapshot")
		}
	})
}
