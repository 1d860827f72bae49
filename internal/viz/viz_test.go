package viz

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"aggcache/internal/entropy"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

func sampleTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := trace.NewTrace()
	// /hub opened 4 times with alternating successors (1 bit); /a
	// opened 2 times deterministically (0 bits).
	for _, p := range []string{"/hub", "/a", "/hub", "/b", "/hub", "/a", "/hub", "/b", "/a", "/end"} {
		tr.Append(trace.Event{Op: trace.OpOpen}, p)
	}
	return tr
}

func TestProfile(t *testing.T) {
	entries := Profile(sampleTrace(t), 0)
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(entries))
	}
	// Most accessed first: /hub with 4.
	if entries[0].Path != "/hub" || entries[0].Accesses != 4 {
		t.Errorf("top entry = %+v", entries[0])
	}
	if entries[0].Successors != 2 {
		t.Errorf("/hub successors = %d, want 2", entries[0].Successors)
	}
	if math.Abs(entries[0].Entropy-1.0) > 1e-9 {
		t.Errorf("/hub entropy = %v, want 1 bit", entries[0].Entropy)
	}
	// /a: successors are /hub, /hub, /end -> entropy of {2/3, 1/3}.
	var a FileEntry
	for _, e := range entries {
		if e.Path == "/a" {
			a = e
		}
	}
	want := -(2.0/3.0)*math.Log2(2.0/3.0) - (1.0/3.0)*math.Log2(1.0/3.0)
	if math.Abs(a.Entropy-want) > 1e-9 {
		t.Errorf("/a entropy = %v, want %v", a.Entropy, want)
	}
}

func TestProfileTopN(t *testing.T) {
	entries := Profile(sampleTrace(t), 2)
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if entries[0].Accesses < entries[1].Accesses {
		t.Error("entries not sorted by access count")
	}
}

func TestProfileEmptyTrace(t *testing.T) {
	if entries := Profile(trace.NewTrace(), 10); len(entries) != 0 {
		t.Errorf("entries = %v, want none", entries)
	}
}

func TestWriteReport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteReport(&buf, Profile(sampleTrace(t), 0)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"file", "/hub", "1.000"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWindows(t *testing.T) {
	// Deterministic cycle: every window is fully predictable.
	var ids []trace.FileID
	for i := 0; i < 100; i++ {
		ids = append(ids, trace.FileID(i%4))
	}
	ws, err := Windows(ids, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 5 {
		t.Fatalf("windows = %d, want 5", len(ws))
	}
	for _, w := range ws {
		if w.Bits != 0 {
			t.Errorf("window at %d: %v bits, want 0", w.Start, w.Bits)
		}
	}
	if _, err := Windows(ids, 1); err == nil {
		t.Error("window length 1 accepted")
	}
}

func TestWindowsDetectRegimeChange(t *testing.T) {
	// First half deterministic, second half pseudo-random: the later
	// windows must be less predictable.
	var ids []trace.FileID
	for i := 0; i < 500; i++ {
		ids = append(ids, trace.FileID(i%5))
	}
	x := uint32(7)
	for i := 0; i < 500; i++ {
		x = x*1664525 + 1013904223
		// Use high bits: an LCG's low bits cycle with a short period
		// and would be perfectly predictable.
		ids = append(ids, trace.FileID((x>>24)%64))
	}
	ws, err := Windows(ids, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("windows = %d", len(ws))
	}
	if ws[0].Bits >= ws[3].Bits {
		t.Errorf("regime change not visible: %v", ws)
	}
}

func TestWriteBarsSVG(t *testing.T) {
	var buf bytes.Buffer
	entries := Profile(sampleTrace(t), 3)
	if err := WriteBarsSVG(&buf, entries); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Errorf("not a complete SVG:\n%s", out)
	}
	if !strings.Contains(out, "/hub") {
		t.Error("SVG missing file label")
	}
	if strings.Count(out, "<rect") < len(entries) {
		t.Error("SVG missing bars")
	}
}

func TestWriteBarsSVGEscapes(t *testing.T) {
	var buf bytes.Buffer
	entries := []FileEntry{{Path: `/a<b>&"c`, Accesses: 1, Entropy: 0.5}}
	if err := WriteBarsSVG(&buf, entries); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "<b>") {
		t.Error("SVG did not escape markup in paths")
	}
	if !strings.Contains(out, "&lt;b&gt;") {
		t.Error("escaped path missing")
	}
}

func TestWriteTimelineSVG(t *testing.T) {
	var buf bytes.Buffer
	ws := []Window{{Start: 0, Bits: 0.5}, {Start: 100, Bits: 2.0}, {Start: 200, Bits: 1.0}}
	if err := WriteTimelineSVG(&buf, ws); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "polyline") {
		t.Error("timeline missing polyline")
	}
	// Empty input still renders a valid frame.
	buf.Reset()
	if err := WriteTimelineSVG(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("empty timeline not an SVG")
	}
}

func TestProfileOnGeneratedWorkload(t *testing.T) {
	tr, err := workload.Standard(workload.ProfileServer, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	entries := Profile(tr, 20)
	if len(entries) != 20 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Hub files (present in many tasks) must rank near the top and be
	// less predictable than mid-task files.
	if !strings.HasPrefix(entries[0].Path, "/shared/") {
		t.Logf("top file is %s (not a hub); acceptable but unusual", entries[0].Path)
	}
	for _, e := range entries {
		if e.Entropy < 0 {
			t.Errorf("negative entropy: %+v", e)
		}
	}
}

// TestEntropyIsReproducible holds the entropy engine to its summation
// order: conditions in id order, symbols in first-occurrence order, so a
// rerun on the same trace repeats every result bit for bit, at every
// context length, and every per-file profile with it.
func TestEntropyIsReproducible(t *testing.T) {
	tr, err := workload.Standard(workload.ProfileUsers, 1, 40000)
	if err != nil {
		t.Fatal(err)
	}
	ids := tr.OpenIDs()
	for _, ctxLen := range []int{1, 2} {
		for _, k := range []int{1, 3} {
			first, err := entropy.ConditionalEntropy(ids, ctxLen, k)
			if err != nil {
				t.Fatal(err)
			}
			for run := 1; run < 10; run++ {
				r, err := entropy.ConditionalEntropy(ids, ctxLen, k)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(r.Bits) != math.Float64bits(first.Bits) || r != first {
					t.Fatalf("ctx %d k %d: rerun %d gave %+v, first run %+v", ctxLen, k, run, r, first)
				}
			}
		}
	}
	first := Profile(tr, 0)
	for run := 1; run < 10; run++ {
		entries := Profile(tr, 0)
		if len(entries) != len(first) {
			t.Fatalf("rerun %d: %d entries, first run %d", run, len(entries), len(first))
		}
		differ := 0
		for i := range entries {
			if entries[i] != first[i] || math.Float64bits(entries[i].Entropy) != math.Float64bits(first[i].Entropy) {
				differ++
			}
		}
		if differ > 0 {
			t.Fatalf("rerun %d: %d of %d per-file entries differ from the first run", run, differ, len(entries))
		}
	}
}
