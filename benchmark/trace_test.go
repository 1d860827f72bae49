package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{start: 100, end: 200}
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{start: 120, end: 150}}, 70},
		{"disjoint children", []span{{start: 110, end: 120}, {start: 150, end: 170}}, 70},
		{"overlapping children are counted once", []span{{start: 110, end: 150}, {start: 140, end: 180}}, 30},
		{"a nested child adds nothing", []span{{start: 110, end: 180}, {start: 120, end: 130}}, 30},
		{"children given out of order", []span{{start: 150, end: 170}, {start: 110, end: 120}}, 70},
		{"a child is clipped to its parent", []span{{start: 50, end: 120}, {start: 190, end: 300}}, 70},
		{"a child outside the parent is ignored", []span{{start: 10, end: 90}}, 100},
		{"children covering everything", []span{{start: 100, end: 160}, {start: 160, end: 200}}, 0},
	} {
		if got := selfTime(parent, c.children...); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

// forwardedOp is the spans of one open that worker 0 sent to node 0, which
// forwarded it to node 2.
func forwardedOp(op uint64) []span {
	spans := []span{
		{op: op, start: 0, end: 100, kind: spanClientOpen, tag: tagFetch},
		{op: op, start: 10, end: 90, kind: spanWireRTT},
		{op: op, start: 20, end: 80, kind: spanServerResidency, tag: tagDirect, node: 0},
		{op: op, start: 25, end: 75, kind: spanClusterRoute, tag: tagRouteForward, node: 0},
		{op: op, start: 30, end: 70, kind: spanClusterForward, node: 0},
		{op: op, start: 40, end: 60, kind: spanServerResidency, tag: tagForwarded, node: 2},
		{op: op, start: 45, end: 50, kind: spanClusterRoute, tag: tagRouteLocal, node: 2},
	}
	for i := range spans {
		spans[i].start *= 1000 // microseconds, so histogram buckets are narrow
		spans[i].end *= 1000
	}
	return spans
}

func TestBuildTreesSlotsSpansByPosition(t *testing.T) {
	op := opID(0, 7)
	trees := buildTrees(append(forwardedOp(op), span{op: opID(1, 7), start: 5000, end: 6000, kind: spanClientOpen, tag: tagHit}))
	if len(trees) != 2 {
		t.Fatalf("%d trees, want 2", len(trees))
	}
	tr := trees[op]
	for slot, want := range map[int]int64{slotRoot: 100e3, slotRTT: 80e3, slotEntry: 60e3, slotEntryRoute: 50e3, slotForward: 40e3, slotOwner: 20e3, slotOwnerRoute: 5e3} {
		if !tr.have[slot] || tr.spans[slot].dur() != want {
			t.Errorf("slot %d: have=%v dur=%d, want %d", slot, tr.have[slot], tr.spans[slot].dur(), want)
		}
	}
	// Self times telescope back to the root's duration.
	sp := tr.spans
	sum := selfTime(sp[slotRoot], sp[slotRTT]) + selfTime(sp[slotRTT], sp[slotEntry]) + selfTime(sp[slotEntry], sp[slotEntryRoute]) +
		selfTime(sp[slotEntryRoute], sp[slotForward]) + sp[slotForward].dur()
	if sum != sp[slotRoot].dur() {
		t.Errorf("self times sum to %d, want %d", sum, sp[slotRoot].dur())
	}
}

func TestSpanLayersBudgetCloses(t *testing.T) {
	var spans []span
	for i := uint64(1); i <= 50; i++ {
		spans = append(spans, forwardedOp(opID(0, i))...)
	}
	hits := newHist()
	for i := 0; i < 50; i++ {
		hits.observe(10e3)
	}
	rep := &report{values: make(map[string]float64)}
	spanLayers(buildTrees(spans), []workerResult{{hitSelf: hits}}, rep)
	for name, want := range map[string]float64{
		"trace.client_open_mean_us": 55, // 50 hits of 10 us and 50 fetches of 100 us
		"trace.budget_ratio":        1,
		"cluster.forward_us_p50":    40,
		"cluster.self_us_p50":       10,
		"kernel.loopback_us_p50":    20,
	} {
		if got := rep.values[name]; got < want*0.98 || got > want*1.02 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestAttributeTellsWorkersApartByPath(t *testing.T) {
	tr := newTracer(2)
	a, b := "/a", "/b"
	tr.cursors[0].path.Store(&a)
	tr.cursors[0].op.Store(opID(0, 1))
	tr.cursors[1].path.Store(&b)
	tr.cursors[1].op.Store(opID(1, 1))

	if got := tr.attribute(0, "/a", true); got != opID(0, 1) {
		t.Errorf("handled call at node 0 attributed to %x", got)
	}
	if got := tr.attribute(0, "/a", false); got != 0 {
		t.Errorf("second route span at node 0 for the same op attributed to %x", got)
	}
	if got := tr.attribute(0, "/b", false); got != opID(1, 1) {
		t.Errorf("worker 1's forwarded open at node 0 attributed to %x", got)
	}
	if got := tr.attribute(2, "/b", false); got != opID(1, 1) {
		t.Errorf("worker 1's forwarded open at node 2 attributed to %x", got)
	}
	if got := tr.attribute(1, "/zzz", true); got != 0 {
		t.Errorf("unknown path attributed to %x", got)
	}
	tr.cursors[1].op.Store(0)
	if got := tr.attribute(1, "/b", false); got != 0 {
		t.Errorf("call outside the measured phase attributed to %x", got)
	}
}

func TestWriteTraceLinksParents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "cluster3", 1, buildTrees(forwardedOp(opID(0, 1))), 10); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc traceFile
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 7 {
		t.Fatalf("%d spans written, want 7", len(doc.Spans))
	}
	byID := make(map[int]traceSpan)
	for _, s := range doc.Spans {
		byID[s.ID] = s
	}
	for _, s := range doc.Spans {
		if s.Name == "client.open" {
			if s.Parent != 0 {
				t.Errorf("root has parent %d", s.Parent)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok || p.StartNs > s.StartNs || p.EndNs < s.EndNs {
			t.Errorf("%s [%d,%d] is not inside its parent %+v", s.Name, s.StartNs, s.EndNs, p)
		}
	}
}
