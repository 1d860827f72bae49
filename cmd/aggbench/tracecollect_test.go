package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aggcache/internal/obs/otrace"
)

// traceNode serves one tracer's /traces and /trace/<id> the way the
// aggserve stats mux does, and returns its host:port.
func traceNode(t *testing.T, tr *otrace.Tracer) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/traces", tr.SummariesHandler())
	mux.Handle("/trace/", tr.TraceHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestCollectTracesStitchesWidestFirst: a trace whose spans live on two
// nodes is joined into one document listing both, ahead of a single-node
// trace; a node that took no part (404) contributes nothing.
func TestCollectTracesStitchesWidestFirst(t *testing.T) {
	a := otrace.New(otrace.Config{Node: "a", SampleRate: 1})
	b := otrace.New(otrace.Config{Node: "b", SampleRate: 1})
	idle := otrace.New(otrace.Config{Node: "idle", SampleRate: 1})
	t0 := time.Unix(100, 0)

	// A forwarded open: entry span on a, the owner's child span on b.
	entry := a.Root()
	owner := b.Child(entry)
	a.Record(entry, "forward", "/p", t0, 3*time.Millisecond)
	b.Record(owner, "stage", "/p", t0.Add(time.Millisecond), time.Millisecond)
	// A local open that never left a.
	local := a.Record(a.Root(), "hit", "/q", t0.Add(time.Second), time.Millisecond)

	var out bytes.Buffer
	addrs := []string{traceNode(t, a), traceNode(t, b), traceNode(t, idle)}
	if err := collectTraces(addrs, 2, &out); err != nil {
		t.Fatalf("collectTraces: %v", err)
	}
	var got []stitchedTrace
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("output is not a JSON trace list: %v\n%s", err, out.String())
	}
	if len(got) != 2 {
		t.Fatalf("stitched %d traces, want 2", len(got))
	}
	wide := got[0]
	if wide.TraceID != entry.TraceID() {
		t.Errorf("widest trace = %s, want the forwarded open %s", wide.TraceID, entry.TraceID())
	}
	if len(wide.Nodes) != 2 || wide.Nodes[0] != "a" || wide.Nodes[1] != "b" {
		t.Errorf("widest trace nodes = %v, want [a b]", wide.Nodes)
	}
	if len(wide.Spans) != 2 || wide.Spans[0].Name != "forward" || wide.Spans[1].Name != "stage" {
		t.Fatalf("widest trace spans = %+v, want forward then stage", wide.Spans)
	}
	if wide.Spans[1].Parent != wide.Spans[0].SpanID {
		t.Errorf("owner span's parent = %q, want the entry span %q", wide.Spans[1].Parent, wide.Spans[0].SpanID)
	}
	if got[1].TraceID != local.TraceID() || len(got[1].Nodes) != 1 || got[1].Nodes[0] != "a" {
		t.Errorf("second trace = %s on %v, want the local open %s on [a]", got[1].TraceID, got[1].Nodes, local.TraceID())
	}
	// The smoke script reads the widest trace's ID as the first
	// "trace_id" of the indented output.
	if first := strings.Index(out.String(), `"trace_id": "`+wide.TraceID+`"`); first < 0 || first != strings.Index(out.String(), `"trace_id"`) {
		t.Errorf("output does not lead with the widest trace's ID:\n%s", out.String())
	}
}

// TestCollectTracesMinNodes: the traces are still written, then the run
// fails, when nothing spans the demanded number of nodes.
func TestCollectTracesMinNodes(t *testing.T) {
	a := otrace.New(otrace.Config{Node: "a", SampleRate: 1})
	a.Record(a.Root(), "hit", "/q", time.Unix(100, 0), time.Millisecond)
	var out bytes.Buffer
	err := collectTraces([]string{traceNode(t, a)}, 2, &out)
	if err == nil || !strings.Contains(err.Error(), "want at least 2") {
		t.Errorf("err = %v, want a min-nodes failure", err)
	}
	var got []stitchedTrace
	if jerr := json.Unmarshal(out.Bytes(), &got); jerr != nil || len(got) != 1 {
		t.Errorf("output = %q (%v), want the one single-node trace", out.String(), jerr)
	}
	if err := collectTraces([]string{traceNode(t, a)}, 1, &out); err != nil {
		t.Errorf("min-nodes 1 over a single-node trace: %v", err)
	}
}

// TestCollectTracesUnreachableNode: a scrape that cannot reach a listed
// address fails instead of reporting a partial fleet.
func TestCollectTracesUnreachableNode(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	addr := strings.TrimPrefix(dead.URL, "http://")
	dead.Close()
	var out bytes.Buffer
	if err := collectTraces([]string{addr}, 1, &out); err == nil {
		t.Error("collectTraces succeeded against a closed address")
	}
	if err := collectTraces(nil, 1, &out); err == nil {
		t.Error("collectTraces succeeded with no addresses")
	}
}
