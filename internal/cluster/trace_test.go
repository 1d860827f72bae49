package cluster

import (
	"fmt"
	"testing"
	"time"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs/otrace"
)

// collectTrace polls the given tracers until the union of their spans
// for trace (hi, lo) reaches at least want spans, or the deadline
// passes. Server-side spans are recorded after the reply is written, so
// a client that just got its answer can race the last Record by a few
// microseconds — polling, not sleeping, keeps the test fast and honest.
func collectTrace(t *testing.T, tracers []*otrace.Tracer, hi, lo uint64, want int) []otrace.Span {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var spans []otrace.Span
		for _, tr := range tracers {
			spans = append(spans, tr.TraceSpans(hi, lo)...)
		}
		if len(spans) >= want || time.Now().After(deadline) {
			return spans
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClusterTraceResolvesOnOwner is the acceptance test for
// wire-propagated tracing on a ring: one sampled open of a path another
// node owns must yield a single trace of two spans — the client's root
// and the owner's serving span beneath it, recorded on the owner and on
// no other node — stitched only by trace ID.
func TestClusterTraceResolvesOnOwner(t *testing.T) {
	tracers := make([]*otrace.Tracer, 3)
	tc := startCluster(t, 3, func(i int, _ *Config, srv *fsnet.ServerConfig) {
		tracers[i] = otrace.New(otrace.Config{Node: fmt.Sprintf("node%d", i), SampleRate: 1})
		srv.Trace = tracers[i]
	})

	clientTrace := otrace.New(otrace.Config{Node: "client", SampleRate: 1})
	c := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 8, Trace: clientTrace})

	// A path owned by node 1, opened by a client seeded at node 0: the
	// open crosses to node 1 (three tracers standing in for three
	// processes).
	path := tc.pathOwnedBy(t, 1, nil)
	data, err := c.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != testContent(path) {
		t.Fatalf("open returned %q", data)
	}

	// The client's root span identifies the trace.
	croots := clientTrace.Spans()
	if len(croots) != 1 || croots[0].Name != "client_open" || croots[0].Parent != 0 {
		t.Fatalf("client spans = %+v, want one client_open root", croots)
	}
	hi, lo := croots[0].Hi, croots[0].Lo

	all := collectTrace(t, append(tracers, clientTrace), hi, lo, 2)
	var serving []otrace.Span
	for _, s := range all {
		if s.Hi != hi || s.Lo != lo {
			t.Fatalf("span from another trace leaked in: %+v", s)
		}
		if s.Name == "hit" || s.Name == "stage" {
			serving = append(serving, s)
		}
	}
	if len(all) != 2 || len(serving) != 1 {
		t.Fatalf("trace spans = %+v, want the client's root and one serving span", all)
	}
	if n := serving[0].Node; n != "node1" {
		t.Fatalf("serving span recorded on %q, want the owner, node1", n)
	}
	if p := serving[0].Parent; p != croots[0].ID {
		t.Fatalf("serving span's parent = %x, want the client root %x", p, croots[0].ID)
	}
	for i, tr := range tracers {
		if i != 1 && len(tr.TraceSpans(hi, lo)) != 0 {
			t.Errorf("node%d recorded spans of a trace it never served", i)
		}
	}
}

// TestClusterLocalOpenSingleNodeTrace: an open of a path the seed owns
// stays a one-node trace on the seed — client root plus the local serving
// phase, no forward spans anywhere in the fleet.
func TestClusterLocalOpenSingleNodeTrace(t *testing.T) {
	tracers := make([]*otrace.Tracer, 2)
	tc := startCluster(t, 2, func(i int, _ *Config, srv *fsnet.ServerConfig) {
		tracers[i] = otrace.New(otrace.Config{Node: fmt.Sprintf("node%d", i), SampleRate: 1})
		srv.Trace = tracers[i]
	})
	clientTrace := otrace.New(otrace.Config{Node: "client", SampleRate: 1})
	c := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 8, Trace: clientTrace})

	path := tc.pathOwnedBy(t, 0, nil)
	if _, err := c.Open(path); err != nil {
		t.Fatal(err)
	}
	croots := clientTrace.Spans()
	if len(croots) != 1 {
		t.Fatalf("client spans = %+v", croots)
	}
	hi, lo := croots[0].Hi, croots[0].Lo
	all := collectTrace(t, tracers, hi, lo, 1)
	for _, s := range all {
		if s.Name == "forward" || s.Name == "forward_rpc" {
			t.Fatalf("local open produced a forward span: %+v", s)
		}
		if s.Node != "node0" {
			t.Fatalf("local open recorded on %q: %+v", s.Node, s)
		}
	}
	if len(all) == 0 {
		t.Fatal("owner recorded no serving span for the traced open")
	}
}

// TestClusterUntracedStaysZero: with tracers wired but head sampling
// disabled, a normal open mints nothing and records nothing — the
// zero-alloc contract's behavioral half.
func TestClusterUntracedStaysZero(t *testing.T) {
	tracers := make([]*otrace.Tracer, 2)
	tc := startCluster(t, 2, func(i int, _ *Config, srv *fsnet.ServerConfig) {
		tracers[i] = otrace.New(otrace.Config{Node: fmt.Sprintf("node%d", i), SampleRate: -1})
		srv.Trace = tracers[i]
	})
	clientTrace := otrace.New(otrace.Config{Node: "client", SampleRate: -1})
	c := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 8, Trace: clientTrace})

	for f := 0; f < 8; f++ {
		if _, err := c.Open(fmt.Sprintf("/data/f%03d", f)); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range append(tracers, clientTrace) {
		if st := tr.Stats(); st.Recorded != 0 {
			t.Fatalf("tracer %d recorded %d spans with sampling off", i, st.Recorded)
		}
	}
}
