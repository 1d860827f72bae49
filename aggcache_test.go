package aggcache

import (
	"bytes"
	"fmt"
	"net"
	"testing"

	"aggcache/internal/cache"
)

// TestFacadeQuickstart exercises the README quickstart end to end through
// the public API only.
func TestFacadeQuickstart(t *testing.T) {
	tr, err := StandardWorkload(ProfileServer, 1, 10000)
	if err != nil {
		t.Fatal(err)
	}
	ids := tr.OpenIDs()

	lru, err := New(Config{Capacity: 300, GroupSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	agg, err := New(Config{Capacity: 300, GroupSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		lru.Access(id)
		agg.Access(id)
	}
	if agg.Stats().DemandFetches() >= lru.Stats().DemandFetches() {
		t.Errorf("grouping did not reduce fetches: %d vs %d",
			agg.Stats().DemandFetches(), lru.Stats().DemandFetches())
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	tr := NewTrace()
	tr.Append(Event{Op: OpOpen}, "/bin/sh")
	tr.Append(Event{Op: OpWrite}, "/tmp/out")

	var text, bin bytes.Buffer
	if err := WriteTraceText(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadTraceText(&text)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadTraceBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if fromText.Len() != 2 || fromBin.Len() != 2 {
		t.Errorf("round trips lost events: %d, %d", fromText.Len(), fromBin.Len())
	}
	if s := SummarizeTrace(tr); s.Opens != 1 || s.Writes != 1 {
		t.Errorf("SummarizeTrace = %+v", s)
	}
}

func TestFacadeMetadataAndEntropy(t *testing.T) {
	tr, err := NewTracker(SuccessorLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := []FileID{1, 2, 3, 1, 2, 3, 1, 2, 3}
	tr.ObserveAll(seq)
	if f, ok := tr.First(1); !ok || f != 2 {
		t.Errorf("First(1) = %d,%v", f, ok)
	}
	g := BuildGraph(tr)
	if len(g.Nodes()) == 0 {
		t.Error("empty graph")
	}
	ev, err := EvaluateSuccessorPolicy(seq, SuccessorOracle, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MissProbability() >= 1 {
		t.Errorf("oracle miss probability = %v", ev.MissProbability())
	}
	r, err := SuccessorEntropy(seq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits != 0 {
		t.Errorf("deterministic cycle entropy = %v, want 0", r.Bits)
	}
	rs, err := EntropySweep(seq, []int{1, 2})
	if err != nil || len(rs) != 2 {
		t.Fatalf("EntropySweep = %v, %v", rs, err)
	}
}

func TestFacadeGroupBuilder(t *testing.T) {
	tr, err := NewTracker(SuccessorLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr.ObserveAll([]FileID{1, 2, 3, 1, 2, 3})
	b, err := NewGroupBuilder(tr, 3, StrategyChain)
	if err != nil {
		t.Fatal(err)
	}
	g := b.Build(1)
	if len(g) != 3 || g[0] != 1 {
		t.Errorf("Build = %v", g)
	}
	cover := BuildCover(tr, b, []FileID{1, 2, 3})
	if !cover.Covers(2) {
		t.Error("cover misses file 2")
	}
}

func TestFacadeSimulation(t *testing.T) {
	tr, err := StandardWorkload(ProfileWorkstation, 2, 6000)
	if err != nil {
		t.Fatal(err)
	}
	ids := tr.OpenIDs()
	cr, err := SimulateClient(ids, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Fetches == 0 {
		t.Error("no fetches")
	}
	sr, err := SimulateServer(ids, ServerSimConfig{
		FilterCapacity: 100, ServerCapacity: 300, Scheme: ServerAggregating})
	if err != nil {
		t.Fatal(err)
	}
	if sr.ClientMisses == 0 {
		t.Error("no client misses")
	}
	misses, err := FilterLRU(ids, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(misses) == 0 || len(misses) >= len(ids) {
		t.Errorf("FilterLRU = %d of %d", len(misses), len(ids))
	}
}

func TestFacadeBaselines(t *testing.T) {
	for _, p := range cache.Policies {
		c, err := NewBaseline(p, 4)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		c.Access(1)
		if !c.Contains(1) {
			t.Errorf("%s: lost just-inserted file", p)
		}
	}
}

func TestFacadeNetwork(t *testing.T) {
	store := NewStore()
	for i := 0; i < 5; i++ {
		if err := store.Put(fmt.Sprintf("/f%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(store, ServerConfig{GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	client, err := Dial(l.Addr().String(), ClientConfig{CacheCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	data, err := client.Open("/f0")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 1 || data[0] != 0 {
		t.Errorf("data = %v", data)
	}
}
