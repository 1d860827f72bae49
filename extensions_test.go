package aggcache

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestFacadePrefetchBaselines(t *testing.T) {
	preds := []Predictor{
		NewLastSuccessorPredictor(),
		NewFirstSuccessorPredictor(),
	}
	pg, err := NewProbabilityGraphPredictor(3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	preds = append(preds, pg)
	for _, p := range preds {
		c, err := NewPrefetchingCache(16, 3, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for round := 0; round < 5; round++ {
			for _, id := range []FileID{1, 2, 3, 4} {
				c.Access(id)
			}
		}
		s := c.Stats()
		if s.Hits+s.Misses != 20 {
			t.Errorf("%s: accesses = %d", p.Name(), s.Hits+s.Misses)
		}
	}
}

func TestFacadePlacement(t *testing.T) {
	seq := []FileID{1, 2, 3, 1, 2, 3, 4, 5}
	tr, err := NewTracker(SuccessorLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr.ObserveAll(seq)
	b, err := NewGroupBuilder(tr, 3, StrategyChain)
	if err != nil {
		t.Fatal(err)
	}
	cover := BuildCover(tr, b, seq)

	for _, l := range []*Layout{
		SequentialLayout(seq), OrganPipeLayout(seq), GroupedLayout(cover, seq),
	} {
		c, err := SeekCost(l, seq)
		if err != nil {
			t.Fatal(err)
		}
		if c.Seeks != uint64(len(seq)-1) {
			t.Errorf("Seeks = %d, want %d", c.Seeks, len(seq)-1)
		}
	}
}

func TestFacadeHoard(t *testing.T) {
	tr, err := NewTracker(SuccessorLFU, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := []FileID{1, 2, 3, 1, 2, 3, 1, 2, 3}
	tr.ObserveAll(seq)
	h, err := BuildHoard(tr, HoardGroupClosure, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 3 {
		t.Errorf("hoard len = %d, want 3", h.Len())
	}
	if r := EvaluateHoard(h, seq); r.Misses != 0 {
		t.Errorf("misses = %d, want 0", r.Misses)
	}
	if r := EvaluateHoardRuns(h, [][]FileID{{1, 2, 3}, {1, 9}}); r.Complete != 1 {
		t.Errorf("complete = %d, want 1", r.Complete)
	}
	if _, err := BuildHoard(tr, HoardFrequency, 2, 1); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeViz(t *testing.T) {
	tr := NewTrace()
	for _, p := range []string{"/a", "/b", "/a", "/b", "/a", "/c"} {
		tr.Append(Event{Op: OpOpen}, p)
	}
	entries := ProfileFiles(tr, 2)
	if len(entries) != 2 {
		t.Fatalf("entries = %d", len(entries))
	}
	var buf bytes.Buffer
	if err := WriteFileReport(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "/a") {
		t.Error("report missing file")
	}
	buf.Reset()
	if err := WriteFileBarsSVG(&buf, entries); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("not an SVG")
	}

	ws, err := EntropyWindows(tr.OpenIDs(), 3)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteEntropyTimelineSVG(&buf, ws); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("timeline not an SVG")
	}
}

func TestFacadeDFSImportAndMerge(t *testing.T) {
	in := "1.0 hostA 1 2 open /x\n2.0 hostA 1 2 open /y\n"
	tr, imp, err := ReadDFSTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if imp.Records != 2 || tr.Len() != 2 {
		t.Fatalf("import = %+v", imp)
	}
	other := NewTrace()
	other.Append(Event{Op: OpOpen, Client: 2}, "/z")
	merged, err := MergeTraces(tr, other)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3 {
		t.Errorf("merged len = %d", merged.Len())
	}
	split := SplitTraceByClient(merged)
	if len(split) != 2 {
		t.Errorf("split clients = %d", len(split))
	}
}

func TestFacadeHierarchy(t *testing.T) {
	// §4.3's two-level hierarchy is SimulateServer priced per open: LRU(2)
	// serves the second 1 and 2, and the aggregating server, which has
	// learned nothing yet, misses 1, 2 and 3.
	seq := []FileID{1, 2, 1, 2, 3}
	res, err := SimulateServer(seq, ServerSimConfig{
		FilterCapacity: 2,
		ServerCapacity: 4,
		Scheme:         ServerAggregating,
		GroupSize:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Opens != 5 || res.ClientMisses != 3 || res.ServerHits != 0 {
		t.Errorf("result = %+v, want 5 opens, 3 client misses, 0 server hits", res)
	}
	if got, want := res.MeanLatency(time.Millisecond, 2*time.Millisecond, 10*time.Millisecond), (2*time.Millisecond+3*10*time.Millisecond)/5; got != want {
		t.Errorf("MeanLatency = %v, want %v", got, want)
	}
	if _, err := SimulateServer(seq, ServerSimConfig{}); err == nil {
		t.Error("empty configuration accepted")
	}
	// PPM predictor is exposed too.
	ppm, err := NewPPMPredictor(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range seq {
		ppm.Observe(id)
	}
	if ppm.Name() == "" {
		t.Error("ppm name empty")
	}
}

func TestFacadePersistence(t *testing.T) {
	tk, err := NewTracker(SuccessorLRU, 3)
	if err != nil {
		t.Fatal(err)
	}
	tk.ObserveAll([]FileID{1, 2, 3, 1, 2, 3})
	var buf bytes.Buffer
	if err := SaveTracker(tk, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTracker(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := back.First(1); !ok || f != 2 {
		t.Errorf("restored First(1) = %d,%v", f, ok)
	}
	// Aggregating cache metadata round trip.
	c, err := New(Config{Capacity: 8, GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []FileID{1, 2, 3, 1, 2, 3} {
		c.Access(id)
	}
	buf.Reset()
	if err := c.SaveMetadata(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := New(Config{Capacity: 8, GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadMetadata(&buf, math.MaxInt); err != nil {
		t.Fatal(err)
	}
	g := c2.AppendGroup(nil, 1)
	if len(g) != 3 || g[1] != 2 {
		t.Errorf("restored AppendGroup = %v", g)
	}
}

func TestFacadeMultiServerAndEvents(t *testing.T) {
	tr, err := StandardWorkload(ProfileUsers, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateServerMulti(tr.Events, ServerSimConfig{
		FilterCapacity: 50, ServerCapacity: 200, Scheme: ServerAggregating})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clients < 2 || res.ClientMisses == 0 {
		t.Errorf("result = %+v", res)
	}
	merged, err := EvaluateSuccessorPolicyEvents(tr.Events, SuccessorLRU, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	perClient, err := EvaluateSuccessorPolicyEvents(tr.Events, SuccessorLRU, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if perClient.MissProbability() >= merged.MissProbability() {
		t.Errorf("per-client %.3f not below merged %.3f",
			perClient.MissProbability(), merged.MissProbability())
	}
	// Higher-order conditional entropy is exposed.
	r, err := ConditionalEntropy(tr.OpenIDs(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bits < 0 {
		t.Errorf("Bits = %v", r.Bits)
	}
}
