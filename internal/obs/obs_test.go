package obs

import (
	"math/bits"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	g := NewGauge()
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("Load = %d, want 4", got)
	}
}

func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var l *EventLog
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(2)
	h.Observe(9)
	h.ObserveDuration(time.Second)
	l.Record("ev", F("k", "v"))
	l.SetSink(nil)
	l.SetClock(nil)
	if c.Load() != 0 || g.Load() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Percentile(99) != 0 {
		t.Fatal("nil instruments must load as zero")
	}
	if l.Events() != nil || l.Total() != 0 {
		t.Fatal("nil event log must be empty")
	}
	if r.Counter("x", "") != nil || r.Gauge("x", "") != nil || r.Histogram("x", "") != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	r.GaugeFunc("x", "", func() float64 { return 1 })
	if r.Snapshot() != nil || r.Events() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram()
	// One zero, then one sample per power-of-two band.
	h.Observe(0)
	h.Observe(1)   // bucket 1, bound 1
	h.Observe(2)   // bucket 2, bound 3
	h.Observe(3)   // bucket 2
	h.Observe(100) // bucket 7, bound 127
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("Sum = %d, want 106", got)
	}
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[2] != 2 || s.Buckets[bits.Len64(100)] != 1 {
		t.Fatalf("unexpected bucket layout: %v", s.Buckets[:8])
	}
	if s.Count != 5 || s.Sum != 106 {
		t.Fatalf("snapshot totals = %d/%d, want 5/106", s.Count, s.Sum)
	}
}

// TestHistogramPercentileMatchesAggbench locks in the exact percentile
// math the aggbench histogram used before extraction: the reported
// value is the inclusive upper bound (2^i - 1) of the bucket holding
// the rank-th sample.
func TestHistogramPercentileMatchesAggbench(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7, bound 127
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket 17, bound 131071
	}
	if got := h.Percentile(50); got != 127 {
		t.Fatalf("p50 = %d, want 127", got)
	}
	if got := h.Percentile(95); got != 131071 {
		t.Fatalf("p95 = %d, want 131071", got)
	}
	if got := h.Percentile(100); got != 131071 {
		t.Fatalf("p100 = %d, want 131071", got)
	}
	if got := h.Snapshot().Percentile(50); got != 127 {
		t.Fatalf("snapshot p50 = %d, want 127", got)
	}
}

func TestHistogramObserveDuration(t *testing.T) {
	h := NewHistogram()
	h.ObserveDuration(-time.Second) // clamps to zero
	h.ObserveDuration(1500 * time.Nanosecond)
	if h.Count() != 2 {
		t.Fatalf("Count = %d, want 2", h.Count())
	}
	if h.Sum() != 1500 {
		t.Fatalf("Sum = %d, want 1500", h.Sum())
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs_total", "requests")
	b := r.Counter("reqs_total", "requests")
	if a != b {
		t.Fatal("same name+labels must return the same counter")
	}
	l1 := r.Counter("labeled_total", "", L("peer", "a"))
	l2 := r.Counter("labeled_total", "", L("peer", "b"))
	if l1 == l2 {
		t.Fatal("distinct label values must be distinct series")
	}
	// LiveCounter is the same registered series; from a nil registry it
	// is a working standalone counter where Counter hands out nil.
	if r.LiveCounter("reqs_total", "requests") != a {
		t.Fatal("LiveCounter must return the registered series")
	}
	var none *Registry
	live := none.LiveCounter("reqs_total", "requests")
	live.Add(2)
	if live.Load() != 2 || none.Counter("reqs_total", "requests") != nil {
		t.Fatal("nil registry: LiveCounter must count, Counter must stay nil")
	}
	// Label order must not matter.
	x := r.Gauge("multi", "", L("a", "1"), L("b", "2"))
	y := r.Gauge("multi", "", L("b", "2"), L("a", "1"))
	if x != y {
		t.Fatal("label order must not create a new series")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("thing_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("thing_total", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "has space", "dash-ed", "ünicode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("name %q must panic", bad)
				}
			}()
			r.Counter(bad, "")
		}()
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help c").Add(3)
	r.Gauge("g", "help g").Set(-2)
	r.Histogram("h_ns", "help h").Observe(10)
	r.GaugeFunc("gf", "help gf", func() float64 { return 1.5 })
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d samples, want 4", len(snap))
	}
	byName := map[string]Sample{}
	for _, s := range snap {
		byName[s.Name] = s
	}
	if byName["c_total"].Value != 3 || byName["c_total"].Kind != KindCounter {
		t.Fatalf("counter sample wrong: %+v", byName["c_total"])
	}
	if byName["g"].Value != -2 {
		t.Fatalf("gauge sample wrong: %+v", byName["g"])
	}
	if byName["gf"].Value != 1.5 {
		t.Fatalf("gauge-func sample wrong: %+v", byName["gf"])
	}
	if h := byName["h_ns"].Hist; h == nil || h.Count != 1 || h.Sum != 10 {
		t.Fatalf("histogram sample wrong: %+v", byName["h_ns"].Hist)
	}
}

// TestRegistryConcurrent hammers registration, updates, and snapshots
// from many goroutines; run with -race to validate the locking.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			peer := []string{"a", "b", "c"}[g%3]
			for i := 0; i < 500; i++ {
				r.Counter("conc_total", "", L("peer", peer)).Inc()
				r.Histogram("conc_lat_ns", "").Observe(uint64(i))
				r.GaugeFunc("conc_fn", "", func() float64 { return float64(i) })
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total float64
	for _, s := range r.Snapshot() {
		if s.Name == "conc_total" {
			total += s.Value
		}
	}
	if total != 8*500 {
		t.Fatalf("counter total = %v, want %d", total, 8*500)
	}
}

func TestBucketBound(t *testing.T) {
	cases := map[int]uint64{0: 0, 1: 1, 2: 3, 7: 127, 64: 1<<64 - 1, 70: 1<<64 - 1}
	for i, want := range cases {
		if got := bucketBound(i); got != want {
			t.Fatalf("bucketBound(%d) = %d, want %d", i, got, want)
		}
	}
}
