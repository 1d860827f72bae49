package workload

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/entropy"
	"aggcache/internal/trace"
)

func gen(t *testing.T, p Profile, opens int) *trace.Trace {
	t.Helper()
	tr, err := Standard(p, 1, opens)
	if err != nil {
		t.Fatalf("Standard(%s): %v", p, err)
	}
	return tr
}

func TestGenerateOpensBudget(t *testing.T) {
	for _, p := range Profiles() {
		tr := gen(t, p, 5000)
		if got := len(tr.OpenIDs()); got != 5000 {
			t.Errorf("%s: opens = %d, want 5000", p, got)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := gen(t, ProfileServer, 3000)
	b := gen(t, ProfileServer, 3000)
	if len(a.Events) != len(b.Events) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("same seed diverged at event %d", i)
		}
	}
	c, err := Standard(ProfileServer, 2, 3000)
	if err != nil {
		t.Fatal(err)
	}
	same := len(c.Events) == len(a.Events)
	if same {
		same = false
		for i := range a.Events {
			if a.Events[i] != c.Events[i] {
				same = false
				break
			}
			same = true
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

// returnsWithin runs f and fails t if it panics or has not returned by the
// deadline: a count that slips past validation can make a generator spin.
func returnsWithin(t *testing.T, name string, f func() error) error {
	t.Helper()
	type result struct {
		err      error
		panicked any
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- result{panicked: r}
			}
		}()
		done <- result{err: f()}
	}()
	select {
	case r := <-done:
		if r.panicked != nil {
			t.Fatalf("%s panicked: %v", name, r.panicked)
		}
		return r.err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no return within 5 s", name)
	}
	return nil
}

// TestGenerateValidation: Generate is reachable through the public
// facade, so a bad count must come back as an error, not as a panic
// inside math/rand or a loop that never emits.
func TestGenerateValidation(t *testing.T) {
	if _, err := ProfileConfig("bogus", 1, 100); err == nil {
		t.Error("bogus profile accepted")
	}
	nan := math.NaN()
	bad := []Config{
		{Opens: -1},
		{Clients: -2},
		{ZipfS: 0.5, Tasks: 10, TaskLen: 5},
		{Noise: 1.5},
		{WriteFraction: -0.1},
		{ChurnProb: 2},
		{FreshProb: -1},
		{InterleaveChunk: -1},
		{SharedFiles: -1},
		{NoiseUniverse: -3},
		{Tasks: -1},
		{TaskLen: -1},
		{PhaseEvery: -1},
		{ZipfS: nan},
		{Noise: nan},
		{ChurnProb: nan},
		{FreshProb: nan},
		{WriteFraction: nan},
	}
	for _, cfg := range bad {
		name := fmt.Sprintf("Generate(%+v)", cfg)
		if err := returnsWithin(t, name, func() error { _, err := Generate(cfg); return err }); err == nil {
			t.Errorf("%s succeeded", name)
		}
	}
	// The smallest valid counts still generate.
	tiny := Config{Opens: 100, Clients: 1, InterleaveChunk: 1, Tasks: 1, TaskLen: 1, SharedFiles: 1, NoiseUniverse: 1, Noise: 0.5}
	if err := returnsWithin(t, "tiny", func() error { _, err := Generate(tiny); return err }); err != nil {
		t.Errorf("Generate(%+v): %v", tiny, err)
	}
}

// TestGenerateNeverRegrows: Generate sizes Trace.Events once, before the
// first emit, so a trace that had to regrow it would end with a larger
// capacity than the budget.
func TestGenerateNeverRegrows(t *testing.T) {
	for _, p := range Profiles() {
		for _, opens := range []int{1000, 100000, 1000000} {
			cfg, err := ProfileConfig(p, 1, opens)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if budget := cfg.eventBudget(); cap(tr.Events) != budget {
				t.Errorf("%s/%d: cap(Events) = %d after %d events, want the budget %d", p, opens, cap(tr.Events), len(tr.Events), budget)
			}
		}
	}
	web, err := GenerateWeb(WebConfig{Seed: 1, Requests: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if len(web.Events) != 10000 || cap(web.Events) != 10000 {
		t.Errorf("web: len %d cap %d, want both 10000", len(web.Events), cap(web.Events))
	}
}

// TestGapIsIntn: gap is math/rand's Intn with the bound folded into a
// constant, so it must consume the same draws and return the same values.
func TestGapIsIntn(t *testing.T) {
	g := &generator{rng: rand.New(rand.NewSource(3))}
	ref := rand.New(rand.NewSource(3))
	for i := 0; i < 1000000; i++ {
		if got, want := g.gap(), time.Duration(1+ref.Intn(maxGap))*time.Microsecond; got != want {
			t.Fatalf("draw %d: gap %v, Intn says %v", i, got, want)
		}
	}
}

// BenchmarkGenerate times trace synthesis per event: the server profile at
// 1 M opens, the shape the repository benchmark's client_hot workload
// generates one trace per worker of.
func BenchmarkGenerate(b *testing.B) {
	cfg, err := ProfileConfig(ProfileServer, 1, 1000000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		tr, err := Generate(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += len(tr.Events)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
	b.ReportMetric(float64(ms.TotalAlloc-before)/float64(events), "B/event")
}

func TestGenerateDefaults(t *testing.T) {
	tr, err := Generate(Config{Opens: 1000, ZipfS: 1.3})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.OpenIDs()) != 1000 {
		t.Errorf("opens = %d, want 1000", len(tr.OpenIDs()))
	}
}

// Calibration: the structural properties the paper's experiments rely on.

func TestCalibrationAccessSkew(t *testing.T) {
	for _, p := range Profiles() {
		s := trace.Summarize(gen(t, p, 20000))
		if s.Top10Share < 0.3 {
			t.Errorf("%s: Top10Share = %.3f, want >= 0.3 (heavy skew)", p, s.Top10Share)
		}
		if s.RepeatFraction < 0.5 {
			t.Errorf("%s: RepeatFraction = %.3f, want >= 0.5", p, s.RepeatFraction)
		}
	}
}

func TestCalibrationWriteProfileWritesMost(t *testing.T) {
	writeStats := trace.Summarize(gen(t, ProfileWrite, 15000))
	for _, p := range []Profile{ProfileServer, ProfileWorkstation, ProfileUsers} {
		s := trace.Summarize(gen(t, p, 15000))
		if writeStats.WriteFraction <= s.WriteFraction {
			t.Errorf("write profile write fraction %.3f <= %s %.3f",
				writeStats.WriteFraction, p, s.WriteFraction)
		}
	}
}

func TestCalibrationUsersHasMostClients(t *testing.T) {
	s := trace.Summarize(gen(t, ProfileUsers, 10000))
	if s.Clients < 4 {
		t.Errorf("users clients = %d, want several", s.Clients)
	}
	for _, p := range []Profile{ProfileServer, ProfileWorkstation} {
		if got := trace.Summarize(gen(t, p, 10000)).Clients; got != 1 {
			t.Errorf("%s clients = %d, want 1", p, got)
		}
	}
}

// The paper's Figure 7 ordering: the server workload is by far the most
// predictable (successor entropy well under 1 bit at symbol length 1);
// every other profile is strictly less predictable.
func TestCalibrationEntropyOrdering(t *testing.T) {
	const opens = 30000
	bits := make(map[Profile]float64, 4)
	for _, p := range Profiles() {
		r, err := entropy.SuccessorEntropy(gen(t, p, opens).OpenIDs(), 1)
		if err != nil {
			t.Fatal(err)
		}
		bits[p] = r.Bits
		t.Logf("%s: successor entropy = %.3f bits", p, r.Bits)
	}
	if bits[ProfileServer] >= 1.0 {
		t.Errorf("server entropy = %.3f, want < 1 bit (paper §4.5)", bits[ProfileServer])
	}
	for _, p := range []Profile{ProfileWorkstation, ProfileUsers, ProfileWrite} {
		if bits[p] <= bits[ProfileServer] {
			t.Errorf("%s entropy %.3f <= server %.3f; server must be most predictable",
				p, bits[p], bits[ProfileServer])
		}
	}
}

// The paper's headline client-side result: on the server workload, a g5
// aggregating cache cuts demand fetches dramatically versus plain LRU; on
// the write workload the gain exists but is the most modest.
func TestCalibrationGroupingGains(t *testing.T) {
	reduction := func(p Profile) float64 {
		ids := gen(t, p, 30000).OpenIDs()
		run := func(g int) uint64 {
			agg, err := core.New(core.Config{Capacity: 300, GroupSize: g})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				agg.Access(id)
			}
			return agg.Stats().DemandFetches()
		}
		lru := run(1)
		g5 := run(5)
		return 1 - float64(g5)/float64(lru)
	}
	server := reduction(ProfileServer)
	write := reduction(ProfileWrite)
	t.Logf("fetch reduction: server=%.1f%% write=%.1f%%", 100*server, 100*write)
	if server < 0.40 {
		t.Errorf("server g5 reduction = %.1f%%, want >= 40%%", 100*server)
	}
	if write <= 0 {
		t.Errorf("write g5 reduction = %.1f%%, want > 0", 100*write)
	}
	if write >= server {
		t.Errorf("write reduction %.1f%% >= server %.1f%%; server must gain most",
			100*write, 100*server)
	}
}
