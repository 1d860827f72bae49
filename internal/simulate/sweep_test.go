package simulate

import (
	"fmt"
	"sync/atomic"
	"testing"

	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

func benchIDs(b *testing.B, opens int) []trace.FileID {
	b.Helper()
	tr, err := workload.Standard(workload.ProfileServer, 1, opens)
	if err != nil {
		b.Fatal(err)
	}
	return tr.OpenIDs()
}

func TestOptionsWorkers(t *testing.T) {
	if got := (Options{Parallelism: 3}).workers(); got != 3 {
		t.Errorf("workers(3) = %d", got)
	}
	if got := (Options{}).workers(); got < 1 {
		t.Errorf("default workers = %d, want >= 1", got)
	}
	if got := (Options{Parallelism: -2}).workers(); got < 1 {
		t.Errorf("negative parallelism workers = %d, want >= 1", got)
	}
}

func TestRunCellsCoversAllCells(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		const n = 100
		var hits [n]atomic.Int32
		err := ForEach(n, Options{Parallelism: par}, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("par=%d: cell %d ran %d times", par, i, got)
			}
		}
	}
}

// The lowest-indexed error must win regardless of scheduling, so parallel
// and sequential sweeps fail identically.
func TestRunCellsLowestErrorWins(t *testing.T) {
	errAt := func(bad ...int) func(int) error {
		return func(i int) error {
			for _, b := range bad {
				if i == b {
					return fmt.Errorf("cell %d failed", i)
				}
			}
			return nil
		}
	}
	for _, par := range []int{1, 2, 8} {
		err := ForEach(64, Options{Parallelism: par}, errAt(40, 7, 55))
		if err == nil {
			t.Fatalf("par=%d: no error", par)
		}
		// With workers racing, a higher-indexed failure may stop the pool
		// before cell 7 is ever claimed — but any error that IS claimed at
		// a lower index must take precedence. Sequentially it is always 7.
		if par == 1 && err.Error() != "cell 7 failed" {
			t.Errorf("sequential error = %v, want cell 7", err)
		}
	}
}

func TestRunCellsZeroCells(t *testing.T) {
	called := false
	if err := ForEach(0, Options{}, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("cell invoked for n = 0")
	}
}

// The tentpole's determinism contract: a parallel sweep produces results
// bit-identical to the sequential sweep. Run with -race this also shakes
// out data races between cells.
func TestClientSweepParallelMatchesSequential(t *testing.T) {
	ids := serverIDs(t, 12000)
	groups := []int{1, 3, 5, 7}
	caps := []int{100, 200, 400}
	seq, err := ClientSweep(ids, groups, caps, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ClientSweep(ids, groups, caps, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Errorf("cell %d,%d: sequential %+v != parallel %+v", i, j, seq[i][j], par[i][j])
			}
		}
	}
}

func TestServerSweepParallelMatchesSequential(t *testing.T) {
	ids := serverIDs(t, 12000)
	schemes := []ServerConfig{
		{ServerCapacity: 200, Scheme: SchemeLRU},
		{ServerCapacity: 200, Scheme: SchemeLFU},
		{ServerCapacity: 200, Scheme: SchemeAggregating, GroupSize: 5},
	}
	filters := []int{50, 100, 200, 300}
	seq, err := ServerSweep(ids, schemes, filters, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := ServerSweep(ids, schemes, filters, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Errorf("cell %d,%d: sequential %+v != parallel %+v", i, j, seq[i][j], par[i][j])
			}
		}
	}
}

func TestSweepErrorSurfaced(t *testing.T) {
	ids := serverIDs(t, 2000)
	// Capacity 0 in one cell must fail the whole sweep, in parallel too.
	if _, err := ClientSweep(ids, []int{1, 5}, []int{100, 0}, Options{Parallelism: 4}); err == nil {
		t.Error("parallel client sweep swallowed a cell error")
	}
	bad := []ServerConfig{{ServerCapacity: 100, Scheme: "nope"}}
	if _, err := ServerSweep(ids, bad, []int{100}, Options{Parallelism: 4}); err == nil {
		t.Error("parallel server sweep swallowed a cell error")
	}
}

var errSink error

// BenchmarkClientSweep compares a sequential Figure-3 grid against the
// worker-pool fan-out; the parallel/sequential ns/op ratio is the sweep
// engine's speedup on this machine (bounded by GOMAXPROCS).
func BenchmarkClientSweep(b *testing.B) {
	ids := benchIDs(b, 20000)
	groups := []int{1, 2, 3, 5, 7, 10}
	caps := []int{100, 200, 400, 800}
	for _, bc := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errSink = ClientSweep(ids, groups, caps, Options{Parallelism: bc.par})
				if errSink != nil {
					b.Fatal(errSink)
				}
			}
		})
	}
}

func BenchmarkServerSweep(b *testing.B) {
	ids := benchIDs(b, 20000)
	schemes := []ServerConfig{
		{ServerCapacity: 300, Scheme: SchemeLRU},
		{ServerCapacity: 300, Scheme: SchemeLFU},
		{ServerCapacity: 300, Scheme: SchemeAggregating, GroupSize: 5},
	}
	filters := []int{50, 100, 200, 300, 600}
	for _, bc := range []struct {
		name string
		par  int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, errSink = ServerSweep(ids, schemes, filters, Options{Parallelism: bc.par})
				if errSink != nil {
					b.Fatal(errSink)
				}
			}
		})
	}
}
