package simulate

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"aggcache/internal/workload"
)

// sweepPinWant is the SHA-256 of every counter of the Fig 3 client cells
// and the Fig 4 server cells TestSweepCountersPinned runs, recorded before
// cache.GroupLRU gained its probation list (Stage).
const sweepPinWant = "52db59825bcb65393b0f84a818eb62b489bbb5b6c3136f04f08cbacff0d96c66"

// TestSweepCountersPinned pins the simulator's paper sweeps digit for
// digit: the Fig 3 client cells (g 1, 2, 3, 5, 10 at capacities 50, 150
// and 300) and the Fig 4 server cells (the g5 aggregating, LRU and LFU
// servers of 300 files behind LRU filters of 50 and 200) on the four
// standard profiles at 12 000 opens: part of the grid sim_sweep measures,
// at a tenth of its opens. They install through cache.GroupLRU's Install
// and Demand only, so nothing the server's Stage does may move a digit.
func TestSweepCountersPinned(t *testing.T) {
	h := sha256.New()
	for _, p := range workload.Profiles() {
		tr, err := workload.Standard(p, 1, 12000)
		if err != nil {
			t.Fatal(err)
		}
		ids := tr.OpenIDs()
		for _, g := range []int{1, 2, 3, 5, 10} {
			for _, c := range []int{50, 150, 300} {
				r, err := RunClient(ids, c, g)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s client g%d c%d %+v\n", p, g, c, r)
			}
		}
		for _, cfg := range []ServerConfig{
			{ServerCapacity: 300, Scheme: SchemeAggregating, GroupSize: 5},
			{ServerCapacity: 300, Scheme: SchemeLRU},
			{ServerCapacity: 300, Scheme: SchemeLFU},
		} {
			for _, f := range []int{50, 200} {
				cfg.FilterCapacity = f
				r, err := RunServer(ids, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(h, "%s server %s f%d %+v\n", p, cfg.Scheme, f, r)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != sweepPinWant {
		t.Errorf("sweep counters digest %s, want %s", got, sweepPinWant)
	}
}
