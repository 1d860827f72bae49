// Command cachesim runs trace-driven cache simulations: the aggregating
// client cache of Figure 3 or the two-level filter/server scenario of
// Figure 4, priced as §4.3's hierarchy at simulate's ClientHitLatency,
// ServerHitLatency and BackendFetchLatency.
//
// The input trace comes either from a file written by tracegen (-trace,
// auto-detecting text vs binary) or is generated on the fly (-profile).
//
// Examples:
//
//	cachesim -profile server -mode client -capacity 300 -group 5
//	cachesim -trace server.trc -mode server -filter 300 -server-capacity 300 -scheme agg
//	cachesim -profile workstation -mode server -filter 100 -server-capacity 300 -scheme lru
package main

import (
	"flag"
	"fmt"
	"os"

	"aggcache/internal/simulate"
	"aggcache/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	var (
		traceFile = fs.String("trace", "", "trace file (text or binary); empty generates -profile")
		profile   = fs.String("profile", "server", "generated workload when -trace is empty")
		opens     = fs.Int("opens", 120000, "opens to generate when -trace is empty")
		seed      = fs.Int64("seed", 1, "generator seed")
		mode      = fs.String("mode", "client", "simulation mode: client|server")

		capacity = fs.Int("capacity", 300, "client mode: cache capacity (files)")
		group    = fs.Int("group", 5, "group size g (1 = plain LRU)")

		filter    = fs.Int("filter", 300, "server mode: intervening client LRU capacity")
		serverCap = fs.Int("server-capacity", 300, "server mode: server cache capacity")
		scheme    = fs.String("scheme", "agg", "server mode: server cache scheme: lru|lfu|agg")
		piggyback = fs.Bool("piggyback", false, "server mode (agg): learn from the full piggybacked stream")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := workload.Load(*traceFile, workload.Profile(*profile), *seed, *opens)
	if err != nil {
		return err
	}
	ids := tr.OpenIDs()
	fmt.Printf("trace: %d opens\n", len(ids))

	switch *mode {
	case "client":
		r, err := simulate.RunClient(ids, *capacity, *group)
		if err != nil {
			return err
		}
		fmt.Printf("client cache: capacity=%d g=%d\n", r.Capacity, r.GroupSize)
		fmt.Printf("demand fetches:   %d\n", r.Fetches)
		fmt.Printf("hit rate:         %.2f%%\n", 100*r.HitRate)
		fmt.Printf("files fetched:    %d\n", r.Stats.FilesFetched)
		fmt.Printf("prefetch hits:    %d\n", r.Stats.PrefetchHits)
		fmt.Printf("prefetch accuracy %.2f%%\n", 100*r.Stats.PrefetchAccuracy())
		return nil
	case "server":
		r, err := simulate.RunServer(ids, simulate.ServerConfig{
			FilterCapacity: *filter,
			ServerCapacity: *serverCap,
			Scheme:         simulate.Scheme(*scheme),
			GroupSize:      *group,
			Piggyback:      *piggyback,
		})
		if err != nil {
			return err
		}
		fmt.Printf("server cache: scheme=%s filter=%d capacity=%d\n", *scheme, *filter, *serverCap)
		fmt.Printf("client misses (server requests): %d\n", r.ClientMisses)
		fmt.Printf("server hits:                     %d\n", r.ServerHits)
		fmt.Printf("server hit rate:                 %.2f%%\n", 100*r.HitRate)
		fmt.Printf("backend fetches:                 %d\n", r.ClientMisses-r.ServerHits)
		fmt.Printf("mean open latency:               %v\n",
			r.MeanLatency(simulate.ClientHitLatency, simulate.ServerHitLatency, simulate.BackendFetchLatency))
		return nil
	default:
		return fmt.Errorf("unknown mode %q (want client or server)", *mode)
	}
}
