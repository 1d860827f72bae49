// Command relgraph builds the inter-file relationship graph of §2.1 from
// a trace and emits it as Graphviz DOT, with each edge labelled by its
// likelihood rank (1 = most likely successor), like the paper's Figure 1.
//
// Examples:
//
//	relgraph -profile server -opens 5000 -top 30 | dot -Tsvg > graph.svg
//	relgraph -trace server.trc -successors 3
package main

import (
	"flag"
	"fmt"
	"os"

	"aggcache/internal/successor"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "relgraph:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("relgraph", flag.ContinueOnError)
	var (
		traceFile = fs.String("trace", "", "trace file (text or binary); empty generates -profile")
		profile   = fs.String("profile", "server", "generated workload when -trace is empty")
		opens     = fs.Int("opens", 5000, "opens to generate when -trace is empty")
		seed      = fs.Int64("seed", 1, "generator seed")
		succCap   = fs.Int("successors", 3, "per-file successor list capacity")
		top       = fs.Int("top", 0, "restrict to the N most accessed files (0 = all)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tr, err := workload.Load(*traceFile, workload.Profile(*profile), *seed, *opens)
	if err != nil {
		return err
	}
	tk, err := successor.NewTracker(successor.PolicyLRU, *succCap)
	if err != nil {
		return err
	}
	ids := tr.OpenIDs()
	tk.ObserveAll(ids)

	if *top > 0 {
		// Restrict to the hottest files by re-tracking a filtered
		// sequence: edges between cold files would swamp the output.
		hot := tk.Hottest()
		keep := make(map[trace.FileID]bool, *top)
		for _, id := range hot[:min(*top, len(hot))] {
			keep[id] = true
		}
		var filtered []trace.FileID
		for _, id := range ids {
			if keep[id] {
				filtered = append(filtered, id)
			}
		}
		tk, err = successor.NewTracker(successor.PolicyLRU, *succCap)
		if err != nil {
			return err
		}
		tk.ObserveAll(filtered)
	}

	g := successor.BuildGraph(tk)
	return g.WriteDOT(os.Stdout, tr.Paths)
}
