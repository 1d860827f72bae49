// Command entropy computes successor entropy (the paper's predictability
// metric, §4.5) for a trace, optionally after filtering it through an
// intervening LRU cache — the computations behind Figures 7 and 8.
//
// It can also emit per-file predictability reports and SVG charts (the
// visualization direction the paper's §6 sketches).
//
// Examples:
//
//	entropy -profile users -maxlen 20
//	entropy -trace users.trc -filter 500 -maxlen 20
//	entropy -profile server -perfile 25
//	entropy -profile server -perfile 25 -svg files.svg
//	entropy -profile write -timeline 5000 -svg timeline.svg
package main

import (
	"flag"
	"fmt"
	"os"

	"aggcache/internal/entropy"
	"aggcache/internal/simulate"
	"aggcache/internal/trace"
	"aggcache/internal/viz"
	"aggcache/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "entropy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("entropy", flag.ContinueOnError)
	var (
		traceFile = fs.String("trace", "", "trace file (text or binary); empty generates -profile")
		profile   = fs.String("profile", "server", "generated workload when -trace is empty")
		opens     = fs.Int("opens", 120000, "opens to generate when -trace is empty")
		seed      = fs.Int64("seed", 1, "generator seed")
		maxLen    = fs.Int("maxlen", 20, "largest successor-sequence symbol length")
		filter    = fs.Int("filter", 0, "filter the trace through an LRU cache of this capacity first (0 = unfiltered)")
		ctxLen    = fs.Int("context", 1, "conditioning context length (1 = the paper's per-file condition)")
		perFile   = fs.Int("perfile", 0, "report the N most accessed files' per-file predictability instead of the sweep")
		timeline  = fs.Int("timeline", 0, "report entropy over windows of this many opens instead of the sweep")
		svgOut    = fs.String("svg", "", "with -perfile or -timeline: also write an SVG chart to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxLen < 1 {
		return fmt.Errorf("maxlen must be >= 1, got %d", *maxLen)
	}

	tr, err := loadTrace(*traceFile, *profile, *seed, *opens)
	if err != nil {
		return err
	}
	ids := tr.OpenIDs()

	if *perFile > 0 {
		entries := viz.Profile(tr, *perFile)
		if err := viz.WriteReport(os.Stdout, entries); err != nil {
			return err
		}
		if *svgOut != "" {
			return writeSVG(*svgOut, func(f *os.File) error {
				return viz.WriteBarsSVG(f, entries)
			})
		}
		return nil
	}
	if *timeline > 0 {
		windows, err := viz.Windows(ids, *timeline)
		if err != nil {
			return err
		}
		fmt.Println(" start  entropy(bits)")
		for _, w := range windows {
			fmt.Printf("%6d  %13.4f\n", w.Start, w.Bits)
		}
		if *svgOut != "" {
			return writeSVG(*svgOut, func(f *os.File) error {
				return viz.WriteTimelineSVG(f, windows)
			})
		}
		return nil
	}

	if *filter > 0 {
		ids, err = simulate.FilterLRU(ids, *filter)
		if err != nil {
			return err
		}
		fmt.Printf("filtered through LRU(%d): %d misses remain\n", *filter, len(ids))
	}

	if *ctxLen < 1 {
		return fmt.Errorf("context must be >= 1, got %d", *ctxLen)
	}
	results := make([]entropy.Result, 0, *maxLen)
	for k := 1; k <= *maxLen; k++ {
		r, err := entropy.ConditionalEntropy(ids, *ctxLen, k)
		if err != nil {
			return err
		}
		results = append(results, r)
	}
	fmt.Println("length  entropy(bits)  files  occurrences")
	for _, r := range results {
		fmt.Printf("%6d  %13.4f  %5d  %11d\n", r.SymbolLength, r.Bits, r.Files, r.Occurrences)
	}
	return nil
}

// loadTrace mirrors cachesim's trace loading but keeps the whole trace
// (per-file reports need path names).
func loadTrace(path, profile string, seed int64, opens int) (*trace.Trace, error) {
	if path == "" {
		return workload.Standard(workload.Profile(profile), seed, opens)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

// writeSVG writes a chart through render into path.
func writeSVG(path string, render func(*os.File) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	return render(f)
}
