// Command abstat summarises paired benchmark runs, as scripts/ab.sh
// collects them, into one JSON document on standard output: per workload
// and end-to-end metric of BENCHMARK.json, the medians and quartiles of
// both sides, the pairs each side won, and one verdict; and per workload
// and diagnostic the medians, quartiles and pairs won, with no verdict.
//
// Usage:
//
//	go run ./scripts/abstat -bench BENCHMARK.json -dir DIR [-base NAME] [-head NAME] WORKLOAD...
//
// DIR holds WORKLOAD.base.jsonl and WORKLOAD.head.jsonl: the JSON result
// line of each run, one per line, line i of both files being pair i. It
// may hold WORKLOAD.base.diag.jsonl and WORKLOAD.head.diag.jsonl too: one
// JSON object of diagnostic values (loadgen.ops_per_s, …) per run, in the
// same order. A diagnostic has no bound and gets no verdict; its pairs are
// won in the direction BENCHMARK.json's per_layer declares, and one that
// per_layer does not list, or that some run lacks, is left out.
//
// One diagnostic is derived from each run's end-to-end metrics rather than
// printed: server_misses_per_open = server_miss_rate × (1 − client_hit_rate),
// the server misses per client open (lower is better). It is exact while
// every client miss is one open served by the server it reaches.
//
// The verdict follows the simplicity review's rules, with each metric's
// bound taken as a share of the base side's median:
//
//   - worse: the head median is worse than the base median by more than
//     the bound;
//   - improved: the head wins at least nine tenths of the pairs (ties
//     count for neither side) and the medians differ, in the head's
//     favour, by more than the base runs' interquartile range;
//   - unresolved: neither, and the base runs' interquartile range exceeds
//     the bound, unless every head run is better than every base run;
//   - unchanged: everything else.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json a verdict needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// runResult is the JSON line one benchmark run ends with.
type runResult struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

type sideStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

type metricReport struct {
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Base   sideStats `json:"base"`
	Head   sideStats `json:"head"`
	// Change is the head median relative to the base median, minus one.
	Change float64 `json:"change"`
	// Spread is the base runs' interquartile range over their median.
	Spread  float64 `json:"spread"`
	Wins    int     `json:"head_wins"`
	Losses  int     `json:"head_losses"`
	Ties    int     `json:"ties"`
	Verdict string  `json:"verdict"`
}

// diagnosticReport compares a metric that has no bound.
type diagnosticReport struct {
	Better string    `json:"better"`
	Base   sideStats `json:"base"`
	Head   sideStats `json:"head"`
	// Change is the head median relative to the base median, minus one.
	Change float64 `json:"change"`
	Wins   int     `json:"head_wins"`
	Losses int     `json:"head_losses"`
	Ties   int     `json:"ties"`
}

type workloadReport struct {
	Pairs int `json:"pairs"`
	// Failed counts failed operations over every run of a side.
	Failed      map[string]uint64            `json:"failed_ops"`
	Incorrect   map[string]int               `json:"incorrect_runs"`
	Metrics     map[string]*metricReport     `json:"metrics"`
	Diagnostics map[string]*diagnosticReport `json:"diagnostics,omitempty"`
}

type document struct {
	Base      string                     `json:"base"`
	Head      string                     `json:"head"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "the benchmark declaration holding the bounds")
	dir := flag.String("dir", ".", "directory of WORKLOAD.base.jsonl and WORKLOAD.head.jsonl")
	base := flag.String("base", "base", "name of the base side, for the report")
	head := flag.String("head", "head", "name of the head side, for the report")
	flag.Parse()
	if err := run(*benchPath, *dir, *base, *head, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

func run(benchPath, dir, base, head string, workloads []string) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	doc := document{Base: base, Head: head, Workloads: make(map[string]*workloadReport)}
	for _, w := range workloads {
		baseRuns, err := readRuns(filepath.Join(dir, w+".base.jsonl"))
		if err != nil {
			return err
		}
		headRuns, err := readRuns(filepath.Join(dir, w+".head.jsonl"))
		if err != nil {
			return err
		}
		if len(baseRuns) != len(headRuns) || len(baseRuns) == 0 {
			return fmt.Errorf("%s: %d base runs and %d head runs, want equal and non-zero", w, len(baseRuns), len(headRuns))
		}
		rep := &workloadReport{
			Pairs:     len(baseRuns),
			Failed:    map[string]uint64{"base": failed(baseRuns), "head": failed(headRuns)},
			Incorrect: map[string]int{"base": incorrect(baseRuns), "head": incorrect(headRuns)},
			Metrics:   make(map[string]*metricReport),
		}
		for _, m := range spec.EndToEnd {
			b, h := values(baseRuns, m.Name), values(headRuns, m.Name)
			if b == nil || h == nil {
				return fmt.Errorf("%s: metric %s missing from a run", w, m.Name)
			}
			rep.Metrics[m.Name] = compare(b, h, m.Better == "higher", m.Bound)
			rep.Metrics[m.Name].Better = m.Better
		}
		if rep.Diagnostics, err = diagnostics(dir, w, len(baseRuns), directions(spec)); err != nil {
			return err
		}
		if rep.Diagnostics == nil {
			rep.Diagnostics = make(map[string]*diagnosticReport)
		}
		rep.Diagnostics["server_misses_per_open"] = compareDiag(serverMissesPerOpen(baseRuns), serverMissesPerOpen(headRuns), "lower")
		doc.Workloads[w] = rep
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", out)
	return err
}

// readRuns reads one side's result lines.
func readRuns(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: line %d: %w", path, len(runs)+1, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// directions maps each per_layer metric to the way it is better.
func directions(spec benchmarkSpec) map[string]string {
	better := make(map[string]string, len(spec.PerLayer))
	for _, m := range spec.PerLayer {
		better[m.Name] = m.Better
	}
	return better
}

// serverMissesPerOpen derives each run's server misses per client open.
func serverMissesPerOpen(runs []runResult) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = r.Metrics["server_miss_rate"].Value * (1 - r.Metrics["client_hit_rate"].Value)
	}
	return vs
}

// diagnostics compares w's diagnostic files in dir, when there are any;
// better gives each diagnostic's direction.
func diagnostics(dir, w string, pairs int, better map[string]string) (map[string]*diagnosticReport, error) {
	base, err := readDiag(filepath.Join(dir, w+".base.diag.jsonl"))
	if err != nil || base == nil {
		return nil, err
	}
	head, err := readDiag(filepath.Join(dir, w+".head.diag.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(base) != pairs || len(head) != pairs {
		return nil, fmt.Errorf("%s: %d base and %d head diagnostic lines for %d pairs", w, len(base), len(head), pairs)
	}
	reps := make(map[string]*diagnosticReport)
	for name := range base[0] {
		b, h := diagValues(base, name), diagValues(head, name)
		if b == nil || h == nil || better[name] == "" {
			continue
		}
		reps[name] = compareDiag(b, h, better[name])
	}
	return reps, nil
}

// compareDiag compares the head runs h of a diagnostic against the base
// runs b, pair i being b[i] and h[i]; better is "higher" or "lower".
func compareDiag(b, h []float64, better string) *diagnosticReport {
	r := &diagnosticReport{Better: better, Base: stats(b), Head: stats(h)}
	if r.Base.Median != 0 {
		r.Change = r.Head.Median/r.Base.Median - 1
	}
	r.Wins, r.Losses, r.Ties = tally(b, h, betterFunc(better == "higher"))
	return r
}

// readDiag reads one side's diagnostic lines; nil when the file is absent.
func readDiag(path string) ([]map[string]float64, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []map[string]float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var d map[string]float64
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("%s: line %d: %w", path, len(runs)+1, err)
		}
		runs = append(runs, d)
	}
	return runs, sc.Err()
}

// diagValues returns name's value in every run, nil when a run lacks it.
func diagValues(runs []map[string]float64, name string) []float64 {
	vs := make([]float64, len(runs))
	for i, d := range runs {
		v, ok := d[name]
		if !ok {
			return nil
		}
		vs[i] = v
	}
	return vs
}

func failed(runs []runResult) (n uint64) {
	for _, r := range runs {
		n += r.Failed
	}
	return n
}

func incorrect(runs []runResult) (n int) {
	for _, r := range runs {
		if !r.Correct {
			n++
		}
	}
	return n
}

// values returns name's value in every run, nil when a run lacks it.
func values(runs []runResult, name string) []float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		m, ok := r.Metrics[name]
		if !ok {
			return nil
		}
		vs[i] = m.Value
	}
	return vs
}

// compare judges the head runs h against the base runs b, pair i being
// b[i] and h[i].
func compare(b, h []float64, higher bool, bound float64) *metricReport {
	better := betterFunc(higher)
	r := &metricReport{Bound: bound, Base: stats(b), Head: stats(h)}
	r.Wins, r.Losses, r.Ties = tally(b, h, better)
	bm, hm := r.Base.Median, r.Head.Median
	iqr := r.Base.Q3 - r.Base.Q1
	if bm != 0 {
		r.Change = hm/bm - 1
		r.Spread = iqr / abs(bm)
	}
	// How much worse the head median is, as a share of the base median.
	worse := r.Change
	if higher {
		worse = -worse
	}
	allBetter := true
	for _, x := range h {
		for _, y := range b {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case worse > bound:
		r.Verdict = "worse"
	case 10*r.Wins >= 9*len(b) && better(hm, bm) && abs(hm-bm) > iqr:
		r.Verdict = "improved"
	case r.Spread > bound && !allBetter:
		r.Verdict = "unresolved"
	default:
		r.Verdict = "unchanged"
	}
	return r
}

// betterFunc reports whether x is better than y.
func betterFunc(higher bool) func(x, y float64) bool {
	if higher {
		return func(x, y float64) bool { return x > y }
	}
	return func(x, y float64) bool { return x < y }
}

// tally counts the pairs (b[i], h[i]) the head won, lost and tied.
func tally(b, h []float64, better func(x, y float64) bool) (wins, losses, ties int) {
	for i := range b {
		switch {
		case better(h[i], b[i]):
			wins++
		case better(b[i], h[i]):
			losses++
		default:
			ties++
		}
	}
	return wins, losses, ties
}

// stats returns the median and quartiles of vs (linear interpolation
// between order statistics).
func stats(vs []float64) sideStats {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return sideStats{Median: q(0.5), Q1: q(0.25), Q3: q(0.75), Runs: vs}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
