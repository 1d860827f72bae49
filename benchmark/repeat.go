package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchmarkFile finds BENCHMARK.json from the repository root (where
// run.sh starts the binary) or from inside benchmark/ (where go test runs).
func loadBenchmarkFile() (benchmarkFile, string, error) {
	var bf benchmarkFile
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		return bf, dir, json.Unmarshal(data, &bf)
	}
	return bf, "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// quartiles follows Python's statistics.quantiles(values, n=4), the rule the
// driver applies: exclusive method, linear interpolation.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := len(data)
	if m < 2 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := i*(m+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Bounds follow from the spreads: twice the larger one, at least boundFloor
// and at most boundCeiling. A metric that spreads more than the ceiling cannot
// be an end-to-end metric at all; it is reported as a diagnostic instead.
// setup_s is the exception the driver's contract makes: it must be an
// end-to-end metric, it is a wall-clock time on a shared machine, and it
// carries the contract's largest bound.
const (
	boundFloor   = 0.005
	boundCeiling = 0.10
	setupBound   = 0.25
)

// exactOnSim are the sim_sweep metrics that are pure functions of the seed.
var exactOnSim = []string{"client_hit_rate", "server_miss_rate", "bytes_per_open"}

// sample runs one workload once per seed, each in a fresh process, and
// collects every end-to-end metric.
func sample(name string, opt options, seeds []int64) (map[string][]float64, error) {
	samples := make(map[string][]float64)
	for _, seed := range seeds {
		o := opt
		o.seed, o.traced = seed, false
		res, err := runChild(name, o, nil)
		if err != nil {
			return nil, err
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", name, seed, res.Failed, res.Attempted)
		}
		for metric, v := range res.Metrics {
			samples[metric] = append(samples[metric], v.Value)
		}
		fmt.Fprintf(os.Stderr, "%s seed %d done\n", name, seed)
	}
	return samples, nil
}

// selfCheck runs every workload n times on opt.seed and once on each of the n
// seeds after it. The first set shows the noise of the machine on identical
// inputs, judged by (max - min) / median; the second is what the driver does,
// judged as the driver judges it, by the distance between the quartiles over
// the median. It writes both to benchmark/SPREAD.md and fails if either
// exceeds the metric's bound in BENCHMARK.json, if a bound exceeds the
// ceiling, or if a sim_sweep count differs between two runs of one seed.
// setup_s is judged as the driver judges it too: not by its spread but by how
// far the medians of the two sets lie apart.
func selfCheck(n int, opt options) error {
	bf, root, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	same, others := make([]int64, n), make([]int64, n)
	for i := range same {
		same[i], others[i] = opt.seed, opt.seed+1+int64(i)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# Spread of the end-to-end metrics\n\n")
	fmt.Fprintf(&b, "`-repeat %d -seconds %g -seed %d`, every run in a fresh process.\n\n", n, opt.seconds, opt.seed)
	fmt.Fprintf(&b, "- same seed: %d runs of seed %d; range = (max - min) / median.\n", n, opt.seed)
	fmt.Fprintf(&b, "- seeds: one run each of seeds %d to %d; iqr = (third quartile - first quartile) / median,\n  quartiles as Python's `statistics.quantiles(values, n=4)`, which is the driver's rule.\n", others[0], others[n-1])
	fmt.Fprintf(&b, "- bound is BENCHMARK.json's; rule is max(%.3f, 2 x the larger spread), at most %.2f.\n", boundFloor, boundCeiling)
	fmt.Fprintf(&b, "- setup_s carries the contract's largest bound, %.2f, and is judged as the driver judges it:\n  by the distance between the two sets' medians, not by its spread.\n", setupBound)
	var over []string
	for _, name := range workloadNames {
		fixed, err := sample(name, opt, same)
		if err != nil {
			return err
		}
		varied, err := sample(name, opt, others)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "\n## %s\n\n| metric | unit | same seed: min | median | max | range | seeds: q1 | median | q3 | iqr | rule | bound | |\n|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---|\n", name)
		for _, m := range bf.EndToEnd {
			a, v := fixed[m.Name], varied[m.Name]
			if len(a) == 0 || len(v) == 0 {
				return fmt.Errorf("%s: metric %s of BENCHMARK.json was not reported", name, m.Name)
			}
			sort.Float64s(a)
			lo, hi := a[0], a[len(a)-1]
			_, med, _ := quartiles(a)
			q1, vmed, q3 := quartiles(v)
			rng, iqr := (hi-lo)/med, (q3-q1)/vmed
			rule := min(max(boundFloor, 2*max(rng, iqr)), boundCeiling)
			bad := max(rng, iqr) > m.Bound || m.Bound > boundCeiling
			if m.Name == "setup_s" {
				rule = setupBound
				bad = math.Abs(vmed-med)/med > m.Bound || m.Bound > setupBound
			}
			verdict := "ok"
			if bad {
				verdict = "OVER"
				over = append(over, name+"/"+m.Name)
			}
			fmt.Fprintf(&b, "| %s | %s | %.6g | %.6g | %.6g | %.4f | %.6g | %.6g | %.6g | %.4f | %.3f | %.3f | %s |\n",
				m.Name, m.Unit, lo, med, hi, rng, q1, vmed, q3, iqr, rule, m.Bound, verdict)
		}
		if name == "sim_sweep" {
			for _, metric := range exactOnSim {
				if a := fixed[metric]; a[0] != a[len(a)-1] {
					over = append(over, fmt.Sprintf("sim_sweep/%s does not repeat exactly (%v to %v)", metric, a[0], a[len(a)-1]))
				}
			}
		}
	}
	fmt.Print(b.String())
	out := filepath.Join(root, "benchmark", "SPREAD.md")
	if err := os.WriteFile(out, []byte(b.String()), 0o644); err != nil {
		return err
	}
	if len(over) > 0 {
		return fmt.Errorf("spread exceeds the bound for %s", strings.Join(over, ", "))
	}
	return nil
}
