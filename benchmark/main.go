// Command benchmark is the repository's end-to-end benchmark: one command
// that builds the in-process system for a workload, warms it, runs a fixed
// number of operations, verifies every reply, and prints every metric by name
// with its unit. README.md in this directory is the manual.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
)

// tracedShare is the share of an untraced run's operations that a traced run
// puts through each of its two measured phases, the first of them untraced:
// that one supplies the loadgen.* timings and the base of trace.overhead_ratio.
const tracedShare = 0.35

type metricSpec struct {
	name, unit, better string
}

// endToEndMetrics and perLayerMetrics are the names BENCHMARK.json lists; a
// test keeps the two in step.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s", "lower"},
	{"client_hit_rate", "ratio", "higher"},
	{"server_miss_rate", "ratio", "lower"},
	{"bytes_per_open", "B", "lower"},
	{"allocs_per_op", "1", "lower"},
}

var perLayerMetrics = []metricSpec{
	{"fsnet.client.self_us_p50", "us", "lower"},
	{"fsnet.client.hit_allocs", "1", "lower"},
	{"fsnet.client.hit_alloc_bytes", "B", "lower"},
	{"fsnet.client.files_per_fetch", "1", "higher"},
	{"fsnet.client.prefetch_accuracy", "ratio", "higher"},
	{"wire.rtt_us_p50", "us", "lower"},
	{"wire.rtt_us_p99", "us", "lower"},
	{"kernel.loopback_us_p50", "us", "lower"},
	{"wire.client_writes_per_fetch", "1", "lower"},
	{"wire.server_writes_per_reply", "1", "lower"},
	{"wire.bytes_out_per_fetch", "B", "lower"},
	{"wire.bytes_in_per_fetch", "B", "lower"},
	{"fsnet.server.self_us_p50", "us", "lower"},
	{"fsnet.server.self_us_p99", "us", "lower"},
	{"fsnet.server.store_stagings_per_op", "1", "lower"},
	{"fsnet.server.coalesced_stages", "count", "higher"},
	{"fsnet.server.streamed_groups", "count", "higher"},
	{"fsnet.server.write_us_p50", "us", "lower"},
	{"cluster.self_us_p50", "us", "lower"},
	{"cluster.forward_us_p50", "us", "lower"},
	{"cluster.forward_us_p99", "us", "lower"},
	{"cluster.forwarded_share", "ratio", "lower"},
	{"cluster.mirror_hit_share", "ratio", "higher"},
	{"cluster.coalesced_forwards", "count", "higher"},
	{"cluster.degraded_opens", "count", "lower"},
	{"core.access_ns", "ns", "lower"},
	{"core.access_allocs", "1", "lower"},
	{"successor.observe_ns", "ns", "lower"},
	{"successor.observe_allocs", "1", "lower"},
	{"group.build_ns", "ns", "lower"},
	{"group.build_allocs", "1", "lower"},
	{"cache.lru_access_ns", "ns", "lower"},
	{"cache.lru_access_allocs", "1", "lower"},
	{"simulate.client_cell_ns_per_open", "ns", "lower"},
	{"simulate.server_cell_ns_per_open", "ns", "lower"},
	{"simulate.filter_ns_per_open", "ns", "lower"},
	{"cluster.ring_owner_ns", "ns", "lower"},
	{"fsnet.store_get_ns", "ns", "lower"},
	{"trace.intern_ns", "ns", "lower"},
	{"obs.hist_observe_ns", "ns", "lower"},
	{"workload.generate_ns_per_event", "ns", "lower"},
	{"setup.store_put_s", "s", "lower"},
	{"setup.warmup_s", "s", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.goroutines_peak", "count", "lower"},
	{"runtime.peak_rss_mb", "MiB", "lower"},
	{"loadgen.ops_per_s", "1/s", "higher"},
	{"loadgen.open_p50_us", "us", "lower"},
	{"loadgen.open_p95_us", "us", "lower"},
	{"loadgen.open_p99_us", "us", "lower"},
	{"loadgen.fetch_p50_us", "us", "lower"},
	{"loadgen.fetch_p95_us", "us", "lower"},
	{"loadgen.fetch_p99_us", "us", "lower"},
	{"loadgen.cpu_us_per_op", "us", "lower"},
	{"loadgen.clock_overhead_ns", "ns", "lower"},
	{"loadgen.self_share", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"trace.client_open_mean_us", "us", "lower"},
	{"trace.budget_sum_us", "us", "lower"},
	{"trace.budget_ratio", "ratio", "higher"},
	{"trace.budget_median_ratio", "ratio", "higher"},
}

var workloadNames = []string{"client_hot", "server_rw", "cluster3", "sim_sweep"}

// report is what one run of one workload found.
type report struct {
	workload          string
	values            map[string]float64
	notes             []string
	attempted, failed uint64
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(s string) { r.notes = append(r.notes, s) }

func (r *report) notef(format string, args ...any) { r.note(fmt.Sprintf(format, args...)) }

// result is the JSON object the driver reads from the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes every metric by name with its unit, the notes, and last the
// JSON line. A layer metric a workload has no path through reads 0. An
// untraced run also prints the diagnostics it measured on the way (the load
// generator's timings, peak memory); they are not in its JSON line.
func (r *report) print(w io.Writer, traced bool) error {
	specs := endToEndMetrics
	if traced {
		specs = perLayerMetrics
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	fmt.Fprintf(w, "workload %s: %d operations attempted, %d failed\n", r.workload, r.attempted, r.failed)
	// The driver refuses a metric that reads 0, so the failure ratio is
	// printed here and carried by the result line's own keys.
	fmt.Fprintf(w, "  %-38s %16.6f %s\n", "failed_ops_ratio", ratio(r.failed, r.attempted), "ratio")
	for _, s := range specs {
		v, ok := r.values[s.name]
		if !ok && !traced {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, s.name)
		}
		fmt.Fprintf(w, "  %-38s %16.6f %s\n", s.name, v, s.unit)
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if !traced {
		for _, s := range perLayerMetrics {
			if v, ok := r.values[s.name]; ok {
				fmt.Fprintf(w, "  %-38s %16.6f %s\n", s.name, v, s.unit)
			}
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

type options struct {
	seed int64
	// seconds is the nominal length of the measured phase; the pinned
	// rates turn it into operation counts.
	seconds  float64
	traced   bool
	traceOut string
}

// runWorkload runs one workload in this process.
func runWorkload(name string, opt options) (*report, error) {
	rep := &report{workload: name, values: make(map[string]float64)}
	if name == "sim_sweep" {
		runtime.GOMAXPROCS(1)
		return rep, runSim(opt, rep)
	}
	for _, spec := range serviceSpecs {
		if spec.name == name {
			return rep, runService(spec, opt, rep)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// runService measures a service workload. Untraced, it reports the
// end-to-end metrics. Traced, it reports the per-layer metrics: it puts
// tracedShare of the operations through an untraced system and the same
// operations through a traced one, so their throughputs compare, and then
// replays the key stream against single layers.
func runService(spec serviceSpec, opt options, rep *report) error {
	workers := workerCount()
	runtime.GOMAXPROCS(workers)
	seconds := opt.seconds
	if opt.traced {
		seconds *= tracedShare
	}
	measured := float64(spec.opsPerSecond) * seconds
	stream, err := buildStream(spec.stream, opt.seed, workers, int(measured/(1-warmupShare)))
	if err != nil {
		return err
	}
	for w, ops := range stream.workers {
		if len(ops) < 2*segments {
			return fmt.Errorf("%s: -seconds %g leaves worker %d only %d operations", spec.name, opt.seconds, w, len(ops))
		}
	}

	if !opt.traced {
		sys, err := buildSystem(spec, stream, opt.seed, nil)
		if err != nil {
			return err
		}
		defer sys.close()
		m, err := sys.measure(seconds)
		if err != nil {
			return err
		}
		rep.attempted, rep.failed = m.attempted()
		m.endToEnd(rep)
		m.timings(rep)
		rep.set("runtime.peak_rss_mb", peakRSSMiB())
		return nil
	}

	plain, err := buildSystem(spec, stream, opt.seed, nil)
	if err != nil {
		return err
	}
	baseline, err := plain.measure(seconds)
	plain.close()
	if err != nil {
		return err
	}
	if _, failed := baseline.attempted(); failed > 0 {
		return fmt.Errorf("%s: %d operations failed in the untraced baseline", spec.name, failed)
	}

	tr := newTracer(workers)
	sys, err := buildSystem(spec, stream, opt.seed, tr)
	if err != nil {
		return err
	}
	defer sys.close()
	m, err := sys.measure(seconds)
	if err != nil {
		return err
	}
	rep.attempted, rep.failed = m.attempted()

	spans, client, batches, requests := tr.collect()
	for _, w := range sys.workers {
		spans = append(spans, w.roots.spans...)
	}
	trees := buildTrees(spans)
	spanLayers(trees, m.workers, rep)
	counterLayers(m, client, batches, requests, rep)
	runtimeLayers(m, rep)
	baseline.timings(rep)
	rep.set("trace.overhead_ratio", m.opsPerSecond()/baseline.opsPerSecond())
	rep.set("workload.generate_ns_per_event", stream.generateNsPerEvent)
	rep.set("setup.store_put_s", sys.storePutS)
	rep.set("setup.warmup_s", sys.warmupS)

	w0 := sys.workers[0]
	allocs, bytes, err := hitAllocs(w0.client, stream.paths[w0.ops[0].file()])
	if err != nil {
		return err
	}
	rep.set("fsnet.client.hit_allocs", allocs)
	rep.set("fsnet.client.hit_alloc_bytes", bytes)

	if opt.traceOut != "" {
		if err := writeTrace(opt.traceOut, spec.name, opt.seed, trees, 50000); err != nil {
			return err
		}
		rep.notef("wrote the spans of up to 50000 operations to %s", opt.traceOut)
	}
	return replayLayers(stream.ids, stream.paths, replayBudget(opt.seconds), rep)
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run: client_hot, server_rw, cluster3, sim_sweep or all")
		seed     = flag.Int64("seed", 1, "seed all generated inputs derive from")
		seconds  = flag.Float64("seconds", 20, "nominal length of the measured phase: each workload runs its pinned operations per second times this, however long that takes")
		traceOn  = flag.Int("trace", 0, "1: decorate the layer boundaries and report the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the recorded spans as JSON to this file")
		repeat   = flag.Int("repeat", 0, "self-check: run every workload this many times on -seed and as often on the seeds after it, hold the spread of every end-to-end metric against its bound in BENCHMARK.json, write benchmark/SPREAD.md")
	)
	flag.Parse()
	if err := run(*workload, *repeat, options{seed: *seed, seconds: *seconds, traced: *traceOn != 0, traceOut: *traceOut}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, repeat int, opt options) error {
	if opt.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if repeat > 0 {
		return selfCheck(repeat, opt)
	}
	if workload == "all" {
		// Each workload gets a fresh process, as the driver gives it.
		for _, name := range workloadNames {
			if _, err := runChild(name, opt, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	rep, err := runWorkload(workload, opt)
	if err != nil {
		return err
	}
	if err := rep.print(os.Stdout, opt.traced); err != nil {
		return err
	}
	if rep.failed > 0 {
		return errors.New("operations failed or returned wrong bytes")
	}
	return nil
}

// runChild runs one workload in a child process of this same binary, copies
// its output to echo, and returns the parsed result line.
func runChild(name string, opt options, echo io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	traced := "0"
	if opt.traced {
		traced = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(opt.seed),
		"-seconds", fmt.Sprint(opt.seconds), "-trace", traced)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo != nil {
		_, _ = echo.Write(out)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	return parseResult(out)
}

// parseResult decodes the last line of a run's output.
func parseResult(out []byte) (result, error) {
	end := len(out)
	for end > 0 && out[end-1] == '\n' {
		end--
	}
	start := end
	for start > 0 && out[start-1] != '\n' {
		start--
	}
	var res result
	if err := json.Unmarshal(out[start:end], &res); err != nil {
		return res, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return res, nil
}
