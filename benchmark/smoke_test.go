package main

import (
	"bytes"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestBenchmarkFileMatchesTheProgram keeps BENCHMARK.json and the metric
// tables in main.go in step: same names, units and directions.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	bf, _, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames)
	}
	check := func(kind string, file []benchmarkMetric, prog []metricSpec, bounded bool) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(file), len(prog))
			return
		}
		for i, m := range file {
			p := prog[i]
			if m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("%s #%d: BENCHMARK.json has %+v, program has %+v", kind, i, m, p)
			}
			ceiling := boundCeiling
			if m.Name == "setup_s" {
				ceiling = setupBound
			}
			if bounded && (m.Bound <= 0 || m.Bound > ceiling) {
				t.Errorf("%s %s: bound %v outside (0, %v]", kind, m.Name, m.Bound, ceiling)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics, true)
	check("per_layer", bf.PerLayer, perLayerMetrics, false)
	if bf.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must be an end-to-end metric")
	}
	for _, m := range bf.EndToEnd[1:] {
		if m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at 1/1000 of its length, untraced and
// traced, and checks that it verifies its replies and reports exactly the
// metrics BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	bf, _, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(w.Name, options{seed: 11, seconds: 0.02, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s traced=%v: %d attempted, %d failed", w.Name, traced, rep.attempted, rep.failed)
			}
			var out bytes.Buffer
			if err := rep.print(&out, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			res, err := parseResult(out.Bytes())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			got := make([]string, 0, len(res.Metrics))
			for name, v := range res.Metrics {
				got = append(got, name)
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, name, v.Value)
				}
			}
			wantNames := make([]string, len(want))
			for i, m := range want {
				wantNames[i] = m.Name
			}
			sort.Strings(got)
			sort.Strings(wantNames)
			if strings.Join(got, " ") != strings.Join(wantNames, " ") {
				t.Errorf("%s traced=%v reports\n%v\nBENCHMARK.json names\n%v", w.Name, traced, got, wantNames)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: result line says incorrect", w.Name, traced)
			}
		}
	}
}

// TestOperationCountIsPinned checks that the measured phase is a number of
// operations fixed by -seconds and the seed, not by how fast the machine ran.
func TestOperationCountIsPinned(t *testing.T) {
	for _, name := range workloadNames {
		var attempted [3]uint64
		for i, seconds := range []float64{0.02, 0.02, 0.04} {
			rep, err := runWorkload(name, options{seed: 5, seconds: seconds})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			attempted[i] = rep.attempted
		}
		if attempted[0] != attempted[1] {
			t.Errorf("%s: two runs of one seed and length attempted %d and %d operations", name, attempted[0], attempted[1])
		}
		if attempted[2] <= attempted[0] {
			t.Errorf("%s: twice the -seconds attempted %d operations, not more than %d", name, attempted[2], attempted[0])
		}
	}
}

// TestNothingUnderBenchmarkIsIgnored guards against the repository's
// unanchored .gitignore patterns (aggserve, aggbench, *.pprof), which match
// directories and files at any depth and once kept a source file out of a
// commit without anyone noticing.
func TestNothingUnderBenchmarkIsIgnored(t *testing.T) {
	_, root, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f == "aggserve" || f == "aggbench" || strings.HasSuffix(f, ".pprof") {
			t.Errorf("%s matches a pattern in the root .gitignore", f)
		}
	}
	cmd := exec.Command("git", "ls-files", "--others", "--ignored", "--exclude-standard", "--", "benchmark", "BENCHMARK.json")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		t.Skipf("not a git checkout: %v", err)
	}
	if ignored := strings.TrimSpace(string(out)); ignored != "" {
		t.Errorf("git ignores files of the benchmark:\n%s", ignored)
	}
}
