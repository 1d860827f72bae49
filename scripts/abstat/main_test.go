package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestCompareVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name    string
		base    []float64
		head    []float64
		higher  bool
		bound   float64
		verdict string
	}{
		// Lower is better: a head median 20 % up is past a 10 % bound.
		{"worse", []float64{10, 10, 10, 10}, []float64{12, 12, 12, 12}, false, 0.1, "worse"},
		// Every pair won, medians apart by more than the base IQR (0).
		{"improved", []float64{10, 10, 10, 10}, []float64{9, 9, 9, 9}, false, 0.1, "improved"},
		// Higher is better, a ratio that held.
		{"unchanged", []float64{0.50, 0.50, 0.51, 0.50}, []float64{0.50, 0.51, 0.50, 0.50}, true, 0.03, "unchanged"},
		// The base runs spread 37.5 % of their median against a 25 % bound.
		{"unresolved", []float64{2, 4, 8, 4}, []float64{4, 4, 4, 4}, false, 0.25, "unresolved"},
		// A wide spread still resolves when every head run beats every base
		// run, though a gain inside the base IQR is no improvement.
		{"all-better", []float64{5, 5.9, 6, 10, 10}, []float64{4.9, 4.9, 4.9, 4.9, 4.9}, false, 0.25, "unchanged"},
		// Nine tenths of the pairs: 8 of 10 wins is not enough.
		{"eight-of-ten", []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, []float64{9, 9, 9, 9, 9, 9, 9, 9, 10.5, 10.5}, false, 0.1, "unchanged"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := compare(tc.base, tc.head, tc.higher, tc.bound).Verdict; got != tc.verdict {
				t.Errorf("verdict = %s, want %s", got, tc.verdict)
			}
		})
	}
}

func TestStatsQuartiles(t *testing.T) {
	s := stats([]float64{4, 1, 3, 2, 5})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Errorf("stats = %+v, want median 3, quartiles 2 and 4", s)
	}
	if s.Runs[0] != 4 {
		t.Errorf("runs reordered: %v", s.Runs)
	}
}

func TestDiagnosticsSkipMissingNames(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("w.base.diag.jsonl", "{\"loadgen.ops_per_s\":100,\"loadgen.fetch_p50_us\":20}\n{\"loadgen.ops_per_s\":200,\"loadgen.fetch_p50_us\":30}\n")
	write("w.head.diag.jsonl", "{\"loadgen.ops_per_s\":300}\n{\"loadgen.ops_per_s\":300,\"loadgen.fetch_p50_us\":10}\n")
	better := map[string]string{"loadgen.ops_per_s": "higher", "loadgen.fetch_p50_us": "lower"}
	reps, err := diagnostics(dir, "w", 2, better)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("diagnostics = %v, want only loadgen.ops_per_s: one head run lacks fetch_p50_us", reps)
	}
	if r := reps["loadgen.ops_per_s"]; r == nil || r.Base.Median != 150 || r.Change != 1 || r.Wins != 2 {
		t.Errorf("loadgen.ops_per_s = %+v, want base median 150, change 1 and both pairs won", r)
	}
	if reps, err := diagnostics(dir, "w", 2, map[string]string{"loadgen.fetch_p50_us": "lower"}); err != nil || len(reps) != 0 {
		t.Errorf("diagnostics with no declared direction = %v, %v; want none", reps, err)
	}
	if reps, err := diagnostics(dir, "absent", 2, better); err != nil || reps != nil {
		t.Errorf("no diagnostic files: %v, %v, want nil, nil", reps, err)
	}
}

// TestServerMissesPerOpen: the derived diagnostic is each run's
// server_miss_rate × (1 − client_hit_rate), reported with medians,
// quartiles and pairs won (lower is better), and no verdict.
func TestServerMissesPerOpen(t *testing.T) {
	run := func(smr, chr float64) runResult {
		var r runResult
		if err := json.Unmarshal([]byte(fmt.Sprintf(`{"metrics":{"server_miss_rate":{"value":%g},"client_hit_rate":{"value":%g}}}`, smr, chr)), &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Base: 0.5 × 0.5, 0.4 × 0.5, 0.6 × 0.5. Head: mostly a higher server
	// miss rate on half the client misses — fewer server misses per open
	// in two of three pairs.
	base := []runResult{run(0.5, 0.5), run(0.4, 0.5), run(0.6, 0.5)}
	head := []runResult{run(0.6, 0.75), run(1, 0.75), run(0.4, 0.75)}
	got := serverMissesPerOpen(base)
	for i, want := range []float64{0.25, 0.2, 0.3} {
		if math.Abs(got[i]-want) > 1e-12 {
			t.Fatalf("base server misses per open = %v, want [0.25 0.2 0.3]", got)
		}
	}
	r := compareDiag(got, serverMissesPerOpen(head), "lower")
	if math.Abs(r.Base.Median-0.25) > 1e-12 || math.Abs(r.Head.Median-0.15) > 1e-12 {
		t.Errorf("medians = %v and %v, want 0.25 and 0.15", r.Base.Median, r.Head.Median)
	}
	if r.Wins != 2 || r.Losses != 1 || r.Ties != 0 {
		t.Errorf("pairs = %d won, %d lost, %d tied; want 2, 1, 0", r.Wins, r.Losses, r.Ties)
	}
}
