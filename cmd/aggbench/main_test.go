package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"aggcache/internal/benchparse"
	"aggcache/internal/obs"
)

func TestParseFlagsRejectsBadCombos(t *testing.T) {
	cases := [][]string{
		{"-conns", "0"},
		{"-opens", "-5"},
		{"-cluster", "-1"},
		{"-cluster", "3", "-addr", "127.0.0.1:7070"},
		{"-serial"},
		{"-proto", "2"},
		{"-churn"},
		{"-cluster", "1", "-churn"},
		{"-badflag"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded", args)
		}
	}
}

func TestBenchNames(t *testing.T) {
	for _, tc := range []struct {
		cfg  config
		want string
	}{
		{config{}, "AggbenchOpenPipelined"},
		{config{cluster: 3}, "AggbenchOpenCluster3"},
		{config{cluster: 1}, "AggbenchOpenCluster1"},
		{config{metrics: true}, "AggbenchOpenPipelinedObs"},
		{config{cluster: 3, metrics: true}, "AggbenchOpenCluster3Obs"},
		{config{cluster: 2, churn: true}, "AggbenchOpenClusterChurn2"},
		{config{cluster: 3, churn: true, metrics: true}, "AggbenchOpenClusterChurn3Obs"},
	} {
		if got := (&result{cfg: tc.cfg}).benchName(); got != tc.want {
			t.Errorf("benchName(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

// TestRunLoadCluster drives a small but complete clustered load run:
// in-process ring, replicated stores, every open correct (errors gate),
// and the routing counters account for actual cross-node traffic.
func TestRunLoadCluster(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-cluster", "2", "-conns", "4", "-workers", "2",
		"-opens", "300", "-files", "128",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.errors != 0 {
		t.Errorf("clustered load run had %d errors", res.errors)
	}
	if res.opens != 4*300 {
		t.Errorf("opens = %d, want %d", res.opens, 4*300)
	}
	if res.clus.nodes != 2 {
		t.Errorf("cluster nodes = %d, want 2", res.clus.nodes)
	}
	if res.clus.forwarded+res.clus.mirrorHits == 0 {
		t.Error("no cross-node opens in a 2-node run")
	}
	if res.clus.local == 0 {
		t.Error("no locally owned opens in a 2-node run")
	}
	if res.clus.degraded != 0 {
		t.Errorf("healthy cluster degraded %d opens", res.clus.degraded)
	}
}

// TestRunLoadChurn runs the full leave/drain/rejoin cycle under load:
// the departing node must hand its group state to the survivors without
// a single client-visible error, and every group it sent must have been
// installed somewhere in the ring.
func TestRunLoadChurn(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-cluster", "2", "-conns", "4", "-workers", "2",
		"-opens", "400", "-files", "128", "-churn",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.errors != 0 {
		t.Errorf("churn run had %d client-visible errors, want 0", res.errors)
	}
	if res.opens != 4*400 {
		t.Errorf("opens = %d, want %d", res.opens, 4*400)
	}
	if !res.clus.churned {
		t.Fatal("churn summary not recorded")
	}
	if res.clus.drainSent == 0 {
		t.Error("drain streamed no groups; the departing node handed nothing off")
	}
	if res.clus.handoffs != res.clus.drainSent {
		t.Errorf("handoffs installed = %d, drain sent = %d; every sent group must land",
			res.clus.handoffs, res.clus.drainSent)
	}
	if res.clus.drainFail != 0 {
		t.Errorf("drain failed %d groups against healthy survivors", res.clus.drainFail)
	}
}

// TestClusterJSONMetrics: the -cluster -json path lands the routing
// counters in the benchparse schema the baseline gate diffs.
func TestClusterJSONMetrics(t *testing.T) {
	res := &result{
		cfg:  config{cluster: 3, conns: 6, workers: 2},
		hist: obs.NewHistogram(),
		clus: clusterSummary{nodes: 3, forwarded: 10, mirrorHits: 5},
	}
	tmp, err := os.CreateTemp(t.TempDir(), "bench*.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.writeJSON(tmp); err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var set benchparse.Set
	if err := json.NewDecoder(tmp).Decode(&set); err != nil {
		t.Fatal(err)
	}
	b := set.Benchmarks[0]
	if b.Name != "AggbenchOpenCluster3" {
		t.Errorf("bench name = %q", b.Name)
	}
	if b.Metrics["cluster_nodes"] != 3 || b.Metrics["forwarded"] != 10 || b.Metrics["mirror_hits"] != 5 {
		t.Errorf("cluster metrics missing: %v", b.Metrics)
	}
}

// TestRunLoadMetrics drives a small instrumented run end to end and
// checks the client-side registry lands in the benchparse JSON: the call
// latency histogram must account for every open, and the bare summary
// counters must agree with their obs twins.
func TestRunLoadMetrics(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-metrics", "-conns", "2", "-workers", "2",
		"-opens", "200", "-files", "64", "-json",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.reg == nil {
		t.Fatal("-metrics run has no registry")
	}
	om := res.obsMetrics()
	if got := om["fsnet_client_call_latency_ns_count"]; got < float64(res.client.Fetches) {
		t.Errorf("call latency count %v < %d wire fetches", got, res.client.Fetches)
	}
	if om["fsnet_client_inflight"] != 0 {
		t.Errorf("in-flight gauge %v nonzero at quiescence", om["fsnet_client_inflight"])
	}

	tmp, err := os.CreateTemp(t.TempDir(), "bench*.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := res.writeJSON(tmp); err != nil {
		t.Fatal(err)
	}
	if _, err := tmp.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	var set benchparse.Set
	if err := json.NewDecoder(tmp).Decode(&set); err != nil {
		t.Fatal(err)
	}
	b := set.Benchmarks[0]
	if b.Name != "AggbenchOpenPipelinedObs" {
		t.Errorf("bench name = %q, want AggbenchOpenPipelinedObs", b.Name)
	}
	for _, want := range []string{
		"fsnet_client_call_latency_ns_p95",
		"fsnet_client_reconnects_total",
		"fsnet_client_degraded_hits_total",
	} {
		if _, ok := b.Metrics[want]; !ok {
			t.Errorf("JSON metrics missing %s: %v", want, b.Metrics)
		}
	}
}

func TestGobenchLineShape(t *testing.T) {
	res := &result{cfg: config{cluster: 3, conns: 6, workers: 2}, opens: 100, elapsed: 1e6, hist: obs.NewHistogram()}
	var buf bytes.Buffer
	f, err := os.CreateTemp(t.TempDir(), "gobench")
	if err != nil {
		t.Fatal(err)
	}
	res.writeGobench(f)
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.ReadFrom(f); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "BenchmarkAggbenchOpenCluster3-12") {
		t.Errorf("gobench line = %q", out)
	}
}
