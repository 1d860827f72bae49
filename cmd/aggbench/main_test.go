package main

import (
	"net"
	"testing"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
)

func TestParseFlagsRejectsBadCombos(t *testing.T) {
	cases := [][]string{
		{"-conns", "0"},
		{"-opens", "-5"},
		{"-cluster", "-1"},
		{"-cluster", "0"},
		{"-cluster", "3", "-addr", "127.0.0.1:7070"},
		{"-addr", " , "},
		{"-serial"},
		{"-proto", "2"},
		{"-churn"},
		{"-cluster", "1", "-churn"},
		{"-addr", "127.0.0.1:7070", "-churn"},
		{"-badflag"},
		// The second-benchmark flags, gone with what they selected.
		{"-files", "128"},
		{"-filesize", "1024"},
		{"-group", "5"},
		{"-cache", "64"},
		{"-servercache", "256"},
		{"-seed", "1"},
		{"-json"},
		{"-gobench"},
		{"-cpuprofile", "cpu.out"},
		{"-memprofile", "mem.out"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded", args)
		}
	}
	cfg, err := parseFlags([]string{"-addr", "a:1, b:2"})
	if err != nil {
		t.Fatalf("a two-server -addr list was rejected: %v", err)
	}
	if got := cfg.addrs; len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Errorf("-addr \"a:1, b:2\" parsed as %q", got)
	}
}

// TestVerdict: one failed open fails the run, however many succeeded, and
// a completed churn script must have converged both transitions.
func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  result
		ok   bool
	}{
		{"clean", result{opens: 1000}, true},
		{"one failed open in a million", result{opens: 999999, errors: 1}, false},
		{"nine percent failed", result{opens: 91, errors: 9}, false},
		{"every open failed", result{errors: 10}, false},
		{"churn converged", result{opens: 10, clus: clusterSummary{churned: true, scriptDone: true, leaveConverged: true, rejoinConverged: true}}, true},
		{"churn leave stuck", result{opens: 10, clus: clusterSummary{churned: true, scriptDone: true, rejoinConverged: true}}, false},
		{"churn rejoin stuck", result{opens: 10, clus: clusterSummary{churned: true, scriptDone: true, leaveConverged: true}}, false},
		{"churn script cut short by a short run", result{opens: 10, clus: clusterSummary{churned: true}}, true},
		{"churn converged but an open failed", result{opens: 10, errors: 1, clus: clusterSummary{churned: true, scriptDone: true, leaveConverged: true, rejoinConverged: true}}, false},
	} {
		if err := tc.res.verdict(); (err == nil) != tc.ok {
			t.Errorf("%s: verdict = %v, want pass=%v", tc.name, err, tc.ok)
		}
	}
}

func mustParse(t *testing.T, args ...string) config {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestRunLoadCluster drives a small but complete clustered load run:
// in-process ring, replicated stores, every open correct (errors gate),
// and the routing counters account for actual cross-node traffic.
func TestRunLoadCluster(t *testing.T) {
	res, err := runLoad(mustParse(t, "-cluster", "2", "-conns", "4", "-workers", "2", "-opens", "300"))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.verdict(); err != nil {
		t.Errorf("clustered load run: %v", err)
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
	res, err := runLoad(mustParse(t, "-cluster", "2", "-conns", "4", "-workers", "2", "-opens", "400", "-churn"))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.verdict(); err != nil {
		t.Errorf("churn run: %v", err)
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

// TestRunLoadMetrics drives a small instrumented run end to end and
// checks the client-side registry: the call latency histogram must
// account for every wire fetch, nothing is in flight at quiescence, and
// the series the report prints are registered.
func TestRunLoadMetrics(t *testing.T) {
	res, err := runLoad(mustParse(t, "-metrics", "-conns", "2", "-workers", "2", "-opens", "200"))
	if err != nil {
		t.Fatal(err)
	}
	if res.reg == nil {
		t.Fatal("-metrics run has no registry")
	}
	series := make(map[string]obs.Sample)
	for _, s := range res.reg.Snapshot() {
		series[s.Name] = s
	}
	for _, want := range []string{
		"fsnet_client_call_latency_ns",
		"fsnet_client_reconnects_total",
		"fsnet_client_degraded_hits_total",
	} {
		if _, ok := series[want]; !ok {
			t.Errorf("registry missing %s", want)
		}
	}
	if h := series["fsnet_client_call_latency_ns"].Hist; h == nil || h.Count < res.client.Fetches {
		t.Errorf("call latency histogram %+v does not cover %d wire fetches", h, res.client.Fetches)
	}
	if v := series["fsnet_client_inflight"].Value; v != 0 {
		t.Errorf("in-flight gauge %v nonzero at quiescence", v)
	}
}

// plainServer is an empty, unclustered fsnet server on a loopback port.
func plainServer(t *testing.T) (addr string, store *fsnet.Store, srv *fsnet.Server) {
	t.Helper()
	store = fsnet.NewStore()
	srv, err := fsnet.NewServer(store, fsnet.ServerConfig{GroupSize: groupSize, CacheCapacity: serverCache})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })
	return l.Addr().String(), store, srv
}

// TestRunLoadMultiAddr: -addr a,b provisions the working set on both
// servers (a write reaches only its target's store) and spreads the
// connections over both, so one run drives a whole external fleet.
func TestRunLoadMultiAddr(t *testing.T) {
	a, storeA, srvA := plainServer(t)
	b, storeB, srvB := plainServer(t)
	cfg := mustParse(t, "-addr", a+","+b, "-conns", "4", "-workers", "2", "-opens", "200")
	res, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.verdict(); err != nil {
		t.Errorf("two-server run: %v", err)
	}
	if res.opens != 4*200 {
		t.Errorf("opens = %d, want %d", res.opens, 4*200)
	}
	seqs, err := sequences(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		for _, p := range seq {
			if !storeA.Contains(p) || !storeB.Contains(p) {
				t.Fatalf("%s provisioned on a=%v b=%v, want both", p, storeA.Contains(p), storeB.Contains(p))
			}
		}
	}
	if fa, fb := srvA.Stats().FilesSent, srvB.Stats().FilesSent; fa == 0 || fb == 0 {
		t.Errorf("files sent a=%d b=%d; connections must land on both servers", fa, fb)
	}
}

// TestDriveChecksBytes: a server that answers an open with another
// file's worth of bytes is a failed open, not a served one.
func TestDriveChecksBytes(t *testing.T) {
	cfg := mustParse(t, "-conns", "2", "-workers", "2", "-opens", "200")
	seqs, err := sequences(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := boot(cfg, seqs)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	victim := seqs[0][0]
	c, err := fsnet.Dial(f.targets[0], fsnet.ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	wrong := contents(victim)
	wrong[len(wrong)-1]++
	if err := c.Write(victim, wrong); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()

	res, err := drive(cfg, seqs, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.errors == 0 {
		t.Errorf("%s holds wrong bytes, yet all %d opens passed", victim, res.opens)
	}
	if res.verdict() == nil {
		t.Error("verdict passed a run that served wrong bytes")
	}
	if !intact(victim, contents(victim)) || intact(victim, wrong) || intact(victim, wrong[:fileSize-1]) {
		t.Error("intact must accept exactly contents(path)")
	}
}
