package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"aggcache/internal/cluster"
	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
)

func TestSeedFromDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		"a.txt":     "alpha",
		"sub/b.txt": "beta",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store := fsnet.NewStore()
	n, err := seedFromDir(store, dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("seeded %d files, want 2", n)
	}
	data, ok := store.Get("/sub/b.txt")
	if !ok || string(data) != "beta" {
		t.Errorf("Get(/sub/b.txt) = %q,%v", data, ok)
	}
}

func TestSeedFromDirMissing(t *testing.T) {
	if _, err := seedFromDir(fsnet.NewStore(), "/no/such/dir"); err == nil {
		t.Error("missing dir accepted")
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{}, // no store source
		{"-synthetic", "5", "-addr", "256.0.0.1:bad"}, // bad address
		{"-root", "/no/such/dir"},
		{"-synthetic", "5", "-group", "-3"},
		{"-synthetic", "5", "-max-conns", "-1"},
		{"-synthetic", "5", "-idle-timeout", "nonsense"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestRunServesAndShutsDown drives the full binary path: start, serve one
// client, SIGTERM, graceful exit.
func TestRunServesAndShutsDown(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-synthetic", "20"})
	}()
	// The listener address is random; rediscover it is not possible from
	// outside, so give the server a moment and then just exercise
	// shutdown. (Protocol behaviour is covered by fsnet's own tests.)
	time.Sleep(200 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down on SIGTERM")
	}
}

// Ensure the fixed-address path also works end to end with a real client.
func TestRunWithClient(t *testing.T) {
	// Find a free port first.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-synthetic", "20"})
	}()
	defer func() {
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("server did not stop")
		}
	}()

	var client *fsnet.Client
	deadline := time.Now().Add(3 * time.Second)
	for {
		client, err = fsnet.Dial(addr, fsnet.ClientConfig{})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer client.Close()
	data, err := client.Open("/synthetic/f000001")
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Error("empty file data")
	}
}

func TestMetadataPersistAcrossRestart(t *testing.T) {
	metaPath := filepath.Join(t.TempDir(), "meta.agsm")

	startOnce := func() {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := l.Addr().String()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			done <- run([]string{"-addr", addr, "-synthetic", "10", "-metadata", metaPath})
		}()
		// Touch the server so it learns something on the first run.
		deadline := time.Now().Add(3 * time.Second)
		var client *fsnet.Client
		var err2 error
		for {
			client, err2 = fsnet.Dial(addr, fsnet.ClientConfig{})
			if err2 == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("dial: %v", err2)
			}
			time.Sleep(20 * time.Millisecond)
		}
		if _, err := client.Open("/synthetic/f000000"); err != nil {
			t.Fatal(err)
		}
		_ = client.Close()
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("no shutdown")
		}
	}

	startOnce()
	if _, err := os.Stat(metaPath); err != nil {
		t.Fatalf("metadata not saved: %v", err)
	}
	// Second run loads the saved metadata without error.
	startOnce()
}

// freeAddrs reserves n distinct loopback addresses by listening and
// immediately closing. Racy in principle, fine for tests in practice.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return addrs
}

func dialRetry(t *testing.T, addr string) *fsnet.Client {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		client, err := fsnet.Dial(addr, fsnet.ClientConfig{})
		if err == nil {
			return client
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunCluster boots a 3-node cluster of full aggserve instances with
// replicated synthetic stores, opens every file through a client seeded
// at one node (which sends each miss to its owner across the ring), and
// reads the JSON stats endpoint.
func TestRunCluster(t *testing.T) {
	addrs := freeAddrs(t, 4)
	peers := strings.Join(addrs[:3], ",")
	statsAddr := addrs[3]

	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		args := []string{
			"-addr", addrs[i], "-self", addrs[i], "-peers", peers,
			"-synthetic", "40", "-idle-timeout", "0",
		}
		if i == 0 {
			args = append(args, "-stats", statsAddr)
		}
		go func() { done <- run(args) }()
	}
	shutdown := func() {
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		for i := 0; i < 3; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("node exited: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("cluster node did not shut down")
				return
			}
		}
	}
	defer shutdown()

	client := dialRetry(t, addrs[0])
	defer client.Close()
	for f := 0; f < 40; f++ {
		path := fmt.Sprintf("/synthetic/f%06d", f)
		data, err := client.Open(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		if string(data) != "synthetic contents of "+path {
			t.Fatalf("open %s = %q", path, data)
		}
	}

	resp, err := http.Get("http://" + statsAddr + "/stats")
	if err != nil {
		t.Fatalf("stats endpoint: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stats: %v", err)
	}
	var snap snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if snap.Server.Requests == 0 || snap.Server.Requests >= 40 {
		t.Errorf("the seed served %d of the 40 misses, want its share and no more", snap.Server.Requests)
	}
	// The document follows the struct: the validated-reply counters are
	// there without anyone listing them.
	for _, field := range []string{"ValidatedMembers", "ValidatedBytesSaved"} {
		if !bytes.Contains(body, []byte(`"`+field+`"`)) {
			t.Errorf("/stats has no %s field", field)
		}
	}
	if snap.Cluster == nil {
		t.Fatal("stats missing cluster section on a clustered node")
	}
	if snap.Cluster.Members != 3 || len(snap.Cluster.Peers) != 2 {
		t.Errorf("cluster stats members=%d peers=%d, want 3/2", snap.Cluster.Members, len(snap.Cluster.Peers))
	}
	if snap.Cluster.ForwardedOpens != 0 {
		t.Errorf("the node forwarded %d opens; a node never forwards", snap.Cluster.ForwardedOpens)
	}
	for _, p := range snap.Cluster.Peers {
		if !p.Up {
			t.Errorf("peer %s down in healthy cluster", p.Addr)
		}
	}

	// The same stats server exposes Prometheus text; it must parse under
	// the strict exposition parser and carry the full catalogue.
	mresp, err := http.Get("http://" + statsAddr + "/metrics")
	if err != nil {
		t.Fatalf("metrics endpoint: %v", err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	parsed, err := obs.ParseExposition(mresp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if s, ok := parsed.Find("fsnet_server_requests_total", nil); !ok || s.Value == 0 {
		t.Errorf("fsnet_server_requests_total = %+v, %v; want nonzero", s, ok)
	}
	if parsed.Types["fsnet_server_request_latency_ns"] != "histogram" {
		t.Errorf("latency type = %q, want histogram", parsed.Types["fsnet_server_request_latency_ns"])
	}
	// The latency histogram is split by phase (hit/stage/forward); the
	// sweep must have landed somewhere, whichever way routing went.
	var latCount float64
	for _, s := range parsed.Samples {
		if s.Name == "fsnet_server_request_latency_ns_count" {
			latCount += s.Value
		}
	}
	if latCount == 0 {
		t.Error("latency histogram empty after workload")
	}
	for _, name := range []string{"core_cache_hits_total", "core_cache_misses_total", "cluster_membership_epoch"} {
		if _, ok := parsed.Find(name, nil); !ok {
			t.Errorf("metric %s not exported", name)
		}
	}
	// Per-peer breaker gauges: one closed series per remote peer.
	for _, p := range snap.Cluster.Peers {
		s, ok := parsed.Find("cluster_peer_state", map[string]string{"peer": p.Addr})
		if !ok {
			t.Errorf("cluster_peer_state{peer=%q} not exported", p.Addr)
		} else if s.Value != 0 {
			t.Errorf("breaker state for healthy peer %s = %v, want 0 (closed)", p.Addr, s.Value)
		}
	}

	// /metrics.json serves the same snapshot for humans and scripts.
	jresp, err := http.Get("http://" + statsAddr + "/metrics.json")
	if err != nil {
		t.Fatalf("metrics.json endpoint: %v", err)
	}
	defer jresp.Body.Close()
	var doc struct {
		Metrics []struct {
			Name string `json:"name"`
		} `json:"metrics"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode metrics.json: %v", err)
	}
	if len(doc.Metrics) == 0 {
		t.Error("metrics.json carries no metrics")
	}
}

func TestRunClusterBadConfig(t *testing.T) {
	cases := [][]string{
		// -self not a member of -peers must fail fast, before any socket.
		{"-addr", "127.0.0.1:0", "-synthetic", "5",
			"-self", "10.0.0.1:1", "-peers", "10.0.0.2:1,10.0.0.3:1"},
		// Malformed peer address.
		{"-addr", "127.0.0.1:0", "-synthetic", "5",
			"-self", "10.0.0.1:1", "-peers", "10.0.0.1:1,not-an-address"},
		// Malformed self address.
		{"-addr", "127.0.0.1:0", "-synthetic", "5",
			"-self", "nonsense", "-peers", "10.0.0.2:1"},
		// -peers and -peers-file are mutually exclusive.
		{"-addr", "127.0.0.1:0", "-synthetic", "5", "-self", "10.0.0.1:1",
			"-peers", "10.0.0.1:1", "-peers-file", "/no/such/file"},
		// Missing peers file.
		{"-addr", "127.0.0.1:0", "-synthetic", "5",
			"-self", "10.0.0.1:1", "-peers-file", "/no/such/file"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want fast config error", args)
		}
	}
}

func TestValidatePeers(t *testing.T) {
	ok := []string{"127.0.0.1:1", "127.0.0.1:2"}
	if err := validatePeers("127.0.0.1:1", ok); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := validatePeers("127.0.0.1:3", ok); err == nil {
		t.Error("self outside list accepted")
	}
	if err := validatePeers("no-port", ok); err == nil {
		t.Error("malformed self accepted")
	}
	if err := validatePeers("127.0.0.1:1", []string{"127.0.0.1:1", "bad"}); err == nil {
		t.Error("malformed peer accepted")
	}
	// Addresses are compared verbatim: an equivalent-but-different
	// spelling of self must be rejected, not silently half-joined.
	if err := validatePeers("localhost:1", []string{"127.0.0.1:1"}); err == nil {
		t.Error("differently spelled self accepted")
	}
}

// httpGet polls until the stats server answers, then returns the status
// code and body.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				t.Fatalf("read %s: %v", url, rerr)
			}
			return resp.StatusCode, string(body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s: %v", url, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunClusterDrainEndpoints exercises the operational surface of a
// rolling restart: /healthz and /readyz report a healthy joined node,
// POST /drain pushes the survivor the view without the drained node and
// flips readiness to 503, and a second drain is rejected as a conflict.
func TestRunClusterDrainEndpoints(t *testing.T) {
	addrs := freeAddrs(t, 3)
	peers := strings.Join(addrs[:2], ",")
	statsAddr := addrs[2]

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		args := []string{
			"-addr", addrs[i], "-self", addrs[i], "-peers", peers,
			"-synthetic", "30", "-idle-timeout", "0",
		}
		if i == 0 {
			args = append(args, "-stats", statsAddr)
		}
		go func() { done <- run(args) }()
	}
	defer func() {
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		for i := 0; i < 2; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("node exited: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("cluster node did not shut down")
				return
			}
		}
	}()

	base := "http://" + statsAddr
	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := httpGet(t, base+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q, want 200 ready", code, body)
	}

	// Open some files so the node drains under learned state — once its
	// peer is listening: a goodbye to a port nobody has bound yet fails.
	dialRetry(t, addrs[1]).Close()
	client := dialRetry(t, addrs[0])
	for f := 0; f < 30; f++ {
		path := fmt.Sprintf("/synthetic/f%06d", f)
		if _, err := client.Open(path); err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
	}
	client.Close()

	// GET on /drain must be refused; drain is a state change.
	if code, _ := httpGet(t, base+"/drain"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /drain = %d, want 405", code)
	}

	resp, err := http.Post(base+"/drain", "", nil)
	if err != nil {
		t.Fatalf("POST /drain: %v", err)
	}
	var rep cluster.DrainReport
	if derr := json.NewDecoder(resp.Body).Decode(&rep); derr != nil {
		t.Fatalf("decode drain report: %v", derr)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /drain = %d", resp.StatusCode)
	}
	if rep.GoodbyePushed != 1 || rep.GoodbyeFailed != 0 {
		t.Errorf("drain report %+v: want the goodbye pushed to the one survivor, none failed", rep)
	}
	survivor := dialRetry(t, addrs[1])
	epoch, members, err := survivor.ViewPull()
	survivor.Close()
	if err != nil || epoch != rep.GoodbyeEpoch || len(members) != 1 || members[0] != addrs[1] {
		t.Errorf("survivor view = epoch %d %v, %v; want the goodbye view %d with itself alone",
			epoch, members, err, rep.GoodbyeEpoch)
	}

	if code, body := httpGet(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d %q, want 503", code, body)
	}
	if code, _ := httpGet(t, base+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz after drain = %d, want 200 (still alive)", code)
	}

	resp2, err := http.Post(base+"/drain", "", nil)
	if err != nil {
		t.Fatalf("second POST /drain: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("second drain = %d, want 409", resp2.StatusCode)
	}

	// A drained node still answers opens locally — degraded, never dark.
	c2 := dialRetry(t, addrs[0])
	if _, err := c2.Open("/synthetic/f000003"); err != nil {
		t.Errorf("open on drained node: %v", err)
	}
	c2.Close()
}

// TestRunPeersFileReload boots a two-node cluster from a -peers-file,
// then grows the membership through POST /reload and SIGHUP, watching
// the epoch advance through /stats.
func TestRunPeersFileReload(t *testing.T) {
	addrs := freeAddrs(t, 4)
	statsAddr := addrs[3]
	pf := filepath.Join(t.TempDir(), "peers.conf")
	writePeers := func(lines ...string) {
		t.Helper()
		// Replaced atomically, as an operator would: a node still booting
		// reads the old list or the new one, never a truncated file.
		tmp := pf + ".tmp"
		if err := os.WriteFile(tmp, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, pf); err != nil {
			t.Fatal(err)
		}
	}
	writePeers("# initial two-node ring", addrs[0], addrs[1])

	done := make(chan error, 3)
	start := func(i int, extra ...string) {
		args := append([]string{
			"-addr", addrs[i], "-self", addrs[i], "-peers-file", pf,
			"-synthetic", "20", "-idle-timeout", "0",
		}, extra...)
		go func() { done <- run(args) }()
	}
	start(0, "-stats", statsAddr)
	start(1)
	nodes := 2
	defer func() {
		_ = syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		for i := 0; i < nodes; i++ {
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("node exited: %v", err)
				}
			case <-time.After(5 * time.Second):
				t.Error("node did not shut down")
				return
			}
		}
	}()

	base := "http://" + statsAddr
	clusterStats := func() *cluster.NodeStats {
		t.Helper()
		_, body := httpGet(t, base+"/stats")
		var snap snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatalf("decode stats: %v", err)
		}
		if snap.Cluster == nil {
			t.Fatal("stats missing cluster section")
		}
		return snap.Cluster
	}
	if cs := clusterStats(); cs.Epoch != 1 || cs.Members != 2 {
		t.Fatalf("initial epoch=%d members=%d, want 1/2", cs.Epoch, cs.Members)
	}

	// Grow to three nodes: extend the file, boot the joiner at epoch 2,
	// and tell node 0 to re-read via POST /reload.
	writePeers("epoch 2", addrs[0], addrs[1], addrs[2])
	start(2)
	nodes = 3
	resp, err := http.Post(base+"/reload", "", nil)
	if err != nil {
		t.Fatalf("POST /reload: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /reload = %d", resp.StatusCode)
	}
	if cs := clusterStats(); cs.Epoch != 2 || cs.Members != 3 {
		t.Fatalf("after reload epoch=%d members=%d, want 2/3", cs.Epoch, cs.Members)
	}
	// A replayed (stale) reload must be refused.
	resp2, err := http.Post(base+"/reload", "", nil)
	if err != nil {
		t.Fatalf("stale POST /reload: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Errorf("stale reload = %d, want 409", resp2.StatusCode)
	}

	// SIGHUP is the other reload path; no epoch directive means "one
	// past installed", so the edit applies everywhere it is delivered.
	writePeers(addrs[0], addrs[1], addrs[2])
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if cs := clusterStats(); cs.Epoch >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SIGHUP reload did not advance the epoch")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The grown ring routes: a sweep through node 0 reaches the joiner.
	client := dialRetry(t, addrs[0])
	defer client.Close()
	for f := 0; f < 20; f++ {
		path := fmt.Sprintf("/synthetic/f%06d", f)
		if _, err := client.Open(path); err != nil {
			t.Fatalf("open %s after growth: %v", path, err)
		}
	}
}
