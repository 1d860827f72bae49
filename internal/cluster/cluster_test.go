package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"aggcache/internal/faultnet"
	"aggcache/internal/fsnet"
	"aggcache/internal/obs/otrace"
)

// testCluster is an in-process N-node cluster: every node runs a real
// fsnet server over a real TCP loopback listener with a Node wired in as
// its router, each node's backing store holds identical replicated
// content, and every peer connection passes through a per-target
// faultnet gate so tests can kill a peer at an exact instant.
type testCluster struct {
	addrs   []string
	nodes   []*Node
	servers []*fsnet.Server
	stores  []*fsnet.Store
	gates   map[string]*faultnet.Gate
	clk     *tick
}

const testFiles = 80

// tick is a fake clock for breaker cooldown tests.
type tick struct {
	mu sync.Mutex
	t  time.Time
}

func newTick() *tick { return &tick{t: time.Unix(1000, 0)} }

func (c *tick) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *tick) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testContent(path string) string { return "contents of " + path }

func startCluster(t testing.TB, numNodes int, mut func(i int, cfg *Config)) *testCluster {
	t.Helper()
	return startClusterBehind(t, numNodes, mut, nil)
}

// startClusterBehind is startCluster with node i's listener passed through
// wrap first (nil leaves them all plain), for tests that interpose on the
// connections a node accepts rather than the ones it dials.
func startClusterBehind(t testing.TB, numNodes int, mut func(i int, cfg *Config), wrap func(i int, l net.Listener) net.Listener) *testCluster {
	t.Helper()
	tc := &testCluster{gates: make(map[string]*faultnet.Gate), clk: newTick()}

	listeners := make([]net.Listener, numNodes)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		tc.addrs = append(tc.addrs, l.Addr().String())
		tc.gates[l.Addr().String()] = &faultnet.Gate{}
	}

	dial := func(addr string) (net.Conn, error) {
		gate := tc.gates[addr]
		if gate.Down() {
			return nil, fmt.Errorf("%w: gate down: dial %s", faultnet.ErrInjected, addr)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return faultnet.Wrap(conn, faultnet.Faults{Gate: gate}, nil), nil
	}

	for i := 0; i < numNodes; i++ {
		store := fsnet.NewStore()
		for f := 0; f < testFiles; f++ {
			path := fmt.Sprintf("/data/f%03d", f)
			if err := store.Put(path, []byte(testContent(path))); err != nil {
				t.Fatal(err)
			}
		}
		tc.stores = append(tc.stores, store)

		cfg := Config{
			Self:   tc.addrs[i],
			Peers:  tc.addrs,
			Dialer: dial,
			Now:    tc.clk.Now,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, node)

		srv, err := fsnet.NewServer(store, fsnet.ServerConfig{
			GroupSize:         3,
			SuccessorCapacity: 2,
			Router:            node,
			Views:             node,
			// The node and its server share one tracer, mirroring aggserve:
			// a mut that wires cfg.Trace gets inbound-context decoding on
			// the serving side for free.
			Trace: cfg.Trace,
		})
		if err != nil {
			t.Fatal(err)
		}
		tc.servers = append(tc.servers, srv)
		l := listeners[i]
		if wrap != nil {
			l = wrap(i, l)
		}
		go func() { _ = srv.Serve(l) }()
	}

	t.Cleanup(tc.close)
	return tc
}

// close shuts every node and server down and waits for their handlers,
// so no reply is in flight afterwards. Idempotent.
func (tc *testCluster) close() {
	for _, n := range tc.nodes {
		_ = n.Close()
	}
	for _, s := range tc.servers {
		_ = s.Close()
	}
}

// checkGroupBalance is the reference balance at teardown: with the
// cluster closed, every group taken since base has been released — a
// leaked reference and a double release both break the equation. Only
// race builds count (liveGroups).
func (tc *testCluster) checkGroupBalance(t *testing.T, base int64) {
	t.Helper()
	tc.close()
	if now, counted := liveGroups(); counted && now != base {
		t.Errorf("%d groups still referenced at teardown, want 0", now-base)
	}
}

// fetchGroup is FetchGroup for a test that only inspects the reply: a
// private copy of the group, its reference released.
func fetchGroup(c *fsnet.Client, path string) ([]fsnet.GroupFile, error) {
	g, err := c.FetchGroup(path, otrace.Ctx{})
	if err != nil {
		return nil, err
	}
	defer g.Release()
	files := make([]fsnet.GroupFile, len(g.Files))
	for i, f := range g.Files {
		files[i] = fsnet.GroupFile{Path: f.Path, Data: append([]byte(nil), f.Data...)}
	}
	return files, nil
}

// client dials a plain workload client against node i's server.
func (tc *testCluster) client(t testing.TB, i int, cfg fsnet.ClientConfig) *fsnet.Client {
	t.Helper()
	c, err := fsnet.Dial(tc.addrs[i], cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// pathOwnedBy returns a test path owned by node owner, skipping paths in
// skip. Ownership is hash-determined, so it scans the seeded namespace.
func (tc *testCluster) pathOwnedBy(t testing.TB, owner int, skip map[string]bool) string {
	t.Helper()
	for f := 0; f < testFiles; f++ {
		path := fmt.Sprintf("/data/f%03d", f)
		if !skip[path] && tc.nodes[0].Owner(path) == tc.addrs[owner] {
			return path
		}
	}
	t.Fatalf("no test path owned by node %d", owner)
	return ""
}

// TestClusterPlacementAgreement: every node computes the same owner for
// every path, and each node owns a non-empty share — the no-coordination
// invariant the one-hop forwarding design rests on.
func TestClusterPlacementAgreement(t *testing.T) {
	tc := startCluster(t, 3, nil)
	owned := make(map[string]int)
	for f := 0; f < testFiles; f++ {
		path := fmt.Sprintf("/data/f%03d", f)
		owner := tc.nodes[0].Owner(path)
		for _, n := range tc.nodes[1:] {
			if got := n.Owner(path); got != owner {
				t.Fatalf("nodes disagree on owner of %s: %s vs %s", path, owner, got)
			}
		}
		owned[owner]++
	}
	for _, addr := range tc.addrs {
		if owned[addr] == 0 {
			t.Errorf("node %s owns no test paths", addr)
		}
	}
}

// TestClusterEveryOpenCorrect is the acceptance workload: concurrent
// clients against all three nodes open every file repeatedly; every open
// must return the right bytes no matter which node served it or where
// the path lives. Runs under -race in `make race`.
func TestClusterEveryOpenCorrect(t *testing.T) {
	base, _ := liveGroups()
	tc := startCluster(t, 3, nil)
	defer tc.checkGroupBalance(t, base)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Small cache so opens keep reaching the server and exercise
			// the forwarding path rather than the client cache.
			client, err := fsnet.Dial(tc.addrs[i], fsnet.ClientConfig{CacheCapacity: 4})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for round := 0; round < 3; round++ {
				for f := 0; f < testFiles; f++ {
					path := fmt.Sprintf("/data/f%03d", (f+17*i)%testFiles)
					data, err := client.Open(path)
					if err != nil {
						errs <- fmt.Errorf("node %d open %s: %w", i, path, err)
						return
					}
					if string(data) != testContent(path) {
						errs <- fmt.Errorf("node %d open %s = %q", i, path, data)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var local, forwarded uint64
	for i, n := range tc.nodes {
		st := n.Stats()
		local += st.LocalOpens
		forwarded += st.ForwardedOpens
		if st.DegradedOpens != 0 {
			t.Errorf("node %d: %d degraded opens with all peers up", i, st.DegradedOpens)
		}
		for _, p := range st.Peers {
			if !p.Up {
				t.Errorf("node %d reports peer %s down", i, p.Addr)
			}
		}
		answered := st.ForwardedOpens + st.CoalescedForwards
		if srv := tc.servers[i].Stats(); srv.RemoteOpens != answered {
			t.Errorf("node %d: server RemoteOpens=%d, node answered %d", i, srv.RemoteOpens, answered)
		}
	}
	if local == 0 || forwarded == 0 {
		t.Errorf("workload exercised local=%d forwarded=%d opens; want both > 0", local, forwarded)
	}
}

// TestClusterNotFoundComesFromOwner: a path that exists nowhere gets a
// typed ErrNotFound through the forwarding path, not a transport error,
// and does not trip the owner's breaker.
func TestClusterNotFound(t *testing.T) {
	tc := startCluster(t, 3, nil)
	// Find a requesting node that does not own the bogus path.
	missing := "/nope/missing"
	via := 0
	if tc.nodes[0].Owner(missing) == tc.addrs[0] {
		via = 1
	}
	client := tc.client(t, via, fsnet.ClientConfig{})
	if _, err := client.Open(missing); !errors.Is(err, fsnet.ErrNotFound) {
		t.Fatalf("open of missing path: %v, want ErrNotFound", err)
	}
	st := tc.nodes[via].Stats()
	if st.NotFound != 1 {
		t.Errorf("NotFound = %d, want 1", st.NotFound)
	}
	for _, p := range st.Peers {
		if p.Failures != 0 {
			t.Errorf("not-found counted as failure against %s", p.Addr)
		}
	}
}

// TestClusterGroupAffinity: the owner learns successor transitions from
// relayed piggyback history, and one forwarded hop then delivers the
// whole learned group to a client of a *different* node.
func TestClusterGroupAffinity(t *testing.T) {
	tc := startCluster(t, 3, nil)

	// anchor is owned by node 0; the workload runs against node 1.
	anchor := tc.pathOwnedBy(t, 0, nil)
	follow := tc.pathOwnedBy(t, 0, map[string]bool{anchor: true})

	client := tc.client(t, 1, fsnet.ClientConfig{})
	// Train: open anchor then follow repeatedly. Cache hits accumulate
	// in the client's piggyback backlog; FetchGroup drains it through
	// node 1, which relays it to the owner on the forwarded fetch.
	for round := 0; round < 6; round++ {
		if _, err := client.Open(anchor); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Open(follow); err != nil {
			t.Fatal(err)
		}
		if _, err := fetchGroup(client, anchor); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh client of node 1 opens only the anchor; the owner's group
	// must bring the learned successor along in the same hop.
	probe := tc.client(t, 1, fsnet.ClientConfig{})
	group, err := fetchGroup(probe, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if group[0].Path != anchor || string(group[0].Data) != testContent(anchor) {
		t.Fatalf("group head = %q (%q)", group[0].Path, group[0].Data)
	}
	found := false
	for _, f := range group[1:] {
		if f.Path == follow {
			found = true
			if string(f.Data) != testContent(follow) {
				t.Errorf("prefetched member data = %q", f.Data)
			}
		}
	}
	if !found {
		paths := make([]string, len(group))
		for i, f := range group {
			paths[i] = f.Path
		}
		t.Fatalf("learned successor %s missing from forwarded group %v", follow, paths)
	}
	if st := tc.nodes[1].Stats(); st.ForwardedOpens == 0 {
		t.Error("affinity workload never forwarded")
	}
}

// TestClusterPeerDeathDegrades is the failover acceptance test: killing
// a peer mid-workload must not fail a single open. Forwards to the dead
// owner fall back to the local replica, the breaker trips after the
// failure threshold, and a healed peer is readmitted after cooldown via
// a single probe.
func TestClusterPeerDeathDegrades(t *testing.T) {
	const threshold = failureThreshold
	tc := startCluster(t, 3, nil) // the cooldown lapses only via the fake clock

	victim := 2
	path := tc.pathOwnedBy(t, victim, nil)
	client := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 2})

	open := func() {
		t.Helper()
		data, err := fetchGroup(client, path)
		if err != nil {
			t.Fatalf("open during failover: %v", err)
		}
		if string(data[0].Data) != testContent(path) {
			t.Fatalf("open during failover = %q", data[0].Data)
		}
	}

	open() // healthy forward
	if st := tc.nodes[0].Stats(); st.ForwardedOpens != 1 {
		t.Fatalf("ForwardedOpens = %d before kill, want 1", st.ForwardedOpens)
	}

	// Kill the owner: dials are refused and live conns fail instantly.
	tc.gates[tc.addrs[victim]].SetDown(true)

	// Every open keeps succeeding. The first `threshold` opens fail
	// their forward and degrade; after that the breaker short-circuits.
	for i := 0; i < threshold+3; i++ {
		open()
	}
	st := tc.nodes[0].Stats()
	if st.DegradedOpens != uint64(threshold+3) {
		t.Errorf("DegradedOpens = %d, want %d", st.DegradedOpens, threshold+3)
	}
	var victimStatus PeerStatus
	for _, p := range st.Peers {
		if p.Addr == tc.addrs[victim] {
			victimStatus = p
		}
	}
	if victimStatus.Up {
		t.Error("victim still reported up after breaker tripped")
	}
	if victimStatus.Trips == 0 {
		t.Error("breaker never tripped")
	}
	// The local replica actually served the degraded opens.
	if srv := tc.servers[0].Stats(); srv.Cache.Misses == 0 {
		t.Error("degraded opens never staged from the local store")
	}

	// Heal the peer but not the clock: still refused (cooldown).
	tc.gates[tc.addrs[victim]].SetDown(false)
	open()
	if got := tc.nodes[0].Stats().ForwardedOpens; got != 1 {
		t.Errorf("ForwardedOpens = %d during cooldown, want still 1", got)
	}

	// Cooldown lapses: exactly one probe goes through and heals.
	tc.clk.Advance(downDuration + time.Second)
	open()
	st = tc.nodes[0].Stats()
	if st.ForwardedOpens != 2 {
		t.Errorf("ForwardedOpens = %d after heal, want 2", st.ForwardedOpens)
	}
	for _, p := range st.Peers {
		if p.Addr == tc.addrs[victim] && (!p.Up || p.Failures != 0) {
			t.Errorf("healed peer status = %+v", p)
		}
	}
}

// TestClusterKillDuringConcurrentWorkload: the no-request-errors
// guarantee holds when the peer dies in the middle of a concurrent
// workload, not between requests.
func TestClusterKillDuringConcurrentWorkload(t *testing.T) {
	base, _ := liveGroups()
	tc := startCluster(t, 3, nil)
	defer tc.checkGroupBalance(t, base)
	victim := 2

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	// Workers run one warm-up round, rendezvous so the kill lands while
	// both are mid-workload, then keep going against the dead owner.
	var warmed sync.WaitGroup
	warmed.Add(2)
	killed := make(chan struct{})
	for i := 0; i < 2; i++ { // workloads only against the survivors
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, err := fsnet.Dial(tc.addrs[i], fsnet.ClientConfig{CacheCapacity: 4})
			if err != nil {
				warmed.Done()
				errs <- err
				return
			}
			defer client.Close()
			for round := 0; round < 4; round++ {
				if round == 1 {
					warmed.Done()
					<-killed
				}
				for f := 0; f < testFiles; f++ {
					path := fmt.Sprintf("/data/f%03d", f)
					data, err := client.Open(path)
					if err != nil {
						errs <- fmt.Errorf("node %d open %s: %w", i, path, err)
						return
					}
					if string(data) != testContent(path) {
						errs <- fmt.Errorf("node %d open %s = %q", i, path, data)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	warmed.Wait()
	tc.gates[tc.addrs[victim]].SetDown(true)
	close(killed)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	degraded := tc.nodes[0].Stats().DegradedOpens + tc.nodes[1].Stats().DegradedOpens
	if degraded == 0 {
		t.Error("kill mid-workload caused no degraded opens; gate flipped too late?")
	}
}

// TestClusterForwardCoalescing: concurrent opens of the same remote path
// share one owner fetch. The dialer stalls the first connection long
// enough for the herd to pile up, then every open resolves from the one
// flight — each through a reference of its own. Once the leader's reply
// is written (its reference released) a follower's reference is the only
// thing keeping the group's frames from the pool: the followers outlive
// the leader, read their bytes after every earlier holder has let go, and
// the last one out recycles.
func TestClusterForwardCoalescing(t *testing.T) {
	const herd = 8
	release := make(chan struct{})
	var stallOnce sync.Once
	base, counted := liveGroups()
	tc := startCluster(t, 2, func(i int, cfg *Config) {
		base := cfg.Dialer
		cfg.Dialer = func(addr string) (net.Conn, error) {
			stallOnce.Do(func() { <-release })
			return base(addr)
		}
	})
	path := tc.pathOwnedBy(t, 1, nil)

	var wg sync.WaitGroup
	got := make(chan *fsnet.Group, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, handled, _, err := tc.nodes[0].Route(path, nil, otrace.Ctx{}, true)
			if err != nil || !handled {
				t.Errorf("Route handled=%v err=%v", handled, err)
				return
			}
			got <- g
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the herd queue behind the stalled dial
	close(release)
	wg.Wait()
	close(got)
	if t.Failed() {
		return
	}
	st := tc.nodes[0].Stats()
	if total := st.ForwardedOpens + st.CoalescedForwards; total != herd {
		t.Errorf("forwarded %d + coalesced %d != herd %d", st.ForwardedOpens, st.CoalescedForwards, herd)
	}
	if st.ForwardedOpens != 1 {
		t.Errorf("ForwardedOpens = %d, want 1 (single flight)", st.ForwardedOpens)
	}
	if st.CoalescedForwards == 0 {
		t.Error("no opens coalesced behind the stalled flight")
	}
	// One holder after another writes its reply and lets go; whoever is
	// left still reads the right bytes.
	for g := range got {
		if len(g.Files) == 0 {
			t.Fatal("a holder's group is empty: an earlier holder's release emptied it")
		}
		if f := g.Files[0]; f.Path != path || string(f.Data) != testContent(path) {
			t.Fatalf("coalesced open read %q = %q after earlier holders released", f.Path, f.Data)
		}
		g.Release()
	}
	if now, _ := liveGroups(); counted && now != base {
		t.Errorf("%d groups still referenced after the whole herd released, want 0", now-base)
	}
}

// TestCoalescedFollowerHistoryReachesOwner: a follower of a coalesced
// forward sends no request of its own, but the history it carried and its
// open of the path are still owed to the owner. Two opens of one path,
// each with a different predecessor, share one flight parked behind a held
// gate; after the next forward flushes the backlog the owner has learned
// the path as the successor of both.
func TestCoalescedFollowerHistoryReachesOwner(t *testing.T) {
	tc := startCluster(t, 2, nil)
	n, gate := tc.nodes[0], tc.gates[tc.addrs[1]]
	p := tc.pathsOwnedBy(t, 1, 5)
	warm, path, first, second, flush := p[0], p[1], p[2], p[3], p[4]

	// Handshake now, so the only write the gate parks is the leader's fetch.
	if _, handled, err := n.RouteOpen(warm, nil); !handled || err != nil {
		t.Fatalf("warm forward: handled=%v err=%v", handled, err)
	}
	gate.Hold()
	var wg sync.WaitGroup
	open := func(history string) {
		defer wg.Done()
		if _, handled, err := n.RouteOpen(path, []string{history}); !handled || err != nil {
			t.Errorf("open of %s after %s: handled=%v err=%v", path, history, handled, err)
		}
	}
	wg.Add(2)
	go open(first)
	for gate.Waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	go open(second)
	// The follower notes its history, then joins the flight.
	for deadline := time.Now().Add(2 * time.Second); n.Stats().Peers[0].Backlog == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	gate.Resume()
	wg.Wait()
	if st := n.Stats(); st.ForwardedOpens != 2 || st.CoalescedForwards != 1 {
		t.Fatalf("forwarded %d, coalesced %d: the second open did not share the first's flight", st.ForwardedOpens, st.CoalescedForwards)
	}

	if _, handled, err := n.RouteOpen(flush, nil); !handled || err != nil {
		t.Fatalf("flushing forward: handled=%v err=%v", handled, err)
	}
	for _, history := range []string{first, second} {
		if got := groupOf(tc.servers[1], history); len(got) == 0 || got[0] != path {
			t.Errorf("owner's group of %s = %v, want it led by %s", history, got, path)
		}
	}
}

// TestClusterNodeConfigValidation pins constructor error handling.
func TestClusterNodeConfigValidation(t *testing.T) {
	if _, err := NewNode(Config{Peers: []string{"a"}}); err == nil {
		t.Error("empty Self accepted")
	}
	if _, err := NewNode(Config{Self: "x", Peers: []string{"a", "b"}}); err == nil {
		t.Error("Self outside Peers accepted")
	}
	// A single-node cluster owns everything and never forwards.
	n, err := NewNode(Config{Self: "a", Peers: []string{"a"}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, handled, err := n.RouteOpen("/any", nil); handled || err != nil {
		t.Errorf("single-node RouteOpen handled=%v err=%v, want local", handled, err)
	}
	if st := n.Stats(); st.LocalOpens != 1 || len(st.Peers) != 0 {
		t.Errorf("single-node stats = %+v", st)
	}
}
