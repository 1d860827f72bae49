package cluster

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/faultnet"
	"aggcache/internal/fsnet"
)

// testCluster is an in-process N-node cluster: every node runs a real
// fsnet server over a real TCP loopback listener with a Node wired in as
// its membership view, each node's backing store holds identical
// replicated content, and every connection to a node — a peer's or a
// test client's — passes through a per-target faultnet gate so tests can
// kill a node at an exact instant.
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

// startCluster starts numNodes nodes; mut, when set, edits node i's
// configuration and its server's before either is built.
func startCluster(t testing.TB, numNodes int, mut func(i int, cfg *Config, srv *fsnet.ServerConfig)) *testCluster {
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
			Dialer: tc.dial,
			Now:    tc.clk.Now,
		}
		scfg := fsnet.ServerConfig{GroupSize: 3, SuccessorCapacity: 2}
		if mut != nil {
			mut(i, &cfg, &scfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.nodes = append(tc.nodes, node)

		scfg.Views = node
		srv, err := fsnet.NewServer(store, scfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.servers = append(tc.servers, srv)
		go func(l net.Listener) { _ = srv.Serve(l) }(listeners[i])
	}

	t.Cleanup(tc.close)
	return tc
}

// dial connects to a node through its gate: refused while the gate is
// down, and a live connection fails the instant it goes down.
func (tc *testCluster) dial(addr string) (net.Conn, error) {
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

// client dials a workload client whose seed is node i. Its connections —
// to the seed and to every owner it sends a miss to — pass through the
// nodes' gates unless cfg names dialers of its own.
func (tc *testCluster) client(t testing.TB, i int, cfg fsnet.ClientConfig) *fsnet.Client {
	t.Helper()
	if cfg.Dialer == nil {
		cfg.Dialer = func() (net.Conn, error) { return tc.dial(tc.addrs[i]) }
	}
	if cfg.DialMember == nil {
		cfg.DialMember = tc.dial
	}
	c, err := fsnet.Dial(tc.addrs[i], cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// requests returns each server's request count.
func (tc *testCluster) requests() []uint64 {
	out := make([]uint64, len(tc.servers))
	for i, srv := range tc.servers {
		out[i] = srv.Stats().Requests
	}
	return out
}

// owner returns the index of the node that owns path.
func (tc *testCluster) owner(path string) int {
	return slices.Index(tc.addrs, tc.nodes[0].Owner(path))
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
// invariant that lets a client send each miss to the node that learned
// its stream.
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
// clients seeded at all three nodes open every file repeatedly; every
// open must return the right bytes, and every miss must reach exactly
// its path's owner: each node's requests are the misses of the paths it
// owns, and no node forwards. Runs under -race in `make race`.
func TestClusterEveryOpenCorrect(t *testing.T) {
	tc := startCluster(t, 3, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	misses := make([][3]uint64, 3) // by client, by owner
	for i := 0; i < 3; i++ {
		// Small cache so opens keep reaching the servers.
		client := tc.client(t, i, fsnet.ClientConfig{CacheCapacity: 4})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for f := 0; f < testFiles; f++ {
					path := fmt.Sprintf("/data/f%03d", (f+17*i)%testFiles)
					if !client.Contains(path) {
						misses[i][tc.owner(path)]++
					}
					data, err := client.Open(path)
					if err != nil {
						errs <- fmt.Errorf("client %d open %s: %w", i, path, err)
						return
					}
					if string(data) != testContent(path) {
						errs <- fmt.Errorf("client %d open %s = %q", i, path, data)
						return
					}
				}
			}
			if st := client.Stats(); st.Rerouted != 0 {
				errs <- fmt.Errorf("client %d rerouted %d opens with every node up", i, st.Rerouted)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, n := range tc.nodes {
		var owned uint64
		for c := range misses {
			owned += misses[c][i]
		}
		if got := tc.servers[i].Stats().Requests; got != owned || owned == 0 {
			t.Errorf("node %d served %d requests; the clients missed %d paths it owns", i, got, owned)
		}
		if st := n.Stats(); st.ForwardedOpens != 0 || st.DegradedOpens != 0 {
			t.Errorf("node %d: forwarded %d, degraded %d; a node never forwards", i, st.ForwardedOpens, st.DegradedOpens)
		}
	}
}

// TestClusterNotFound: a path that exists nowhere gets a typed
// ErrNotFound from its owner, not a transport error, and the client does
// not route around the owner for it.
func TestClusterNotFound(t *testing.T) {
	tc := startCluster(t, 3, nil)
	missing := "/nope/missing"
	owner := tc.owner(missing)
	client := tc.client(t, (owner+1)%3, fsnet.ClientConfig{})
	if _, err := client.Open(missing); !errors.Is(err, fsnet.ErrNotFound) {
		t.Fatalf("open of missing path: %v, want ErrNotFound", err)
	}
	if st := tc.servers[owner].Stats(); st.Requests != 1 || st.Errors != 1 {
		t.Errorf("owner stats %+v, want the one request answered with an error", st)
	}
	if st := client.Stats(); st.Rerouted != 0 || st.BrokenConns != 0 {
		t.Errorf("client stats %+v: a typed reply must not count against the owner", st)
	}
}

// TestClusterGroupAffinity: the owner learns successor transitions from
// the history its clients send with their misses, and one fetch then
// delivers the whole learned group to a client seeded at a *different*
// node.
func TestClusterGroupAffinity(t *testing.T) {
	tc := startCluster(t, 3, nil)

	// anchor and follow are owned by node 0; the clients are seeded at
	// node 1.
	anchor := tc.pathOwnedBy(t, 0, nil)
	follow := tc.pathOwnedBy(t, 0, map[string]bool{anchor: true})

	// Train: a cache of one makes every open a miss, so each carries the
	// open before it to the owner.
	trainer := tc.client(t, 1, fsnet.ClientConfig{CacheCapacity: 1})
	for round := 0; round < 6; round++ {
		for _, p := range []string{anchor, follow} {
			if _, err := trainer.Open(p); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A fresh client opens only the anchor; the owner's group must bring
	// the learned successor along in the same round trip.
	probe := tc.client(t, 1, fsnet.ClientConfig{})
	before := tc.requests()
	if data, err := probe.Open(anchor); err != nil || string(data) != testContent(anchor) {
		t.Fatalf("open %s = %q, %v", anchor, data, err)
	}
	if !probe.Contains(follow) {
		t.Fatalf("learned successor %s missing from the anchor's group", follow)
	}
	if data, err := probe.Open(follow); err != nil || string(data) != testContent(follow) {
		t.Errorf("prefetched member %s = %q, %v", follow, data, err)
	}
	after := tc.requests()
	if after[0] != before[0]+1 || after[1] != before[1] || after[2] != before[2] {
		t.Errorf("requests per node %v -> %v, want one more at the owner and none elsewhere", before, after)
	}
}

// TestClusterPeerDeathDegrades is the owner-death acceptance test: a node
// killed mid-replay must not fail a single open. A miss it owns is sent
// to another member, which serves it from its own replica, while the
// client backs off the dead node; once the node returns the client dials
// it again and its misses go home.
func TestClusterPeerDeathDegrades(t *testing.T) {
	tc := startCluster(t, 3, nil)
	const victim = 2
	client := tc.client(t, 0, fsnet.ClientConfig{
		CacheCapacity: 4,
		Backoff:       fsnet.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
	})
	replay := func(round int) {
		t.Helper()
		for f := 0; f < testFiles; f++ {
			path := fmt.Sprintf("/data/f%03d", (f+7*round)%testFiles)
			data, err := client.Open(path)
			if err != nil {
				t.Fatalf("round %d: open %s: %v", round, path, err)
			}
			if string(data) != testContent(path) {
				t.Fatalf("round %d: open %s = %q", round, path, data)
			}
		}
	}
	replay(0)
	if st := client.Stats(); st.Rerouted != 0 || tc.servers[victim].Stats().Requests == 0 {
		t.Fatalf("healthy round: rerouted %d, victim served %d", st.Rerouted, tc.servers[victim].Stats().Requests)
	}

	// Kill the owner: dials are refused and live connections fail.
	tc.gates[tc.addrs[victim]].SetDown(true)
	served := tc.servers[victim].Stats().Requests
	survivors := tc.requests()
	replay(1)
	if st := client.Stats(); st.Rerouted == 0 {
		t.Error("no open was rerouted while the owner was dead")
	}
	if got := tc.servers[victim].Stats().Requests; got != served {
		t.Errorf("the dead owner served %d requests", got-served)
	}
	if now := tc.requests(); now[0]+now[1] == survivors[0]+survivors[1] {
		t.Error("the survivors served none of the dead owner's misses")
	}

	// Heal: after its backoff the client dials the owner again.
	tc.gates[tc.addrs[victim]].SetDown(false)
	time.Sleep(20 * time.Millisecond)
	reconnects := client.Stats().Reconnects
	replay(2)
	if got := tc.servers[victim].Stats().Requests; got == served {
		t.Error("the healed owner got no request back")
	}
	if client.Stats().Reconnects == reconnects {
		t.Error("the client never redialed the healed owner")
	}
}

// TestClusterKillDuringConcurrentWorkload: the no-request-errors
// guarantee holds when a node dies in the middle of a concurrent
// workload, not between requests.
func TestClusterKillDuringConcurrentWorkload(t *testing.T) {
	tc := startCluster(t, 3, nil)
	victim := 2

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	// Workers run one warm-up round, rendezvous so the kill lands while
	// both are mid-workload, then keep going with the owner dead.
	var warmed sync.WaitGroup
	warmed.Add(2)
	killed := make(chan struct{})
	clients := make([]*fsnet.Client, 2)
	for i := range clients { // clients seeded only at the survivors
		clients[i] = tc.client(t, i, fsnet.ClientConfig{CacheCapacity: 4})
		wg.Add(1)
		go func(i int, client *fsnet.Client) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				if round == 1 {
					warmed.Done()
					<-killed
				}
				for f := 0; f < testFiles; f++ {
					path := fmt.Sprintf("/data/f%03d", f)
					data, err := client.Open(path)
					if err != nil {
						errs <- fmt.Errorf("client %d open %s: %w", i, path, err)
						return
					}
					if string(data) != testContent(path) {
						errs <- fmt.Errorf("client %d open %s = %q", i, path, data)
						return
					}
				}
			}
		}(i, clients[i])
	}
	warmed.Wait()
	tc.gates[tc.addrs[victim]].SetDown(true)
	close(killed)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if clients[0].Stats().Rerouted+clients[1].Stats().Rerouted == 0 {
		t.Error("kill mid-workload rerouted no open; gate flipped too late?")
	}
}

// stallBound is the longest an open may take while an owner accepts
// connections but never answers: fsnet's 2 s bound on a connection to a
// member other than the seed, which applies when ClientConfig.Timeout is
// zero, plus scheduling slack.
const stallBound = 3 * time.Second

// TestClusterStalledOwnerDegrades: an owner that stops answering without
// refusing anything — its connections take no bytes, its dials succeed
// and then hang in the handshake — costs an open at most the member
// bound, even with no client Timeout set. Every open returns the right
// bytes from a survivor, concurrent opens queued behind the owner's hung
// redial give up with it instead of dialing again one by one, and once
// the owner drains again the client's misses go home.
func TestClusterStalledOwnerDegrades(t *testing.T) {
	tc := startCluster(t, 3, nil)
	const victim = 2
	gate := tc.gates[tc.addrs[victim]]
	defer gate.Resume()
	var redials atomic.Int32 // dials of the victim while it stalls
	var held atomic.Bool
	client := tc.client(t, 0, fsnet.ClientConfig{
		CacheCapacity: 4,
		Backoff:       fsnet.Backoff{Base: 100 * time.Millisecond, Max: 100 * time.Millisecond},
		DialMember: func(addr string) (net.Conn, error) {
			if held.Load() && addr == tc.addrs[victim] {
				redials.Add(1)
			}
			return tc.dial(addr)
		},
	})
	replay := func(worker, round int) error {
		for f := 0; f < testFiles; f++ {
			path := fmt.Sprintf("/data/f%03d", (f+7*round+13*worker)%testFiles)
			start := time.Now()
			data, err := client.Open(path)
			if took := time.Since(start); took > stallBound {
				return fmt.Errorf("worker %d round %d: open %s took %v, bound %v", worker, round, path, took, stallBound)
			}
			if err != nil {
				return fmt.Errorf("worker %d round %d: open %s: %w", worker, round, path, err)
			}
			if string(data) != testContent(path) {
				return fmt.Errorf("worker %d round %d: open %s = %q", worker, round, path, data)
			}
		}
		return nil
	}
	if err := replay(0, 0); err != nil {
		t.Fatal(err)
	}
	if tc.servers[victim].Stats().Requests == 0 {
		t.Fatal("healthy round: the victim served nothing")
	}

	// The workers outlast the bound on the victim's live connection, its
	// backoff, and the bound on one redial that hangs in the handshake.
	gate.Hold()
	held.Store(true)
	start := time.Now()
	served := tc.servers[victim].Stats().Requests
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 1; time.Since(start) < 4500*time.Millisecond; round++ {
				if err := replay(w, round); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if client.Stats().Rerouted == 0 {
		t.Error("no open was rerouted while the owner stalled")
	}
	if got := tc.servers[victim].Stats().Requests; got != served {
		t.Errorf("the stalled owner served %d requests", got-served)
	}
	if redials.Load() == 0 {
		t.Error("the client never redialed the stalled owner")
	}

	held.Store(false)
	gate.Resume()
	time.Sleep(200 * time.Millisecond) // past the backoff
	if err := replay(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := tc.servers[victim].Stats().Requests; got == served {
		t.Error("the owner got no request back once it drained again")
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
	// A node declines every open to its own server.
	n, err := NewNode(Config{Self: "a", Peers: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, path := range []string{"/any", "/other"} {
		if _, handled, err := n.RouteOpen(path, nil); handled || err != nil {
			t.Errorf("RouteOpen(%s) handled=%v err=%v, want declined", path, handled, err)
		}
	}
	if st := n.Stats(); st.LocalOpens != 2 || len(st.Peers) != 1 || st.ForwardedOpens != 0 {
		t.Errorf("stats = %+v", st)
	}
}
