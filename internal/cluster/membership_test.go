package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/fsnet"
	"aggcache/internal/gossip"
)

// TestMembershipUpdateSwapsRing: installing a smaller view reassigns the
// removed node's paths to the survivors, atomically and on every node
// that applies the update, while opens keep succeeding throughout.
func TestMembershipUpdateSwapsRing(t *testing.T) {
	tc := startCluster(t, 3, nil)

	gone := tc.pathOwnedBy(t, 2, nil)
	for i := 0; i < 2; i++ {
		if err := tc.nodes[i].Update(2, tc.addrs[:2]); err != nil {
			t.Fatalf("node %d update: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		st := tc.nodes[i].Stats()
		if st.Epoch != 2 || st.Members != 2 {
			t.Errorf("node %d epoch=%d members=%d, want 2/2", i, st.Epoch, st.Members)
		}
		owner := tc.nodes[i].Owner(gone)
		if owner == tc.addrs[2] {
			t.Errorf("node %d still maps %s to the removed peer", i, gone)
		}
		if owner != tc.nodes[0].Owner(gone) {
			t.Errorf("survivors disagree on the new owner of %s", gone)
		}
	}

	// The shrunk ring still serves every path correctly end to end.
	client := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 4})
	for f := 0; f < testFiles; f++ {
		path := fmt.Sprintf("/data/f%03d", f)
		data, err := client.Open(path)
		if err != nil {
			t.Fatalf("open %s after shrink: %v", path, err)
		}
		if string(data) != testContent(path) {
			t.Fatalf("open %s after shrink = %q", path, data)
		}
	}
}

// TestMembershipStaleEpochRejected: a view that does not advance the
// installed one — an older epoch, or the same epoch with an equal or
// lower content hash — must be refused, so a delayed or replayed update
// can never roll the ring backwards.
func TestMembershipStaleEpochRejected(t *testing.T) {
	tc := startCluster(t, 2, nil)
	n := tc.nodes[0]

	if err := n.Update(5, tc.addrs); err != nil {
		t.Fatal(err)
	}
	if err := n.Update(5, tc.addrs); !errors.Is(err, ErrStaleView) {
		t.Errorf("equal epoch with identical members accepted: %v", err)
	}
	if err := n.Update(3, tc.addrs[:1]); !errors.Is(err, ErrStaleView) {
		t.Errorf("older epoch accepted: %v", err)
	}
	if st := n.Stats(); st.Epoch != 5 || st.Members != 2 {
		t.Errorf("stale update changed the view: epoch=%d members=%d", st.Epoch, st.Members)
	}
	if err := n.Update(6, nil); err == nil {
		t.Error("empty membership accepted")
	}
}

// TestMembershipEqualEpochTiebreak pins the coordination-free resolution
// of two operators minting the same epoch with different member lists:
// between equal epochs the higher view-content hash wins, on every node,
// in whichever order the two updates arrive. Applying both candidate
// views to two nodes in opposite orders must converge them on the same
// member list, with the loser counted as stale.
func TestMembershipEqualEpochTiebreak(t *testing.T) {
	tc := startCluster(t, 3, nil)

	// The two racing epoch-2 views: one drops node 2, the other node 1.
	// Which one wins is decided by viewHash alone — compute the expected
	// winner the same way Update does.
	viewA := tc.addrs[:2]
	viewB := []string{tc.addrs[0], tc.addrs[2]}
	winner := viewA
	if viewHash(ringMembers(t, viewB)) > viewHash(ringMembers(t, viewA)) {
		winner = viewB
	}

	apply := func(n *Node, first, second []string) (firstErr, secondErr error) {
		return n.Update(2, first), n.Update(2, second)
	}
	errA1, errB1 := apply(tc.nodes[0], viewA, viewB)
	errB2, errA2 := apply(tc.nodes[1], viewB, viewA)

	// Exactly one of the two candidates loses, and it loses with
	// ErrStaleView on the node that saw it second.
	for _, tcase := range []struct {
		name       string
		errs       [2]error
		firstIsWin bool
	}{
		{"order A,B", [2]error{errA1, errB1}, sameMembers(winner, viewA)},
		{"order B,A", [2]error{errB2, errA2}, sameMembers(winner, viewB)},
	} {
		if tcase.errs[0] != nil {
			t.Errorf("%s: first update refused: %v", tcase.name, tcase.errs[0])
		}
		if tcase.firstIsWin {
			if !errors.Is(tcase.errs[1], ErrStaleView) {
				t.Errorf("%s: losing view accepted after winner: %v", tcase.name, tcase.errs[1])
			}
		} else if tcase.errs[1] != nil {
			t.Errorf("%s: winning view refused: %v", tcase.name, tcase.errs[1])
		}
	}

	// Both nodes converged on the winner regardless of arrival order.
	for i := 0; i < 2; i++ {
		got := tc.nodes[i].Members()
		if !sameMembers(got, winner) {
			t.Errorf("node %d members = %v, want %v", i, got, winner)
		}
		if e := tc.nodes[i].Epoch(); e != 2 {
			t.Errorf("node %d epoch = %d, want 2", i, e)
		}
	}
}

// ringMembers normalizes a member list through a ring, matching the
// sorted order viewHash is fed in Update.
func ringMembers(t *testing.T, addrs []string) []string {
	t.Helper()
	r := NewRing(0)
	r.Add(addrs...)
	return r.Members()
}

// sameMembers compares member lists irrespective of order.
func sameMembers(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]bool, len(a))
	for _, m := range a {
		seen[m] = true
	}
	for _, m := range b {
		if !seen[m] {
			return false
		}
	}
	return true
}

// TestMembershipRemovedPeerGC is the regression test for the leak where
// a removed peer's breaker state lived forever: dropping a peer from the
// view must delete its breaker entry, and re-adding it must start from a
// fresh, closed breaker.
func TestMembershipRemovedPeerGC(t *testing.T) {
	tc := startCluster(t, 3, nil)
	n := tc.nodes[0]
	victim := tc.addrs[2]

	// Exchange once, then trip the victim's breaker: each failed view
	// pull counts, and the failureThreshold-th opens the breaker and its
	// 2 s cooldown.
	if _, _, err := n.ViewPullFrom(victim); err != nil {
		t.Fatalf("warm pull: %v", err)
	}
	tc.gates[victim].SetDown(true)
	for i := 0; i < failureThreshold; i++ {
		if _, _, err := n.ViewPullFrom(victim); err == nil {
			t.Fatalf("pull %d from a dead peer succeeded", i)
		}
	}
	st := n.Stats()
	var found bool
	for _, p := range st.Peers {
		if p.Addr == victim {
			found = true
			if p.Trips != 1 || p.Up {
				t.Errorf("victim breaker not tripped before removal: %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("victim missing from stats before removal")
	}

	// Remove the victim: its breaker entry must go with it.
	if err := n.Update(2, tc.addrs[:2]); err != nil {
		t.Fatal(err)
	}
	st = n.Stats()
	for _, p := range st.Peers {
		if p.Addr == victim {
			t.Errorf("removed peer still in stats: %+v", p)
		}
	}

	// Re-add: the peer returns with a fresh closed breaker, not the
	// tripped one it left with.
	tc.gates[victim].SetDown(false)
	if err := n.Update(3, tc.addrs); err != nil {
		t.Fatal(err)
	}
	st = n.Stats()
	found = false
	for _, p := range st.Peers {
		if p.Addr == victim {
			found = true
			if !p.Up || p.Failures != 0 || p.Trips != 0 {
				t.Errorf("re-added peer inherited old breaker state: %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("re-added peer missing from stats")
	}
	// And it exchanges again immediately — no cooldown carried over.
	if _, _, err := n.ViewPullFrom(victim); err != nil {
		t.Errorf("pull from the re-added peer: %v", err)
	}
}

// TestMembershipRejoinClearsDraining: a drained node that appears in a
// later view containing itself is back in service and ready.
func TestMembershipRejoinClearsDraining(t *testing.T) {
	tc := startCluster(t, 2, nil)
	n := tc.nodes[0]
	if !n.Ready() {
		t.Fatal("healthy joined node not ready")
	}
	if _, err := n.Drain(); err != nil {
		t.Fatal(err)
	}
	if n.Ready() || !n.Draining() {
		t.Fatal("drain did not flip readiness")
	}
	if _, err := n.Drain(); !errors.Is(err, ErrDraining) {
		t.Errorf("second drain = %v, want ErrDraining", err)
	}
	if err := n.Update(2, tc.addrs); err != nil {
		t.Fatal(err)
	}
	if !n.Ready() || n.Draining() {
		t.Error("rejoin view did not clear draining")
	}
}

func TestParsePeersFile(t *testing.T) {
	epoch, peers, err := ParsePeersFile(strings.NewReader(
		"# fleet roster\nepoch 7\n\n10.0.0.1:7070\n  10.0.0.2:7070  # rack b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Errorf("epoch = %d, want 7", epoch)
	}
	if len(peers) != 2 || peers[0] != "10.0.0.1:7070" || peers[1] != "10.0.0.2:7070" {
		t.Errorf("peers = %v", peers)
	}

	// No directive: epoch 0 means "caller picks one past installed".
	epoch, peers, err = ParsePeersFile(strings.NewReader("10.0.0.1:7070\n"))
	if err != nil || epoch != 0 || len(peers) != 1 {
		t.Errorf("directive-less parse = %d, %v, %v", epoch, peers, err)
	}

	for name, in := range map[string]string{
		"empty":           "",
		"comments only":   "# nothing\n",
		"zero epoch":      "epoch 0\n10.0.0.1:1\n",
		"bad epoch":       "epoch x\n10.0.0.1:1\n",
		"double epoch":    "epoch 1\nepoch 2\n10.0.0.1:1\n",
		"embedded spaces": "10.0.0.1:1 10.0.0.2:1\n",
	} {
		if _, _, err := ParsePeersFile(strings.NewReader(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestClusterChurnKillRejoinDrain is the elastic-membership acceptance
// test: under a concurrent workload a node is killed, heals and rejoins,
// and then a *different* node is removed from the ring and drained — all
// without one client-visible error, with the drained node's goodbye
// reaching every survivor, and with no open ever forwarded. Runs under
// -race in `make race`.
func TestClusterChurnKillRejoinDrain(t *testing.T) {
	tc := startCluster(t, 3, nil)
	const (
		victim  = 2 // killed and healed mid-workload
		drained = 1 // removed from the ring and drained at the end
	)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	var warmed sync.WaitGroup
	warmed.Add(2)
	killed := make(chan struct{})
	clients := make([]*fsnet.Client, 2)
	for i := range clients {
		client := tc.client(t, i, fsnet.ClientConfig{
			CacheCapacity: 4,
			Backoff:       fsnet.Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		})
		clients[i] = client
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				if round == 1 {
					warmed.Done()
					<-killed
				}
				for f := 0; f < testFiles; f++ {
					path := fmt.Sprintf("/data/f%03d", (f+13*i)%testFiles)
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

	// Kill the victim while both workers are mid-round...
	warmed.Wait()
	tc.gates[tc.addrs[victim]].SetDown(true)
	close(killed)
	// ...give the clients time to route around it, then heal it so their
	// backoff readmits it.
	time.Sleep(100 * time.Millisecond)
	tc.gates[tc.addrs[victim]].SetDown(false)

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Rebalance: the survivors drop the drained node from their views and
	// it pushes them the same view as its goodbye.
	survivors := []int{0, victim}
	rest := []string{tc.addrs[0], tc.addrs[victim]}
	for _, i := range survivors {
		if err := tc.nodes[i].Update(2, rest); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := tc.nodes[drained].Drain()
	if err != nil {
		t.Fatal(err)
	}
	assertGoodbye(t, tc, rep, survivors, tc.addrs[drained])

	// After the full kill/rejoin/drain cycle no open was ever answered by
	// anything but the server it reached.
	for i, n := range tc.nodes {
		if st, srv := n.Stats(), tc.servers[i].Stats(); st.ForwardedOpens != 0 || srv.RemoteOpens != 0 {
			t.Errorf("node %d: forwarded %d, server RemoteOpens %d; want none", i, st.ForwardedOpens, srv.RemoteOpens)
		}
	}
	if clients[0].Stats().Rerouted+clients[1].Stats().Rerouted == 0 {
		t.Error("kill window rerouted no open; outage never landed")
	}

	// The shrunk ring still serves everything.
	client := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 4})
	for f := 0; f < testFiles; f++ {
		path := fmt.Sprintf("/data/f%03d", f)
		data, err := client.Open(path)
		if err != nil {
			t.Fatalf("open %s after rebalance: %v", path, err)
		}
		if string(data) != testContent(path) {
			t.Fatalf("open %s after rebalance = %q", path, data)
		}
	}
}

// TestClusterDrainUnderLoadRejoinsByGossip is the leave-and-rejoin cycle
// under load: while a client on every node keeps opening, the last node
// drains — its goodbye alone moves the survivors to the shrunk view — and
// afterwards one Update with the full membership, on one node, reaches
// every node by anti-entropy rounds driven by hand, the drained node
// included, which is ready again. No open fails or returns the wrong bytes. Runs under
// -race in `make race`.
func TestClusterDrainUnderLoadRejoinsByGossip(t *testing.T) {
	tc := startCluster(t, 3, nil)
	const drained = 2
	gossipers := make([]*gossip.Gossiper, len(tc.nodes))
	for i, n := range tc.nodes {
		gossipers[i] = gossip.New(gossip.Config{Node: n, Seed: int64(i + 1)})
		defer gossipers[i].Stop()
	}

	// Each client opens every file once per round until stop is closed.
	stop := make(chan struct{})
	var opens atomic.Uint64
	var wg, warmed sync.WaitGroup
	errs := make(chan error, len(tc.nodes))
	for i := range tc.nodes {
		client := tc.client(t, i, fsnet.ClientConfig{CacheCapacity: 4})
		wg.Add(1)
		warmed.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				if round == 1 {
					warmed.Done()
				}
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				for f := 0; f < testFiles; f++ {
					path := fmt.Sprintf("/data/f%03d", (f+29*i)%testFiles)
					data, err := client.Open(path)
					if err == nil && string(data) != testContent(path) {
						err = fmt.Errorf("wrong bytes %q", data)
					}
					if err != nil {
						if round == 0 {
							warmed.Done()
						}
						errs <- fmt.Errorf("client of node %d, round %d: open %s: %w", i, round, path, err)
						return
					}
					opens.Add(1)
				}
			}
		}()
	}

	warmed.Wait() // every client has opened a round's worth
	before := opens.Load()
	rep, err := tc.nodes[drained].Drain()
	during := opens.Load() - before
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if during == 0 {
		t.Error("no open completed while the drain ran")
	}
	// No Update ran on a survivor: the goodbye put them on the shrunk view.
	assertGoodbye(t, tc, rep, []int{0, 1}, tc.addrs[drained])
	if tc.nodes[drained].Ready() {
		t.Error("drained node still ready")
	}

	// Rejoin: the full membership on node 0 only; gossip carries it on.
	rejoin := rep.GoodbyeEpoch + 1
	if err := tc.nodes[0].Update(rejoin, tc.addrs); err != nil {
		t.Fatal(err)
	}
	converged := func() bool {
		for _, n := range tc.nodes {
			if n.Epoch() != rejoin {
				return false
			}
		}
		return true
	}
	for round := 0; round < 20 && !converged(); round++ {
		for _, g := range gossipers {
			g.Tick()
		}
	}
	for i, n := range tc.nodes {
		if n.Epoch() != rejoin || len(n.Members()) != len(tc.addrs) {
			t.Errorf("node %d at epoch %d with %d members after 20 rounds, want %d with %d",
				i, n.Epoch(), len(n.Members()), rejoin, len(tc.addrs))
		}
	}
	if !tc.nodes[drained].Ready() || tc.nodes[drained].Draining() {
		t.Error("the rejoin view did not bring the drained node back into service")
	}
}

// assertGoodbye checks a drain's goodbye against healthy survivors: it
// reached every one of them, failed on none, and each is on the goodbye
// view, which lacks the drained node.
func assertGoodbye(t *testing.T, tc *testCluster, rep DrainReport, survivors []int, drained string) {
	t.Helper()
	if rep.GoodbyePushed != len(survivors) || rep.GoodbyeFailed != 0 {
		t.Errorf("goodbye pushed %d, failed %d; want %d and 0", rep.GoodbyePushed, rep.GoodbyeFailed, len(survivors))
	}
	for _, i := range survivors {
		n := tc.nodes[i]
		if n.Epoch() != rep.GoodbyeEpoch || len(n.Members()) != len(survivors) || slices.Contains(n.Members(), drained) {
			t.Errorf("survivor %d at epoch %d with %v, want the goodbye view %d without %s",
				i, n.Epoch(), n.Members(), rep.GoodbyeEpoch, drained)
		}
	}
}
