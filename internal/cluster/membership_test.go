package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
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
// a removed peer's breaker and mirror state lived forever: dropping a
// peer from the view must delete its breaker entry and backlog and purge
// its mirror groups, and re-adding it must start from a fresh, closed
// breaker and an empty backlog.
func TestMembershipRemovedPeerGC(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.FailureThreshold = 1
		cfg.DownDuration = time.Hour
		cfg.MirrorTTL = time.Hour
	})
	n := tc.nodes[0]
	victim := tc.addrs[2]
	path := tc.pathOwnedBy(t, 2, nil)

	// Populate mirror state owned by the victim, then trip its breaker.
	if _, handled, err := n.RouteOpen(path, nil); err != nil || !handled {
		t.Fatalf("warm forward: handled=%v err=%v", handled, err)
	}
	if n.Stats().MirrorGroups == 0 {
		t.Fatal("forward did not mirror the group")
	}
	tc.gates[victim].SetDown(true)
	second := tc.pathOwnedBy(t, 2, map[string]bool{path: true})
	// The failed forward degrades to the local replica (handled=false)
	// and, with threshold 1, trips the victim's breaker.
	if _, handled, err := n.RouteOpen(second, nil); err != nil || handled {
		t.Fatalf("tripping open: handled=%v err=%v", handled, err)
	}
	st := n.Stats()
	var found bool
	for _, p := range st.Peers {
		if p.Addr == victim {
			found = true
			if p.Failures == 0 && p.Trips == 0 {
				t.Errorf("victim breaker untouched before removal: %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("victim missing from stats before removal")
	}

	// The failed forward's history is owed to the victim.
	for _, p := range st.Peers {
		if p.Addr == victim && p.Backlog == 0 {
			t.Errorf("nothing on the victim's backlog after a failed forward: %+v", p)
		}
	}

	// Remove the victim: breaker entry, backlog (it is the closed client's)
	// and mirror groups must go with it.
	if err := n.Update(2, tc.addrs[:2]); err != nil {
		t.Fatal(err)
	}
	st = n.Stats()
	for _, p := range st.Peers {
		if p.Addr == victim {
			t.Errorf("removed peer still in stats: %+v", p)
		}
	}
	if st.MirrorGroups != 0 {
		t.Errorf("removed peer left %d mirror groups behind", st.MirrorGroups)
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
			if !p.Up || p.Failures != 0 || p.Trips != 0 || p.Backlog != 0 {
				t.Errorf("re-added peer inherited old breaker state or backlog: %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("re-added peer missing from stats")
	}
	// And it forwards again immediately — no cooldown carried over.
	if _, handled, err := n.RouteOpen(path, nil); err != nil || !handled {
		t.Errorf("forward to re-added peer: handled=%v err=%v", handled, err)
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
	if _, err := n.Drain(nil); err != nil {
		t.Fatal(err)
	}
	if n.Ready() || !n.Draining() {
		t.Fatal("drain did not flip readiness")
	}
	if _, err := n.Drain(nil); !errors.Is(err, ErrDraining) {
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

// groupOf returns the members an owner would ship with anchor right now.
func groupOf(s *fsnet.Server, anchor string) []string {
	for _, g := range s.ExportGroups(func(path string) bool { return path == anchor }) {
		return g.Members
	}
	return nil
}

// TestOutageHistoryRidesHealingProbe: the history a node owes a down owner
// waits in one place, the peer client's backlog, so the probe that heals
// the peer delivers the whole outage in its own request and the owner
// learns it in the order it happened. Opens a, b, c land while the breaker
// is open and d is the probe: the owner must learn a→b, b→c, c→d — not
// a→d, what it learned when the first forward's history rode the probe and
// the rest a replay behind it.
func TestOutageHistoryRidesHealingProbe(t *testing.T) {
	reg := obs.NewRegistry()
	tc := startCluster(t, 2, func(i int, cfg *Config) {
		cfg.MirrorCapacity = -1 // every open reaches the health gate
		cfg.FailureThreshold = 1
		cfg.DownDuration = time.Minute
		if i == 0 {
			cfg.Obs = reg
		}
	})
	n := tc.nodes[0]
	victim := tc.addrs[1]
	p := tc.pathsOwnedBy(t, 1, 4) // a, b, c, d

	tc.gates[victim].SetDown(true)
	// The first open eats the forward failure and trips the breaker
	// (threshold 1); the next two short-circuit on it. All three degrade
	// to the local replica.
	for _, path := range p[:3] {
		if _, handled, err := n.RouteOpen(path, nil); err != nil || handled {
			t.Fatalf("open of %s with the owner down: handled=%v err=%v, want degraded", path, handled, err)
		}
	}
	if got := n.Stats().Peers[0].Backlog; got != 3 {
		t.Fatalf("Backlog = %d with three opens owed to the down owner, want 3", got)
	}
	if got := gaugeValue(t, reg, "cluster_peer_backlog", victim); got != 3 {
		t.Errorf("cluster_peer_backlog = %v during the outage, want 3", got)
	}

	// Heal and lapse the cooldown: the next open is the probe.
	tc.gates[victim].SetDown(false)
	tc.clk.Advance(2 * time.Minute)
	if _, handled, err := n.RouteOpen(p[3], nil); err != nil || !handled {
		t.Fatalf("probe open: handled=%v err=%v", handled, err)
	}
	if got, st := gaugeValue(t, reg, "cluster_peer_backlog", victim), n.Stats().Peers[0]; got != 0 || st.Backlog != 0 || !st.Up {
		t.Errorf("after the probe: cluster_peer_backlog = %v, peer %+v, want an empty backlog on a healed peer", got, st)
	}

	owner := tc.servers[1]
	if got := groupOf(owner, p[0]); len(got) == 0 || got[0] != p[1] {
		t.Errorf("owner's group of a = %v, want it led by b (%s)", got, p[1])
	}
	if got := groupOf(owner, p[2]); len(got) == 0 || got[0] != p[3] {
		t.Errorf("owner's group of c = %v, want it led by d (%s)", got, p[3])
	}
	for _, m := range groupOf(owner, p[0]) {
		if m == p[3] {
			t.Errorf("owner learned a→d (group of a = %v): the outage arrived out of order", groupOf(owner, p[0]))
		}
	}
}

// TestClusterChurnKillRejoinDrain is the elastic-membership acceptance
// test: under a concurrent workload a node is killed, heals and rejoins,
// and then a *different* node is removed from the ring and drained — all
// without one client-visible error, with the drained node's group state
// landing warm on the new owners, and with the routing counter equation
// intact on every node afterwards. Runs under -race in `make race`.
func TestClusterChurnKillRejoinDrain(t *testing.T) {
	tc := startCluster(t, 3, func(i int, cfg *Config) {
		cfg.MirrorCapacity = -1 // keep every open on the routing/health path
		cfg.FailureThreshold = 2
		cfg.DownDuration = time.Minute
		cfg.PeerTimeout = 2 * time.Second
	})
	const (
		victim  = 2 // killed and healed mid-workload
		drained = 1 // removed from the ring and drained at the end
	)

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	var warmed sync.WaitGroup
	warmed.Add(2)
	killed := make(chan struct{})
	for i := 0; i < 2; i++ {
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
	// ...give the survivors time to trip breakers and degrade opens, then
	// heal it and lapse the cooldown so probes readmit it.
	time.Sleep(100 * time.Millisecond)
	tc.gates[tc.addrs[victim]].SetDown(false)
	tc.clk.Advance(2 * time.Minute)

	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Rebalance: the survivors drop the drained node from their views and
	// it streams its owned group state to the new owners.
	rest := []string{tc.addrs[0], tc.addrs[victim]}
	for _, i := range []int{0, victim} {
		if err := tc.nodes[i].Update(2, rest); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := tc.nodes[drained].Drain(tc.servers[drained])
	if err != nil {
		t.Fatal(err)
	}
	if rep.GroupsExported == 0 {
		t.Fatal("drained node had no learned group state to export")
	}
	if rep.GroupsFailed != 0 {
		t.Errorf("drain failed %d groups against healthy receivers", rep.GroupsFailed)
	}
	// Acceptance bar: at least 95% of the exported state lands warm.
	if 100*rep.GroupsSent < 95*rep.GroupsExported {
		t.Errorf("drain delivered %d of %d groups, below the 95%% bar",
			rep.GroupsSent, rep.GroupsExported)
	}
	received := tc.servers[0].Stats().Handoffs + tc.servers[victim].Stats().Handoffs
	if received != uint64(rep.GroupsSent) {
		t.Errorf("receivers installed %d handoff groups, drain sent %d", received, rep.GroupsSent)
	}

	// After the full kill/rejoin/drain cycle the per-node counter
	// equation still holds: every remote open the server delegated is
	// accounted for by exactly one routing outcome.
	for i, n := range tc.nodes {
		st := n.Stats()
		answered := st.ForwardedOpens + st.MirrorHits + st.CoalescedForwards
		if srv := tc.servers[i].Stats(); srv.RemoteOpens != answered {
			t.Errorf("node %d: server RemoteOpens=%d != forwarded %d + mirror %d + coalesced %d",
				i, srv.RemoteOpens, st.ForwardedOpens, st.MirrorHits, st.CoalescedForwards)
		}
	}
	degraded := tc.nodes[0].Stats().DegradedOpens + tc.nodes[drained].Stats().DegradedOpens
	if degraded == 0 {
		t.Error("kill window produced no degraded opens; outage never landed")
	}

	// The shrunk ring still serves everything, warm state included.
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
