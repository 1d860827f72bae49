package cluster

import (
	"errors"
	"net"
	"testing"
	"time"

	"aggcache/internal/fsnet"
	"aggcache/internal/gossip"
	"aggcache/internal/obs"
)

// TestApplyViewSemantics pins the ViewSource contract gossip depends
// on: stale views report (false, nil) — losing a race is not an error —
// while invalid views report a real error, and winners install.
func TestApplyViewSemantics(t *testing.T) {
	tc := startCluster(t, 2, nil)
	n := tc.nodes[0]

	if applied, err := n.ApplyView(1, tc.addrs); applied || err != nil {
		t.Errorf("stale ApplyView = (%v, %v), want (false, nil)", applied, err)
	}
	if n.Stats().Epoch != 1 {
		t.Fatalf("stale apply moved the epoch to %d", n.Epoch())
	}
	if applied, err := n.ApplyView(3, tc.addrs); !applied || err != nil {
		t.Fatalf("ApplyView(3) = (%v, %v), want installed", applied, err)
	}
	if n.Epoch() != 3 {
		t.Fatalf("epoch %d after apply, want 3", n.Epoch())
	}
	if applied, err := n.ApplyView(5, nil); applied || err == nil {
		t.Errorf("memberless ApplyView = (%v, %v), want a validation error", applied, err)
	}
}

// TestViewPullPushBetweenNodes exchanges views over the real wire in
// both directions, and an address outside the caller's installed view is
// refused without a dial.
func TestViewPullPushBetweenNodes(t *testing.T) {
	tc := startCluster(t, 3, nil)
	a, b := tc.nodes[0], tc.nodes[1]

	// b is newer; a pulls and installs.
	if err := b.Update(4, tc.addrs); err != nil {
		t.Fatal(err)
	}
	// b pulling from the older a learns a's epoch and installs nothing;
	// an older view is no stale update.
	applied, remote, err := b.ViewPullFrom(tc.addrs[0])
	if err != nil || applied || remote != 1 || b.staleUpdates.Load() != 0 {
		t.Fatalf("ViewPullFrom(older) = (%v, %d, %v) with %d stale updates, want (false, 1, nil) and 0",
			applied, remote, err, b.staleUpdates.Load())
	}
	applied, remote, err = a.ViewPullFrom(tc.addrs[1])
	if err != nil || !applied || remote != 4 {
		t.Fatalf("ViewPullFrom(newer) = (%v, %d, %v), want (true, 4, nil)", applied, remote, err)
	}
	if a.Epoch() != 4 {
		t.Fatalf("a's epoch %d after pull, want 4", a.Epoch())
	}

	// Same epoch on both sides: the pull reports the peer's epoch and
	// installs nothing.
	applied, remote, err = a.ViewPullFrom(tc.addrs[1])
	if err != nil || applied || remote != 4 {
		t.Fatalf("ViewPullFrom(equal) = (%v, %d, %v), want (false, 4, nil)", applied, remote, err)
	}

	// a advances to a view that drops node 2, then pushes it to b.
	if err := a.Update(6, tc.addrs[:2]); err != nil {
		t.Fatal(err)
	}
	remoteEpoch, err := a.ViewPushTo(tc.addrs[1], 6, tc.addrs[:2])
	if err != nil || remoteEpoch != 6 {
		t.Fatalf("ViewPushTo = (%d, %v), want (6, nil)", remoteEpoch, err)
	}
	if b.Epoch() != 6 || len(b.Members()) != 2 {
		t.Fatalf("b after push: epoch %d members %v, want 6/%v", b.Epoch(), b.Members(), tc.addrs[:2])
	}

	// Node 2 is no longer in a's view: both verbs refuse it, typed.
	if applied, _, err := a.ViewPullFrom(tc.addrs[2]); applied || !errors.Is(err, ErrNotMember) {
		t.Fatalf("out-of-view ViewPullFrom = (%v, %v), want ErrNotMember", applied, err)
	}
	if _, err := a.ViewPushTo(tc.addrs[2], 6, tc.addrs[:2]); !errors.Is(err, ErrNotMember) {
		t.Fatalf("out-of-view ViewPushTo = %v, want ErrNotMember", err)
	}
	if a.Epoch() != 6 || tc.nodes[2].Epoch() != 1 {
		t.Fatalf("refused exchanges moved epochs: a %d, node 2 %d", a.Epoch(), tc.nodes[2].Epoch())
	}
}

// TestViewMovesOnlyByExchange: a node learns a view only when an exchange
// is scheduled for it. Every node runs a gossiper built as aggserve builds
// one (hand-driven here), and the last node drains. Its goodbye moves the
// survivors at once; the drainer itself, which talked to both during the
// goodbye, must stay on its own view until its own anti-entropy round
// pulls the goodbye.
func TestViewMovesOnlyByExchange(t *testing.T) {
	tc := startCluster(t, 3, nil)
	const drained = 2
	gossipers := make([]*gossip.Gossiper, len(tc.nodes))
	for i, n := range tc.nodes {
		gossipers[i] = gossip.New(gossip.Config{Node: n, Seed: int64(i + 1), Obs: obs.NewRegistry()})
		gossipers[i].Start()
		defer gossipers[i].Stop()
	}
	rep, err := tc.nodes[drained].Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodbyePushed != 2 {
		t.Fatalf("goodbye reached %d survivors, want 2", rep.GoodbyePushed)
	}
	time.Sleep(200 * time.Millisecond)
	if got := tc.nodes[drained].Epoch(); got != 1 {
		t.Fatalf("drainer moved to epoch %d with no exchange scheduled, want 1", got)
	}
	gossipers[drained].Tick()
	if got := tc.nodes[drained].Epoch(); got != rep.GoodbyeEpoch {
		t.Fatalf("drainer at epoch %d after its own round, want the goodbye's %d", got, rep.GoodbyeEpoch)
	}
}

// TestDrainGoodbyeConvergesSurvivors is the drain half of the gossip
// acceptance bar: one Drain call removes the departing node from every
// survivor's view with no operator reload anywhere.
func TestDrainGoodbyeConvergesSurvivors(t *testing.T) {
	tc := startCluster(t, 3, nil)
	rep, err := tc.nodes[2].Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodbyeEpoch != 2 {
		t.Errorf("goodbye epoch %d, want installed+1 = 2", rep.GoodbyeEpoch)
	}
	if rep.GoodbyePushed != 2 || rep.GoodbyeFailed != 0 || rep.GoodbyeSkipped != 0 {
		t.Errorf("goodbye pushed/failed/skipped = %d/%d/%d, want 2/0/0",
			rep.GoodbyePushed, rep.GoodbyeFailed, rep.GoodbyeSkipped)
	}
	for i := 0; i < 2; i++ {
		n := tc.nodes[i]
		if n.Epoch() != 2 {
			t.Errorf("survivor %d epoch %d, want 2", i, n.Epoch())
		}
		for _, m := range n.Members() {
			if m == tc.addrs[2] {
				t.Errorf("survivor %d still lists the drained node", i)
			}
		}
		if len(n.Members()) != 2 {
			t.Errorf("survivor %d has %d members, want 2", i, len(n.Members()))
		}
	}
	// The drainer's own view stays intact (DESIGN.md §13): it keeps
	// serving what it still holds, and the shrunk ring reaches it only
	// if gossip echoes the goodbye back — which is harmless, but must
	// not have happened synchronously here.
	if tc.nodes[2].Epoch() != 1 || !tc.nodes[2].Draining() {
		t.Errorf("drainer epoch %d draining %v, want own view intact and draining",
			tc.nodes[2].Epoch(), tc.nodes[2].Draining())
	}
}

// TestDrainSkipsPeerThatRefusesConnection: when a whole fleet stops, the
// last node's goodbye goes to peers that have already exited. A push
// whose connection could not be made never reached the peer, so it is
// skipped, not failed.
func TestDrainSkipsPeerThatRefusesConnection(t *testing.T) {
	tc := startCluster(t, 2, func(i int, cfg *Config, _ *fsnet.ServerConfig) {
		cfg.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	})
	// An exchange first: the peer has served (its listener is open) and
	// the drainer holds a connection to it, as gossip leaves one.
	if _, _, err := tc.nodes[0].ViewPullFrom(tc.addrs[1]); err != nil {
		t.Fatal(err)
	}
	if err := tc.servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := tc.nodes[0].Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodbyeSkipped != 1 || rep.GoodbyeFailed != 0 || rep.GoodbyePushed != 0 {
		t.Errorf("goodbye pushed/failed/skipped = %d/%d/%d, want 0/0/1",
			rep.GoodbyePushed, rep.GoodbyeFailed, rep.GoodbyeSkipped)
	}
}

// TestViewExchangeRespectsBreaker: a peer in cooldown refuses the
// exchange locally with ErrPeerDown instead of burning a dial.
func TestViewExchangeRespectsBreaker(t *testing.T) {
	tc := startCluster(t, 2, nil)
	n := tc.nodes[0]
	tc.gates[tc.addrs[1]].SetDown(true)
	// Trip the breaker with failing pulls.
	for i := 0; i < failureThreshold; i++ {
		if _, _, err := n.ViewPullFrom(tc.addrs[1]); err == nil {
			t.Fatal("pull through a down gate succeeded")
		}
	}
	if _, _, err := n.ViewPullFrom(tc.addrs[1]); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("pull with tripped breaker = %v, want ErrPeerDown", err)
	}
	// Heal and lapse the cooldown on the fake clock; the next exchange
	// is the probe and it closes the breaker.
	tc.gates[tc.addrs[1]].SetDown(false)
	tc.clk.Advance(downDuration + time.Second)
	if _, _, err := n.ViewPullFrom(tc.addrs[1]); err != nil {
		t.Fatalf("post-heal probe pull: %v", err)
	}
}
