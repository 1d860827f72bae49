package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aggcache/internal/alloctest"
	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
)

// counterValue reads the one sample of a counter from reg.
func counterValue(t *testing.T, reg *obs.Registry, name string) uint64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return uint64(s.Value)
		}
	}
	t.Fatalf("no series %s", name)
	return 0
}

// hintTotals sums the nodes' sent and shed hint paths and the servers'
// received ones.
func (tc *testCluster) hintTotals() (sent, shed, received uint64) {
	for i, n := range tc.nodes {
		st := n.Stats()
		sent += st.PeerHintsSent
		shed += st.PeerHintsShed
		received += tc.servers[i].Stats().PeerHintsReceived
	}
	return sent, shed, received
}

// quiesce waits until no node holds a hint unsent or unacknowledged and
// every hint sent has been received: the senders are asynchronous.
func (tc *testCluster) quiesce(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		idle := true
		for _, n := range tc.nodes {
			for _, p := range n.view.Load().peers {
				idle = idle && p.hints.idle()
			}
		}
		sent, _, received := tc.hintTotals()
		if idle && sent == received {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("hints sent %d, received %d", sent, received)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeerHintSeriesMove: a workload with locality on a three-node ring
// moves every hint series off zero. Each node's deep builds name files its
// peers own, which go to them as stage hints: the nodes send them
// (cluster_peer_hints_sent_total), the peers receive every one
// (fsnet_server_peer_hints_received_total) and serve hits from what they
// staged (core_cache_peer_hint_hits_total). Hints beyond the bound a
// node keeps for a peer, and hints for a peer whose breaker is open, are
// shed (cluster_peer_hints_shed_total) and never reach the wire. Each
// series reads what its stats field reads.
func TestPeerHintSeriesMove(t *testing.T) {
	regs := make([]*obs.Registry, 3)
	tc := startCluster(t, 3, func(i int, cfg *Config, scfg *fsnet.ServerConfig) {
		regs[i] = obs.NewRegistry()
		cfg.Obs, scfg.Obs = regs[i], regs[i]
		scfg.CacheCapacity = 12
	})
	client := tc.client(t, 0, fsnet.ClientConfig{CacheCapacity: 8})
	rng := rand.New(rand.NewSource(3))
	f := 0
	for i := 0; i < 3000; i++ {
		if rng.Intn(5) == 0 {
			f = rng.Intn(testFiles/8) * 8
		} else {
			f = f/8*8 + (f+1)%8
		}
		if _, err := client.Open(fmt.Sprintf("/data/f%03d", f)); err != nil {
			t.Fatal(err)
		}
	}
	tc.quiesce(t)
	sent, _, received := tc.hintTotals()
	var hits uint64
	for i, n := range tc.nodes {
		st, srv := n.Stats(), tc.servers[i].Stats()
		hits += srv.PeerHintHits
		for _, c := range []struct {
			name  string
			field uint64
		}{
			{"cluster_peer_hints_sent_total", st.PeerHintsSent},
			{"cluster_peer_hints_shed_total", st.PeerHintsShed},
			{"fsnet_server_peer_hints_received_total", srv.PeerHintsReceived},
			{"core_cache_peer_hint_hits_total", srv.PeerHintHits},
		} {
			if got := counterValue(t, regs[i], c.name); got != c.field {
				t.Errorf("node %d: %s = %d, its stats field %d", i, c.name, got, c.field)
			}
		}
	}
	if sent == 0 || received != sent || hits == 0 {
		t.Fatalf("hints sent %d, received %d, hits on hinted files %d; want all moved", sent, received, hits)
	}

	// Past the bound: of five paths for a bound of two, three are shed.
	n, peer := tc.nodes[0], tc.addrs[1]
	paths := tc.pathsOwnedBy(t, 1, 5)
	_, shed, _ := tc.hintTotals()
	n.PeerHints(peer, paths, 2)
	tc.quiesce(t)
	if now, nowShed, _ := tc.hintTotals(); now != sent+2 || nowShed != shed+3 {
		t.Errorf("a hint of 5 paths under a bound of 2: sent %d more, shed %d more; want 2 and 3", now-sent, nowShed-shed)
	}

	// A tripped breaker: every path is shed, none sent.
	tc.gates[peer].SetDown(true)
	for i := 0; i < failureThreshold; i++ {
		if _, _, err := n.ViewPullFrom(peer); !errors.Is(err, fsnet.ErrConnBroken) {
			t.Fatalf("pull with the peer down: %v, want a transport failure", err)
		}
	}
	sent, shed, _ = tc.hintTotals()
	n.PeerHints(peer, paths, 10)
	if now, nowShed, _ := tc.hintTotals(); now != sent || nowShed != shed+uint64(len(paths)) {
		t.Errorf("hints to a tripped peer: sent %d more, shed %d more; want 0 and %d", now-sent, nowShed-shed, len(paths))
	}
	if st := n.Stats().Peers; st[0].Trips+st[1].Trips != 1 {
		t.Errorf("peers %+v: want the one trip the pulls made, hints never feed the breaker", st)
	}
}

// TestPeerHintSenderStopsWithThePeer: a peer's hint sender, started by
// its first hint, ends when the peer leaves the view or the node closes;
// hints for it afterwards are shed.
func TestPeerHintSenderStopsWithThePeer(t *testing.T) {
	tc := startCluster(t, 3, nil)
	n := tc.nodes[0]
	for _, i := range []int{1, 2} {
		n.PeerHints(tc.addrs[i], tc.pathsOwnedBy(t, i, 2), 10)
	}
	tc.quiesce(t)
	v := n.view.Load()
	left, stays := v.peers[tc.addrs[2]], v.peers[tc.addrs[1]]
	// Paths node 2 owns, named while the view still has it.
	late := tc.pathsOwnedBy(t, 2, 2)
	if err := n.Update(2, tc.addrs[:2]); err != nil {
		t.Fatal(err)
	}
	<-left.hints.done
	_, shed, _ := tc.hintTotals()
	n.PeerHints(tc.addrs[2], late, 10)
	if _, now, _ := tc.hintTotals(); now != shed+2 {
		t.Errorf("hints for a departed peer: shed %d, want 2", now-shed)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	<-stays.hints.done
}

// TestAllocBudgetPeerHint pins a steady-state stage hint end to end: the
// node buffers it and wakes the peer's sender, which encodes it into the
// request it keeps and sends it over the peer's client, and the peer's
// server decodes it, stages what it owns and acks — 0 allocations.
func TestAllocBudgetPeerHint(t *testing.T) {
	tc := plainRing(t)
	n, peer := tc.nodes[0], tc.addrs[1]
	paths := tc.pathsOwnedBy(t, 1, 4)
	op := func() {
		want := n.hintsSent.Load() + uint64(len(paths))
		n.PeerHints(peer, paths, 10)
		// Sleep, not spin: the measurement runs on one P, which polls
		// the network for the ack only when it falls idle.
		for n.hintsSent.Load() < want {
			time.Sleep(time.Microsecond)
		}
	}
	if allocs := alloctest.PerOp(t, op); allocs != 0 {
		t.Errorf("a stage hint allocates %.0f objects, budget exactly 0", allocs)
	}
}
