package gossip_test

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"aggcache/internal/cluster"
	"aggcache/internal/faultnet"
	"aggcache/internal/fsnet"
	"aggcache/internal/gossip"
	"aggcache/internal/obs"
)

// The gossip suite runs real nodes over real loopback sockets but keeps
// every clock fake and every anti-entropy round hand-driven: Interval 0
// disables the background loop, Tick() advances dissemination one round
// at a time, and breaker cooldowns lapse by Advance, never by sleeping.

// fakeClock is a hand-advanced clock for breaker cooldowns.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// harness is an in-process fleet: per node one store replica, one
// cluster.Node, one fsnet server with the node wired as Router and
// Views, and one hand-driven gossiper. Every connection passes through
// BOTH endpoints' gates, so downing one node's gate is a full partition
// of that node — inbound and outbound.
type harness struct {
	addrs     []string
	nodes     []*cluster.Node
	gossipers []*gossip.Gossiper
	gates     map[string]*faultnet.Gate
	clk       *fakeClock
}

func startHarness(t *testing.T, numNodes int) *harness {
	t.Helper()
	h := &harness{gates: make(map[string]*faultnet.Gate), clk: newFakeClock()}

	listeners := make([]net.Listener, numNodes)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		h.addrs = append(h.addrs, l.Addr().String())
		h.gates[l.Addr().String()] = &faultnet.Gate{}
	}

	for i := 0; i < numNodes; i++ {
		store := fsnet.NewStore()
		for f := 0; f < 16; f++ {
			path := fmt.Sprintf("/data/f%03d", f)
			if err := store.Put(path, []byte("contents of "+path)); err != nil {
				t.Fatal(err)
			}
		}
		self := h.addrs[i]
		dial := func(addr string) (net.Conn, error) {
			own, tgt := h.gates[self], h.gates[addr]
			if own.Down() || tgt.Down() {
				return nil, fmt.Errorf("%w: partition: dial %s from %s", faultnet.ErrInjected, addr, self)
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(faultnet.Wrap(conn, faultnet.Faults{Gate: tgt}, nil),
				faultnet.Faults{Gate: own}, nil), nil
		}
		node, err := cluster.NewNode(cluster.Config{
			Self:   self,
			Peers:  h.addrs,
			Dialer: dial,
			Now:    h.clk.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, node)

		srv, err := fsnet.NewServer(store, fsnet.ServerConfig{
			GroupSize: 2,
			Router:    node,
			Views:     node,
		})
		if err != nil {
			t.Fatal(err)
		}
		l := listeners[i]
		go func() { _ = srv.Serve(l) }()
		t.Cleanup(func() { _ = srv.Close() })
		t.Cleanup(func() { _ = node.Close() })

		g := gossip.New(gossip.Config{Node: node, Seed: int64(i + 1)})
		h.gossipers = append(h.gossipers, g)
		t.Cleanup(g.Stop)
	}
	return h
}

// converge hand-drives rounds until every listed node reaches epoch
// want, bounded by round count — not wall time, so a regression fails
// fast instead of hanging.
func (h *harness) converge(want uint64, idx ...int) bool {
	for round := 0; round < 64; round++ {
		done := true
		for _, i := range idx {
			if h.nodes[i].Epoch() < want {
				done = false
			}
		}
		if done {
			return true
		}
		for _, i := range idx {
			h.gossipers[i].Tick()
		}
	}
	for _, i := range idx {
		if h.nodes[i].Epoch() < want {
			return false
		}
	}
	return true
}

// TestOneUpdateConvergesFleet is the headline acceptance check in
// harness form: a single Update on a single node — one operator reload
// — converges every node's epoch with no other operator action.
func TestOneUpdateConvergesFleet(t *testing.T) {
	h := startHarness(t, 3)
	if err := h.nodes[1].Update(2, h.addrs); err != nil {
		t.Fatal(err)
	}
	if !h.converge(2, 0, 1, 2) {
		t.Fatalf("fleet did not converge: epochs %d/%d/%d",
			h.nodes[0].Epoch(), h.nodes[1].Epoch(), h.nodes[2].Epoch())
	}
	for i, n := range h.nodes {
		if got := len(n.Members()); got != 3 {
			t.Errorf("node %d has %d members after convergence, want 3", i, got)
		}
	}
}

// TestPartitionHealConverges is the deterministic 3-node partition
// test: node C is fully partitioned (both directions), a view update
// lands on A, the connected majority converges while C provably does
// not — and once the partition heals and the breaker cooldown lapses on
// the fake clock, anti-entropy alone carries C to the fleet epoch.
// Zero wall-clock sleeps anywhere.
func TestPartitionHealConverges(t *testing.T) {
	h := startHarness(t, 3)
	const c = 2
	h.gates[h.addrs[c]].SetDown(true)

	if err := h.nodes[0].Update(2, h.addrs); err != nil {
		t.Fatal(err)
	}
	if !h.converge(2, 0, 1) {
		t.Fatalf("connected side did not converge: epochs %d/%d",
			h.nodes[0].Epoch(), h.nodes[1].Epoch())
	}

	// The partitioned node cannot learn the view: its own rounds fail
	// outbound, and nothing reaches it inbound.
	for i := 0; i < 8; i++ {
		h.gossipers[c].Tick()
	}
	if got := h.nodes[c].Epoch(); got != 1 {
		t.Fatalf("partitioned node reached epoch %d, partition is leaky", got)
	}

	// Heal. Breakers tripped by the partition stay open until their
	// cooldown lapses — on the fake clock, not in wall time.
	h.gates[h.addrs[c]].SetDown(false)
	h.clk.Advance(10 * time.Second)

	if !h.converge(2, 0, 1, 2) {
		t.Fatalf("fleet did not converge after heal: epochs %d/%d/%d",
			h.nodes[0].Epoch(), h.nodes[1].Epoch(), h.nodes[c].Epoch())
	}
}

// scriptedView is a minimal View for unit-testing the gossiper's tick
// logic without sockets.
type scriptedView struct {
	self string

	mu      sync.Mutex
	epoch   uint64
	members []string
	pulls   []string
	pushes  []string
	// pull, when set, scripts ViewPullFrom's answer; nil reports the
	// peer at our own epoch and installs nothing.
	pull func() (applied bool, remote uint64, err error)
}

func (v *scriptedView) Self() string { return v.self }

func (v *scriptedView) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

func (v *scriptedView) ViewSnapshot() (uint64, []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch, append([]string(nil), v.members...)
}

func (v *scriptedView) ViewPullFrom(addr string) (bool, uint64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pulls = append(v.pulls, addr)
	if v.pull != nil {
		return v.pull()
	}
	return false, v.epoch, nil
}

func (v *scriptedView) ViewPushTo(addr string, epoch uint64, members []string) (uint64, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pushes = append(v.pushes, addr)
	return epoch, nil
}

// TestGossipSeriesMove: New registers exactly the five gossip counters,
// and each moves with the rounds that should move it — a round against a
// newer peer pulls and installs, one against an older peer pushes back,
// one against a downed peer fails.
func TestGossipSeriesMove(t *testing.T) {
	v := &scriptedView{self: "a:1", epoch: 5, members: []string{"a:1", "b:2"}}
	reg := obs.NewRegistry()
	g := gossip.New(gossip.Config{Node: v, Obs: reg, Seed: 1})
	defer g.Stop()

	names := []string{"gossip_rounds_total", "gossip_pulls_total", "gossip_pushes_total",
		"gossip_views_applied_total", "gossip_failures_total"}
	check := func(when string, want ...float64) {
		t.Helper()
		snap := reg.Snapshot()
		if len(snap) != len(names) {
			t.Fatalf("%s: %d series registered, want %d: %+v", when, len(snap), len(names), snap)
		}
		for i, s := range snap {
			if s.Name != names[i] || s.Kind != obs.KindCounter || s.Value != want[i] {
				t.Errorf("%s: series %d = %s (%v) at %v, want counter %s at %v",
					when, i, s.Name, s.Kind, s.Value, names[i], want[i])
			}
		}
	}
	check("at rest", 0, 0, 0, 0, 0)

	v.pull = func() (bool, uint64, error) { return true, 9, nil }
	g.Tick()
	check("after a round against a newer peer", 1, 1, 0, 1, 0)

	v.pull = func() (bool, uint64, error) { return false, 2, nil }
	g.Tick()
	check("after a round against an older peer", 2, 2, 1, 1, 0)

	v.pull = func() (bool, uint64, error) { return false, 0, errors.New("peer down") }
	g.Tick()
	check("after a round against a downed peer", 3, 2, 1, 1, 1)
}

// TestTickPushesBackWhenPeerOlder: a round against an older peer pulls
// first, then pushes our view so one tick converges the pair in either
// direction.
func TestTickPushesBackWhenPeerOlder(t *testing.T) {
	v := &scriptedView{self: "a:1", epoch: 5, members: []string{"a:1", "b:2"}}
	v.epoch = 5
	g := gossip.New(gossip.Config{Node: v, Seed: 1})
	defer g.Stop()
	// ViewPullFrom reports the peer at our own epoch → no push.
	g.Tick()
	v.mu.Lock()
	pulls, pushes := len(v.pulls), len(v.pushes)
	v.mu.Unlock()
	if pulls != 1 || pushes != 0 {
		t.Fatalf("tick against equal peer: %d pulls %d pushes, want 1/0", pulls, pushes)
	}
	// Drop the reported epoch below ours → the next tick pushes back.
	v.mu.Lock()
	v.epoch = 5
	v.mu.Unlock()
	older := &scriptedView{self: "a:1", epoch: 5, members: []string{"a:1", "b:2"}}
	older.pull = func() (bool, uint64, error) { return false, 2, nil }
	pullStub := gossip.New(gossip.Config{Node: older, Seed: 1})
	defer pullStub.Stop()
	pullStub.Tick()
	older.mu.Lock()
	pulls, pushes = len(older.pulls), len(older.pushes)
	older.mu.Unlock()
	if pulls != 1 || pushes != 1 {
		t.Fatalf("tick against older peer: %d pulls %d pushes, want 1/1", pulls, pushes)
	}
}

// TestTickFanoutDeterministic: each round reconciles with exactly one
// peer, never self, and the same seed yields the same peer selection
// sequence across rounds, so failures in peer scheduling reproduce
// exactly.
func TestTickFanoutDeterministic(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3", "d:4", "e:5"}
	run := func() []string {
		v := &scriptedView{self: "a:1", epoch: 5, members: members}
		g := gossip.New(gossip.Config{Node: v, Seed: 7})
		defer g.Stop()
		for i := 0; i < 4; i++ {
			g.Tick()
		}
		v.mu.Lock()
		defer v.mu.Unlock()
		return append([]string(nil), v.pulls...)
	}
	first, second := run(), run()
	if len(first) != 4 {
		t.Fatalf("4 rounds made %d pulls, want 4", len(first))
	}
	for i := range first {
		if first[i] == "a:1" {
			t.Errorf("round %d pulled self", i)
		}
		if first[i] != second[i] {
			t.Fatalf("same seed diverged at pull %d: %v vs %v", i, first, second)
		}
	}
}
