package cluster

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"aggcache/internal/faultnet"
	"aggcache/internal/fsnet"
)

// breakerRig is a node whose one peer is a plain fsnet.Server — one with
// no membership view, so it answers a view pull with a typed error —
// reached through a gate, on a fake clock. The peer's breaker has tripped
// after failureThreshold failed view pulls.
type breakerRig struct {
	node *Node
	peer string
	gate *faultnet.Gate
	clk  *tick
}

func newBreakerRig(t *testing.T) *breakerRig {
	t.Helper()
	srv, err := fsnet.NewServer(fsnet.NewStore(), fsnet.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	r := &breakerRig{peer: l.Addr().String(), gate: &faultnet.Gate{}, clk: newTick()}
	r.node, err = NewNode(Config{
		Self:  "127.0.0.1:1", // never dialled: the node serves no one here
		Peers: []string{"127.0.0.1:1", r.peer},
		Now:   r.clk.Now,
		Dialer: func(addr string) (net.Conn, error) {
			if r.gate.Down() {
				return nil, fmt.Errorf("%w: gate down: dial %s", faultnet.ErrInjected, addr)
			}
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultnet.Wrap(conn, faultnet.Faults{Gate: r.gate}, nil), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = r.node.Close() })

	r.gate.SetDown(true)
	for i := 0; i < failureThreshold; i++ {
		if _, _, err := r.node.ViewPullFrom(r.peer); !errors.Is(err, fsnet.ErrConnBroken) {
			t.Fatalf("pull with the peer down: %v, want a transport failure", err)
		}
	}
	if st := r.node.Stats().Peers[0]; st.Up || st.Trips != 1 {
		t.Fatalf("peer %+v after %d failed pulls, want tripped", st, failureThreshold)
	}
	r.gate.SetDown(false)
	return r
}

// exchangesAgain lapses one more cooldown and checks that the breaker
// admits an exchange: an unresolved probe would refuse it for good.
func (r *breakerRig) exchangesAgain(t *testing.T) {
	t.Helper()
	r.clk.Advance(2 * time.Minute)
	if _, _, err := r.node.ViewPullFrom(r.peer); err == nil || errors.Is(err, ErrPeerDown) || errors.Is(err, fsnet.ErrConnBroken) {
		t.Fatalf("pull after the cooldown: %v, want the peer's typed refusal (peer %+v)", err, r.node.Stats().Peers[0])
	}
	if st := r.node.Stats().Peers[0]; !st.Up || st.Failures != 0 {
		t.Errorf("peer %+v after a typed reply, want closed", st)
	}
}

// TestTypedErrorResolvesViewProbe: a peer that answers the half-open
// probe — here a view pull — with a typed error is alive, so the probe
// closes the breaker, and the next exchange goes through.
func TestTypedErrorResolvesViewProbe(t *testing.T) {
	r := newBreakerRig(t)
	r.clk.Advance(2 * time.Minute)
	if _, _, err := r.node.ViewPullFrom(r.peer); err == nil || errors.Is(err, ErrPeerDown) {
		t.Fatalf("probe: %v, want the peer's typed refusal", err)
	}
	if st := r.node.Stats().Peers[0]; !st.Up || st.Failures != 0 {
		t.Errorf("peer %+v after a typed reply, want closed", st)
	}
	r.exchangesAgain(t)
}

// TestTypedErrorResolvesGoodbyeProbe: the same for a drain whose goodbye
// is the probe. The cooldown lapses before the drain; the goodbye push
// takes the half-open probe and the peer, which has no membership view,
// refuses it with a typed error.
func TestTypedErrorResolvesGoodbyeProbe(t *testing.T) {
	r := newBreakerRig(t)
	r.clk.Advance(2 * time.Minute)
	rep, err := r.node.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodbyeFailed != 1 || rep.GoodbyePushed != 0 || rep.GoodbyeSkipped != 0 {
		t.Fatalf("drain report %+v, want the goodbye admitted and refused", rep)
	}
	if st := r.node.Stats().Peers[0]; !st.Up || st.Failures != 0 {
		t.Errorf("peer %+v after a typed reply, want closed", st)
	}
	r.exchangesAgain(t)
}
