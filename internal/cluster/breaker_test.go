package cluster

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/faultnet"
	"aggcache/internal/fsnet"
)

// failOnceRouter answers its first open with a handled error — what a
// recovered panic or a malformed group makes of an open: a CodeInternal
// reply — and declines every later one to the server's own store.
type failOnceRouter struct{ calls atomic.Int32 }

func (r *failOnceRouter) RouteOpen(string, []string) ([]fsnet.GroupFile, bool, error) {
	if r.calls.Add(1) == 1 {
		return nil, true, errors.New("owner failed the open")
	}
	return nil, false, nil
}

// breakerRig is a node whose one peer is a plain fsnet.Server behind
// router (nil for none), reached through a gate, on a fake clock. The
// returned path is the peer's, and the peer's breaker has tripped on it
// after failureThreshold failed forwards.
type breakerRig struct {
	node *Node
	path string
	gate *faultnet.Gate
	clk  *tick
}

func newBreakerRig(t *testing.T, router fsnet.OpenRouter) *breakerRig {
	t.Helper()
	store := fsnet.NewStore()
	for f := 0; f < testFiles; f++ {
		path := fmt.Sprintf("/data/f%03d", f)
		if err := store.Put(path, []byte(testContent(path))); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := fsnet.NewServer(store, fsnet.ServerConfig{Router: router})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(func() { _ = srv.Close() })

	owner := l.Addr().String()
	r := &breakerRig{gate: &faultnet.Gate{}, clk: newTick()}
	r.node, err = NewNode(Config{
		Self:  "127.0.0.1:1", // never dialled: the node serves no one here
		Peers: []string{"127.0.0.1:1", owner},
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
	for f := 0; f < testFiles && r.path == ""; f++ {
		if path := fmt.Sprintf("/data/f%03d", f); r.node.Owner(path) == owner {
			r.path = path
		}
	}
	if r.path == "" {
		t.Fatal("the peer owns no test path")
	}

	r.gate.SetDown(true)
	for i := 0; i < failureThreshold; i++ {
		if _, handled, err := r.node.RouteOpen(r.path, nil); handled || err != nil {
			t.Fatalf("open with the owner down: handled=%v err=%v, want degraded", handled, err)
		}
	}
	if st := r.node.Stats().Peers[0]; st.Up || st.Trips != 1 {
		t.Fatalf("peer %+v after %d failed forwards, want tripped", st, failureThreshold)
	}
	r.gate.SetDown(false)
	return r
}

// forwardsAgain lapses one more cooldown and checks that the breaker
// admits a forward: an unresolved probe would refuse it for good.
func (r *breakerRig) forwardsAgain(t *testing.T) {
	t.Helper()
	r.clk.Advance(2 * time.Minute)
	before := r.node.Stats().ForwardedOpens
	files, handled, err := r.node.RouteOpen(r.path, nil)
	if !handled || err != nil {
		t.Fatalf("open after the cooldown: handled=%v err=%v, want forwarded (peer %+v)", handled, err, r.node.Stats().Peers[0])
	}
	if string(files[0].Data) != testContent(r.path) {
		t.Errorf("forwarded open read %q", files[0].Data)
	}
	if got := r.node.Stats().ForwardedOpens; got != before+1 {
		t.Errorf("ForwardedOpens %d -> %d, want one more", before, got)
	}
}

// TestTypedErrorResolvesForwardProbe: an owner that answers the
// half-open probe with a typed error is alive, so the probe closes the
// breaker. The forward that carried it degrades, and the next one goes
// through.
func TestTypedErrorResolvesForwardProbe(t *testing.T) {
	router := &failOnceRouter{}
	r := newBreakerRig(t, router)
	r.clk.Advance(2 * time.Minute)
	if _, handled, err := r.node.RouteOpen(r.path, nil); handled || err != nil {
		t.Fatalf("probe answered with a typed error: handled=%v err=%v, want degraded", handled, err)
	}
	if router.calls.Load() != 1 {
		t.Fatalf("the owner saw %d opens, want the probe", router.calls.Load())
	}
	if st := r.node.Stats().Peers[0]; !st.Up || st.Failures != 0 {
		t.Errorf("peer %+v after a typed reply, want closed", st)
	}
	r.forwardsAgain(t)
}

// TestTypedErrorResolvesHandoffProbe: the same for a drain whose handoff
// is the probe. The goodbye push finds the cooldown running and skips the
// peer; the cooldown lapses while the groups are exported; the handoff
// takes the probe and the owner refuses its anchor as not found.
func TestTypedErrorResolvesHandoffProbe(t *testing.T) {
	r := newBreakerRig(t, nil)
	rep, err := r.node.Drain(exportFunc(func() []fsnet.HandoffGroup {
		r.clk.Advance(2 * time.Minute)
		return []fsnet.HandoffGroup{{Anchor: "/nowhere/anchor", Members: []string{r.path}}}
	}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoodbyeSkipped != 1 || rep.GroupsFailed != 1 {
		t.Fatalf("drain report %+v, want the goodbye skipped and the handoff refused", rep)
	}
	if st := r.node.Stats().Peers[0]; !st.Up || st.Failures != 0 {
		t.Errorf("peer %+v after a typed reply, want closed", st)
	}
	r.forwardsAgain(t)
}

// exportFunc is a GroupSource that ignores the ownership filter.
type exportFunc func() []fsnet.HandoffGroup

func (f exportFunc) ExportGroups(func(string) bool) []fsnet.HandoffGroup { return f() }
