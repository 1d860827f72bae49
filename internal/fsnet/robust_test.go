package fsnet

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"aggcache/internal/faultnet"
)

// Unit tests for the client fault-tolerance layer: request deadlines,
// connection poisoning, retry/backoff, piggyback retention across failed
// round trips, and the lock split that keeps introspection off the wire.

// TestClientTimeoutBoundsStalledRequest: with a blackholed connection and
// a configured Timeout, Open fails within the deadline instead of
// hanging forever.
func TestClientTimeoutBoundsStalledRequest(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := faultnet.Wrap(raw, faultnet.Faults{Seed: 1, BlackholeProb: 1}, nil)
	client, err := NewClient(conn, ClientConfig{Timeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	_, err = client.Open("/data/f000")
	if !errors.Is(err, ErrConnBroken) {
		t.Fatalf("err = %v, want ErrConnBroken", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("stalled open took %v; deadline did not bound it", elapsed)
	}
	if st := client.Stats(); st.BrokenConns != 1 {
		t.Errorf("BrokenConns = %d, want 1", st.BrokenConns)
	}
}

// TestClientTimeoutFailsPipelinedCalls: three opens are in flight on one
// connection whose writes are parked, so no reply can come. The deadline
// the first of them armed, for writes as well as reads, fails all three
// with the timed-out error, and the next open redials and succeeds.
func TestClientTimeoutFailsPipelinedCalls(t *testing.T) {
	// The deadline runs from the first open's enqueue, so the other two
	// must join the queue within the timeout. An attempt in which the
	// scheduler was slower than that proves nothing and is run again.
	for attempt := 1; !pipelinedTimeout(t, 100*time.Millisecond); attempt++ {
		if attempt == 5 {
			t.Fatal("in 5 attempts the three opens were never in flight together before the first one's deadline")
		}
	}
}

// pipelinedTimeout runs one attempt of TestClientTimeoutFailsPipelinedCalls
// on a fresh server and client. It reports false, asserting nothing, when
// the connection broke before all three opens were in flight.
func pipelinedTimeout(t *testing.T, timeout time.Duration) bool {
	_, addr := startServer(t, seededStore(t, 8), ServerConfig{})
	gate := &faultnet.Gate{}
	dial, _ := faultnet.GatedDialer(addr, gate)
	conn, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	// A one-file cache keeps every open below a miss.
	client, err := NewClient(conn, ClientConfig{CacheCapacity: 1, Timeout: timeout, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil { // the handshake, before the gate holds
		t.Fatal(err)
	}
	client.mu.Lock()
	m := client.seed.mux
	client.mu.Unlock()

	gate.Hold()
	start := time.Now()
	errs := make(chan error, 3)
	opened := 0
	open := func(path string) {
		opened++
		go func() {
			_, err := client.Open(path)
			errs <- err
		}()
	}
	// wait polls until ready holds or m broke, bounded well past any
	// deadline; it reports whether m is still whole.
	wait := func(what string, ready func(inFlight int) bool) bool {
		for time.Since(start) < 5*time.Second {
			m.mu.Lock()
			n, broken := 0, m.broken
			for call := m.head; call != nil; call = call.next {
				n++
			}
			m.mu.Unlock()
			if broken {
				return false
			}
			if ready(n) {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("%s: neither happened nor timed out within 5 s", what)
		return false
	}
	settle := func() bool { // a spoilt attempt: let every open finish
		gate.Resume()
		for i := 0; i < opened; i++ {
			<-errs
		}
		return false
	}
	open("/data/f001")
	// The first open's flush is parked in its write.
	if !wait("the first open reaching the wire", func(int) bool { return gate.Waiting() > 0 }) {
		return settle()
	}
	open("/data/f002") // both queue behind the parked flush
	open("/data/f003")
	if !wait("three opens in flight", func(n int) bool { return n == 3 }) {
		return settle()
	}
	for i := 0; i < 3; i++ {
		err := <-errs
		if !errors.Is(err, ErrConnBroken) || !strings.Contains(err.Error(), "timed out") {
			t.Errorf("pipelined open err = %v, want a timed-out ErrConnBroken", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 10*timeout {
		t.Errorf("pipelined opens failed after %v, want within %v", elapsed, 10*timeout)
	}
	if st := client.Stats(); st.BrokenConns != 1 {
		t.Errorf("BrokenConns = %d, want 1: the three opens shared one connection", st.BrokenConns)
	}
	gate.Resume()
	if _, err := client.Open("/data/f004"); err != nil {
		t.Fatalf("open after the timed-out connection: %v", err)
	}
	return true
}

// TestClientWatchdogRearmsAfterIdle: the deadline the last call armed has
// passed while the connection sat idle, and the next call must arm its
// own before it writes — a request that stalls after a quiet spell still
// fails within its timeout, with the typed transport error, and is not
// sent again: a timeout is no idle close.
func TestClientWatchdogRearmsAfterIdle(t *testing.T) {
	router := newPeerRouter()
	defer close(router.release)
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{Router: router})
	const timeout = 100 * time.Millisecond
	client, err := Dial(addr, ClientConfig{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	// Long enough for a deadline left armed by that open to have fired.
	time.Sleep(3 * timeout)
	start := time.Now()
	_, err = client.Open("/remote/never")
	if !errors.Is(err, ErrConnBroken) || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("stalled open err = %v, want a timed-out ErrConnBroken", err)
	}
	if elapsed := time.Since(start); elapsed < timeout || elapsed > 20*timeout {
		t.Errorf("stalled open failed after %v, want about %v", elapsed, timeout)
	}
	if st := client.Stats(); st.Reconnects != 0 {
		t.Errorf("Reconnects = %d after the stalled open, want 0: a timed-out call is not sent again", st.Reconnects)
	}
	// The poisoned connection is replaced and serves again.
	if _, err := client.Open("/data/f001"); err != nil {
		t.Fatalf("open after the timed-out connection was replaced: %v", err)
	}
}

// TestClientPoisonsConnAfterIOError: after any I/O failure the connection
// is never reused — without a Dialer the client stays degraded.
func TestClientPoisonsConnAfterIOError(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := faultnet.Wrap(raw, faultnet.Faults{Seed: 2, WriteErrProb: 1}, nil)
	client, err := NewClient(conn, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("first open err = %v, want ErrConnBroken", err)
	}
	if client.Connected() {
		t.Error("poisoned connection still installed")
	}
	// Subsequent misses fail fast on the poisoned slot.
	if _, err := client.Open("/data/f001"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("second open err = %v, want ErrConnBroken", err)
	}
}

// TestClientRetriesOverFreshConnection: MaxRetries with a Dialer turns a
// one-shot transport failure into a successful request, observable in
// Retries and Reconnects.
func TestClientRetriesOverFreshConnection(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	// First dialed conn always fails writes; later conns are clean.
	dials := 0
	cfg := ClientConfig{
		MaxRetries: 3,
		Backoff:    Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Dialer: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials++
			if dials == 1 {
				return faultnet.Wrap(raw, faultnet.Faults{Seed: 3, WriteErrProb: 1}, nil), nil
			}
			return raw, nil
		},
	}
	conn, err := cfg.Dialer()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	data, err := client.Open("/data/f000")
	if err != nil {
		t.Fatalf("open with retry: %v", err)
	}
	if string(data) != "contents of /data/f000" {
		t.Errorf("data = %q", data)
	}
	st := client.Stats()
	if st.Retries == 0 || st.Reconnects == 0 || st.BrokenConns == 0 {
		t.Errorf("retry not observable: %+v", st)
	}
}

// TestClientRetryExhaustionFails: when every attempt fails, Open returns
// ErrConnBroken after MaxRetries+1 attempts, not an infinite loop.
func TestClientRetryExhaustionFails(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	dials := 0
	cfg := ClientConfig{
		MaxRetries: 2,
		Backoff:    Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		Dialer: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials++
			return faultnet.Wrap(raw, faultnet.Faults{Seed: int64(dials), WriteErrProb: 1}, nil), nil
		},
	}
	conn, err := cfg.Dialer()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("err = %v, want ErrConnBroken", err)
	}
	if st := client.Stats(); st.Retries != 2 {
		t.Errorf("Retries = %d, want 2 (MaxRetries)", st.Retries)
	}
}

// TestPiggybackRetainedAcrossFailedRoundTrip is the regression test for
// the lost-metadata bug: a failed round trip must NOT drop the
// piggybacked access history. The server must still learn the hit-path
// transitions from the next successful request.
func TestPiggybackRetainedAcrossFailedRoundTrip(t *testing.T) {
	store := seededStore(t, 10)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 2})

	// A dialer whose second connection (used for the failing request)
	// dies on write; all others are clean.
	dials := 0
	cfg := ClientConfig{
		CacheCapacity: 32,
		MaxRetries:    0, // fail fast: the round trip must fail outright
		Dialer: func() (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			dials++
			if dials == 2 {
				return faultnet.Wrap(raw, faultnet.Faults{Seed: 4, WriteErrProb: 1}, nil), nil
			}
			return raw, nil
		},
	}
	conn, err := cfg.Dialer()
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(conn, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Misses for f000 and f001 (learned), then hits that only exist in
	// the piggyback history.
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open("/data/f001"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open("/data/f000"); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := client.Open("/data/f001"); err != nil { // hit
		t.Fatal(err)
	}
	// Poison the healthy conn so the next miss redials onto the faulty
	// second connection and the round trip fails, carrying the history.
	poisonSeed(client)
	if _, err := client.Open("/data/f005"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("expected failed round trip, got %v", err)
	}

	// The next request (clean third connection) must deliver the
	// retained history: 2 hit records + the failed demanded open + this
	// open itself.
	if _, err := client.Open("/data/f006"); err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	// A server learns a request's history after its reply is on the wire,
	// and before any other use of its cache (lockAgg).
	observed := func() uint64 {
		srv.lockAgg()
		defer srv.aggMu.Unlock()
		return srv.agg.Tracker().Observed()
	}()
	// f000, f001 demanded, then f000,f001 hits + f005 (failed demanded,
	// re-sent as history) + f006 demanded: 4 accesses after recovery.
	if observed != 6 {
		t.Errorf("server observed %d accesses, want 6: 2 misses, then 4 after recovery (history retained)", observed)
	}
	// And the hit-path transition f000 -> f001 was learned.
	srv.aggMu.Lock()
	id0, ok0 := srv.ids.Lookup("/data/f000")
	id1, ok1 := srv.ids.Lookup("/data/f001")
	var learned bool
	if ok0 && ok1 {
		for _, sid := range srv.agg.Tracker().Successors(id0) {
			if sid == id1 {
				learned = true
			}
		}
	}
	srv.aggMu.Unlock()
	if !learned {
		t.Error("server did not learn the piggybacked f000 -> f001 transition")
	}
}

// TestPoisonedClaimIsSentAgain: an open whose request claimed history
// from the log and then died on the wire, before any reply, moves its
// link's cursor back over that claim, so the next request on a fresh
// connection carries the same entries again and the server learns every
// access once: the hits, the failed open and the recovery open.
func TestPoisonedClaimIsSentAgain(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 10), ServerConfig{GroupSize: 1})
	gate := &faultnet.Gate{}
	dial := func() (net.Conn, error) {
		if gate.Down() {
			return nil, fmt.Errorf("%w: gate down", faultnet.ErrInjected)
		}
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return faultnet.Wrap(raw, faultnet.Faults{Gate: gate}, nil), nil
	}
	client, err := Dial(addr, ClientConfig{CacheCapacity: 32, MaxRetries: 0, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, p := range []string{"/data/f000", "/data/f001", "/data/f000", "/data/f001"} {
		if _, err := client.Open(p); err != nil {
			t.Fatal(err)
		}
	}
	// The flush claims f000, f001 (hits) for f002's request, whose write
	// then fails.
	gate.SetDown(true)
	if _, err := client.Open("/data/f002"); err == nil {
		t.Fatal("open through a closed gate succeeded")
	}
	gate.SetDown(false)
	if _, err := client.Open("/data/f003"); err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	srv.lockAgg()
	observed := srv.agg.Tracker().Observed()
	srv.aggMu.Unlock()
	// f000, f001 demanded; then the hits, the failed f002 and f003.
	if observed != 6 {
		t.Errorf("server observed %d accesses, want 6: the failed request's claim was lost or doubled", observed)
	}
	if got := successorPaths(srv, "/data/f002"); !slices.Equal(got, []string{"/data/f003"}) {
		t.Errorf("successors of f002 = %v, want [/data/f003]", got)
	}
}

// TestIntrospectionNeverWaitsOnTheWire is the regression test for the
// coarse-lock bug: Stats, Contains, and Close must return promptly while
// an Open is stalled on a dead wire.
func TestIntrospectionNeverWaitsOnTheWire(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 4), ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	// Blackholed, no timeout: the Open below blocks indefinitely.
	conn := faultnet.Wrap(raw, faultnet.Faults{Seed: 5, BlackholeProb: 1}, nil)
	client, err := NewClient(conn, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}

	opened := make(chan error, 1)
	go func() {
		_, err := client.Open("/data/f000")
		opened <- err
	}()
	// Give the Open a moment to reach the wire.
	time.Sleep(50 * time.Millisecond)

	probe := make(chan struct{})
	go func() {
		_ = client.Stats()
		_ = client.Contains("/data/f000")
		close(probe)
	}()
	select {
	case <-probe:
	case <-time.After(2 * time.Second):
		t.Fatal("Stats/Contains blocked behind a stalled request")
	}

	// Close must also return promptly — and it aborts the stalled Open.
	closed := make(chan error, 1)
	go func() { closed <- client.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked behind a stalled request")
	}
	select {
	case err := <-opened:
		if err == nil {
			t.Error("stalled open reported success after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled open never unblocked after Close")
	}
}

// TestBackoffSchedule pins the backoff math: exponential growth, Max cap,
// jitter bounded, deterministic for a fixed seed.
func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2, Jitter: 0}.withDefaults()
	wants := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, want := range wants {
		if got := b.delay(i, nil); got != want {
			t.Errorf("delay(%d) = %v, want %v", i, got, want)
		}
	}
	// Jitter stays within its fraction and is deterministic per seed.
	bj := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
	c1, err := NewClient(nil, ClientConfig{Seed: 7, Backoff: bj})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(nil, ClientConfig{Seed: 7, Backoff: bj})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		d1 := c1.cfg.Backoff.delay(i, c1.rng)
		d2 := c2.cfg.Backoff.delay(i, c2.rng)
		if d1 != d2 {
			t.Errorf("jittered delay(%d) diverges across equal seeds: %v vs %v", i, d1, d2)
		}
		base := c1.cfg.Backoff
		pure := Backoff{Base: base.Base, Max: base.Max, Multiplier: base.Multiplier, Jitter: 0}.delay(i, nil)
		if d1 < pure || d1 > pure+pure/2 {
			t.Errorf("delay(%d) = %v outside [%v, %v]", i, d1, pure, pure+pure/2)
		}
	}
}

// TestBusyRejectionIsRetried: a client bounced by MaxConns retries and
// gets in once a slot frees.
func TestBusyRejectionIsRetried(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 4), ServerConfig{MaxConns: 1})
	// Occupy the only slot...
	hog, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hog.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	// ...and free it shortly after the second client starts retrying.
	go func() {
		time.Sleep(50 * time.Millisecond)
		_ = hog.Close()
	}()

	client, err := Dial(addr, ClientConfig{
		MaxRetries: 10,
		Backoff:    Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		Timeout:    time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	data, err := client.Open("/data/f001")
	if err != nil {
		t.Fatalf("open through busy rejection: %v", err)
	}
	if string(data) != "contents of /data/f001" {
		t.Errorf("data = %q", data)
	}
}
