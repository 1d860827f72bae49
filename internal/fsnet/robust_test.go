package fsnet

import (
	"errors"
	"net"
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
	_ = client.desync(errors.New("injected"))
	if _, err := client.Open("/data/f005"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("expected failed round trip, got %v", err)
	}

	before := func() uint64 {
		srv.aggMu.Lock()
		defer srv.aggMu.Unlock()
		return srv.agg.Tracker().Observed()
	}()

	// The next request (clean third connection) must deliver the
	// retained history: 2 hit records + the failed demanded open + this
	// open itself.
	if _, err := client.Open("/data/f006"); err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	after := func() uint64 {
		srv.aggMu.Lock()
		defer srv.aggMu.Unlock()
		return srv.agg.Tracker().Observed()
	}()
	// f000,f001 hits + f005 (failed demanded, re-sent as history) +
	// f006 demanded = 4 newly observed accesses.
	if after-before != 4 {
		t.Errorf("server observed %d accesses after recovery, want 4 (history retained)", after-before)
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
