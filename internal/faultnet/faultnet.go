// Package faultnet injects deterministic, seedable network faults into
// net.Conn and net.Listener values. It is the test substrate for the
// robustness features of internal/fsnet: the chaos suite wraps both sides
// of a client/server pair and drives real workloads through latency
// spikes, partial writes, injected I/O errors, mid-frame connection
// resets, and read blackholes.
//
// Determinism: every wrapped connection owns a PRNG derived from the
// configured Seed (and, for listener- or dialer-produced connections, the
// connection's accept/dial ordinal). Given the same seed and the same
// sequence of Read/Write calls on a connection, the same faults fire at
// the same points. Concurrency across connections does not perturb any
// single connection's schedule.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the base error for every fault this package injects.
// Wrapped errors satisfy errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultnet: injected fault")

// Faults configures which faults fire and how often. All probabilities
// are per Read/Write call in [0,1]; zero disables that fault class. At
// most one error-class fault (partial write, read/write error, reset,
// blackhole) fires per call; latency is independent and may combine with
// any of them.
type Faults struct {
	// Seed drives the deterministic fault schedule. Connections accepted
	// by a Listener or produced by a Dialer fold their ordinal into the
	// seed so each connection gets an independent but reproducible
	// schedule.
	Seed int64

	// Gate, when non-nil, attaches a deterministic on/off kill switch to
	// the connection: while the gate is down every Read and Write fails
	// immediately (no randomness involved). See the Gate type.
	Gate *Gate

	// LatencyProb is the chance an operation sleeps for Latency before
	// touching the wire.
	LatencyProb float64
	// Latency is the injected delay (default 1ms when LatencyProb > 0).
	Latency time.Duration

	// PartialWriteProb is the chance a Write transmits only a prefix of
	// the buffer and then fails, leaving the peer with a truncated frame.
	PartialWriteProb float64
	// ReadErrProb is the chance a Read fails outright without consuming
	// anything from the wire.
	ReadErrProb float64
	// WriteErrProb is the chance a Write fails outright without
	// transmitting anything.
	WriteErrProb float64
	// ResetProb is the chance an operation hard-closes the underlying
	// connection mid-call, the way a TCP RST tears a stream down.
	ResetProb float64
	// BlackholeProb is the chance a Read blocks silently — no data, no
	// error — until the read deadline expires or the connection is
	// closed. Pair with deadlines: a blackholed read with no deadline
	// blocks until Close.
	BlackholeProb float64
}

// Stats counts the faults a connection (or every connection of a shared
// Listener/Dialer) has injected. All counters are atomic.
type Stats struct {
	Latencies     atomic.Uint64
	PartialWrites atomic.Uint64
	ReadErrs      atomic.Uint64
	WriteErrs     atomic.Uint64
	Resets        atomic.Uint64
	Blackholes    atomic.Uint64
	Gated         atomic.Uint64
}

// Total returns the number of injected faults of every class, latency
// included.
func (s *Stats) Total() uint64 {
	return s.Latencies.Load() + s.PartialWrites.Load() + s.ReadErrs.Load() +
		s.WriteErrs.Load() + s.Resets.Load() + s.Blackholes.Load() + s.Gated.Load()
}

// Gate is a deterministic on/off fault shared by any number of
// connections and dialers: while down, every Read and Write on a gated
// connection fails immediately with ErrInjected and gated dials are
// refused. Unlike the probabilistic fault classes it consumes no random
// draws, so flipping a gate never perturbs another fault's schedule. It
// models a peer dropping off the network at an exact, test-controlled
// instant — the primitive the cluster failover suite kills peers with.
//
// A gate can also park traffic instead of failing it: between Hold and
// Resume every Write on a gated connection blocks, then proceeds untouched
// — a receiver that stopped draining at an exact instant, which is how a
// test keeps a reply in its writer's hands while it pulls the reply's
// source out from under it. As against a real stalled receiver, a parked
// Write gives up at the connection's write deadline.
type Gate struct {
	down atomic.Bool

	mu      sync.Mutex
	held    chan struct{} // non-nil between Hold and Resume, which closes it
	waiting atomic.Int32
}

// SetDown opens (true) or heals (false) the gate.
func (g *Gate) SetDown(down bool) { g.down.Store(down) }

// Down reports whether the gate is currently failing operations.
func (g *Gate) Down() bool { return g.down.Load() }

// Hold parks every Write on a gated connection until Resume.
func (g *Gate) Hold() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.held == nil {
		g.held = make(chan struct{})
	}
}

// Resume lets the writes parked since Hold proceed.
func (g *Gate) Resume() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.held != nil {
		close(g.held)
		g.held = nil
	}
}

// Waiting reports how many writes are parked right now.
func (g *Gate) Waiting() int { return int(g.waiting.Load()) }

// park blocks while the gate is held, until closed is, or until deadline
// (zero: none) passes, which it reports as os.ErrDeadlineExceeded.
func (g *Gate) park(closed <-chan struct{}, deadline time.Time) error {
	g.mu.Lock()
	held := g.held
	g.mu.Unlock()
	if held == nil {
		return nil
	}
	g.waiting.Add(1)
	defer g.waiting.Add(-1)
	var expire <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-held:
	case <-closed:
	case <-expire:
		return os.ErrDeadlineExceeded
	}
	return nil
}

// gated reports whether the gate fault fires for this connection.
func (c *Conn) gated() bool {
	return c.f.Gate != nil && c.f.Gate.Down()
}

// GatedDialer returns a dial function producing connections to addr that
// all share gate: while the gate is down the dial itself is refused, and
// connections established earlier fail their next Read or Write. The
// shared Stats counts refused dials and failed operations as Gated.
func GatedDialer(addr string, gate *Gate) (func() (net.Conn, error), *Stats) {
	stats := &Stats{}
	return func() (net.Conn, error) {
		if gate.Down() {
			stats.Gated.Add(1)
			return nil, fmt.Errorf("%w: gate down: dial %s", ErrInjected, addr)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return Wrap(conn, Faults{Gate: gate}, stats), nil
	}, stats
}

// Conn wraps a net.Conn with fault injection. Methods not listed here
// forward to the underlying connection.
type Conn struct {
	inner net.Conn
	f     Faults
	stats *Stats

	mu            sync.Mutex // guards rng, the deadlines and readMoved
	rng           *rand.Rand
	readDeadline  time.Time
	writeDeadline time.Time
	// readMoved is closed, and replaced, whenever the read deadline is
	// set, so a blackholed Read honours a deadline set while it blocks, as
	// a net.Conn's Read does.
	readMoved chan struct{}

	closed    chan struct{}
	closeOnce sync.Once
}

// Wrap returns a fault-injecting view of conn. The caller keeps ownership
// of stats, which may be shared across connections; pass nil to have the
// Conn allocate its own (retrievable via Stats).
func Wrap(conn net.Conn, f Faults, stats *Stats) *Conn {
	if stats == nil {
		stats = &Stats{}
	}
	if f.Latency == 0 && f.LatencyProb > 0 {
		f.Latency = time.Millisecond
	}
	return &Conn{
		inner:     conn,
		f:         f,
		stats:     stats,
		rng:       rand.New(rand.NewSource(f.Seed)),
		readMoved: make(chan struct{}),
		closed:    make(chan struct{}),
	}
}

// Stats returns the fault counters this connection reports into.
func (c *Conn) Stats() *Stats { return c.stats }

// roll draws one uniform variate; a single draw per fault check keeps the
// schedule deterministic for a fixed call sequence.
func (c *Conn) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	c.mu.Lock()
	v := c.rng.Float64()
	c.mu.Unlock()
	return v < p
}

func (c *Conn) maybeLatency() {
	if c.roll(c.f.LatencyProb) {
		c.stats.Latencies.Add(1)
		select {
		case <-time.After(c.f.Latency):
		case <-c.closed:
		}
	}
}

// reset hard-closes the underlying connection, approximating a RST.
func (c *Conn) reset(op string) error {
	c.stats.Resets.Add(1)
	c.closeOnce.Do(func() { close(c.closed) })
	_ = c.inner.Close()
	return fmt.Errorf("%w: connection reset during %s", ErrInjected, op)
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if c.gated() {
		c.stats.Gated.Add(1)
		return 0, fmt.Errorf("%w: gate down: read", ErrInjected)
	}
	c.maybeLatency()
	switch {
	case c.roll(c.f.ReadErrProb):
		c.stats.ReadErrs.Add(1)
		return 0, fmt.Errorf("%w: read error", ErrInjected)
	case c.roll(c.f.ResetProb):
		return 0, c.reset("read")
	case c.roll(c.f.BlackholeProb):
		c.stats.Blackholes.Add(1)
		return 0, c.blackhole()
	}
	return c.inner.Read(p)
}

// blackhole blocks until the read deadline passes or the connection
// closes, then reports the corresponding error — the wire went silent.
func (c *Conn) blackhole() error {
	c.mu.Lock()
	d, moved := c.readDeadline, c.readMoved
	c.mu.Unlock()
	var expire <-chan time.Time
	if !d.IsZero() {
		t := time.NewTimer(time.Until(d))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-expire:
		return os.ErrDeadlineExceeded
	case <-c.closed:
		return net.ErrClosed
	case <-moved:
		return c.blackhole() // under the new deadline
	}
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	if c.f.Gate != nil {
		c.mu.Lock()
		d := c.writeDeadline
		c.mu.Unlock()
		if err := c.f.Gate.park(c.closed, d); err != nil {
			return 0, err
		}
	}
	if c.gated() {
		c.stats.Gated.Add(1)
		return 0, fmt.Errorf("%w: gate down: write", ErrInjected)
	}
	c.maybeLatency()
	switch {
	case c.roll(c.f.WriteErrProb):
		c.stats.WriteErrs.Add(1)
		return 0, fmt.Errorf("%w: write error", ErrInjected)
	case c.roll(c.f.ResetProb):
		return 0, c.reset("write")
	case len(p) > 1 && c.roll(c.f.PartialWriteProb):
		c.stats.PartialWrites.Add(1)
		c.mu.Lock()
		n := 1 + c.rng.Intn(len(p)-1)
		c.mu.Unlock()
		wrote, err := c.inner.Write(p[:n])
		if err != nil {
			return wrote, err
		}
		return wrote, fmt.Errorf("%w: partial write (%d of %d bytes)", ErrInjected, wrote, len(p))
	}
	return c.inner.Write(p)
}

// Close implements net.Conn.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.inner.Close()
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.inner.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.inner.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.moveRead()
	c.mu.Unlock()
	return c.inner.SetDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.moveRead()
	c.mu.Unlock()
	return c.inner.SetReadDeadline(t)
}

// moveRead wakes a blackholed Read to take up the new read deadline.
// Called with mu held.
func (c *Conn) moveRead() {
	close(c.readMoved)
	c.readMoved = make(chan struct{})
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return c.inner.SetWriteDeadline(t)
}

// Listener wraps a net.Listener so every accepted connection carries
// fault injection. Accepted connections share one Stats and derive their
// seeds from the configured Seed plus their accept ordinal.
type Listener struct {
	net.Listener
	f     Faults
	stats *Stats
	n     atomic.Uint64
}

// WrapListener returns a fault-injecting view of l.
func WrapListener(l net.Listener, f Faults) *Listener {
	return &Listener{Listener: l, f: f, stats: &Stats{}}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	f := l.f
	f.Seed = deriveSeed(l.f.Seed, l.n.Add(1))
	return Wrap(conn, f, l.stats), nil
}

// Stats returns the counters shared by every accepted connection.
func (l *Listener) Stats() *Stats { return l.stats }

// Dialer returns a dial function producing fault-injecting connections to
// addr, suitable for fsnet's ClientConfig.Dialer. Connections share the
// returned Stats and derive their seeds from their dial ordinal.
func Dialer(addr string, f Faults) (func() (net.Conn, error), *Stats) {
	stats := &Stats{}
	var n atomic.Uint64
	return func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		df := f
		df.Seed = deriveSeed(f.Seed, n.Add(1))
		return Wrap(conn, df, stats), nil
	}, stats
}

// deriveSeed mixes a per-connection ordinal into the base seed
// (splitmix64 finalizer) so each connection's schedule is independent yet
// reproducible.
func deriveSeed(base int64, ordinal uint64) int64 {
	z := uint64(base) + ordinal*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
