// Package gossip converges cluster membership fleet-wide from a single
// operator action by anti-entropy over the view verbs the cluster tier
// exposes: a background loop wakes every Interval, picks one random live
// peer, and exchanges views with it — pull first, then push back if the
// peer turned out to be older. It needs no traffic, only that the pair
// can talk, so it carries idle fleets and heals partitions alike, and
// random peer choice gives the standard epidemic O(log n) spread without
// tracking who knows what. These rounds, and a draining node's goodbye
// push (cluster.Node.Drain), are the only ways a view moves between
// nodes: no request or reply between nodes announces an epoch.
//
// Epoch rules are the cluster tier's (Update): higher epoch wins,
// stale views are refused, ties never install. The gossiper adds no
// ordering of its own, so a view observed anywhere is either installed
// or provably older than what the receiver already holds.
package gossip

import (
	"math/rand"
	"strconv"
	"sync"
	"time"

	"aggcache/internal/obs"
	"aggcache/internal/obs/otrace"
)

// View is the slice of *cluster.Node the gossiper drives. It stays an
// interface so gossip imports neither cluster nor fsnet, and tests can
// substitute a scripted view.
type View interface {
	// Self is this node's own advertised address.
	Self() string
	// Epoch is the installed view's epoch.
	Epoch() uint64
	// ViewSnapshot returns the installed epoch and member list together.
	ViewSnapshot() (epoch uint64, members []string)
	// ViewPullFrom fetches addr's view and installs it if newer,
	// reporting whether it installed and addr's epoch.
	ViewPullFrom(addr string) (applied bool, remoteEpoch uint64, err error)
	// ViewPushTo offers a view to addr, returning the epoch addr holds
	// afterwards.
	ViewPushTo(addr string, epoch uint64, members []string) (remoteEpoch uint64, err error)
}

// Config configures one node's gossiper.
type Config struct {
	// Node is the membership view to disseminate. Required.
	Node View
	// Interval is the anti-entropy period. Zero or negative disables
	// the background loop; Tick can still be driven by hand.
	Interval time.Duration
	// Ticker builds the loop's trigger channel; nil selects a
	// time.Ticker. Tests inject a hand-fired channel so rounds run on
	// demand with no wall-clock sleeps.
	Ticker func(d time.Duration) (ch <-chan time.Time, stop func())
	// Seed seeds peer selection; 0 draws from the wall clock. Tests fix
	// it so every round's peer choice is reproducible.
	Seed int64
	// Obs, when set, registers the gossip counters with the given
	// registry.
	Obs *obs.Registry
	// Trace, when set, makes each anti-entropy round a trace root (its
	// per-peer exchanges child spans), head-sampled at the tracer's own
	// rate like any other entry point.
	Trace *otrace.Tracer
}

// Gossiper runs anti-entropy for one node. Start it after the node is
// serving and Stop it before the node closes. All methods are safe for
// concurrent use.
type Gossiper struct {
	node     View
	interval time.Duration
	ticker   func(d time.Duration) (<-chan time.Time, func())
	trace    *otrace.Tracer

	rndMu sync.Mutex
	rnd   *rand.Rand

	mu      sync.Mutex
	stopped bool
	stop    chan struct{}
	wg      sync.WaitGroup

	rounds   *obs.Counter
	pulls    *obs.Counter
	pushes   *obs.Counter
	applied  *obs.Counter
	failures *obs.Counter
	events   *obs.EventLog
}

// New builds a gossiper. The anti-entropy loop does not run until Start.
func New(cfg Config) *Gossiper {
	if cfg.Node == nil {
		panic("gossip: Config.Node is required")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	tick := cfg.Ticker
	if tick == nil {
		tick = func(d time.Duration) (<-chan time.Time, func()) {
			t := time.NewTicker(d)
			return t.C, t.Stop
		}
	}
	g := &Gossiper{
		node:     cfg.Node,
		interval: cfg.Interval,
		ticker:   tick,
		trace:    cfg.Trace,
		rnd:      rand.New(rand.NewSource(seed)),
		stop:     make(chan struct{}),
	}
	g.wireMetrics(cfg.Obs)
	return g
}

func (g *Gossiper) wireMetrics(reg *obs.Registry) {
	g.rounds = reg.LiveCounter("gossip_rounds_total", "anti-entropy rounds run")
	g.pulls = reg.LiveCounter("gossip_pulls_total", "view pull exchanges completed")
	g.pushes = reg.LiveCounter("gossip_pushes_total", "views pushed to peers that were older")
	g.applied = reg.LiveCounter("gossip_views_applied_total", "remote views installed via gossip")
	g.failures = reg.LiveCounter("gossip_failures_total", "view exchanges that failed (transport or refused)")
	g.events = reg.Events()
}

// Start launches the anti-entropy loop. With a zero interval there is
// no loop, so Start is a no-op.
func (g *Gossiper) Start() {
	if g.interval <= 0 {
		return
	}
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.wg.Add(1)
	g.mu.Unlock()
	go g.loop()
}

func (g *Gossiper) loop() {
	defer g.wg.Done()
	ch, stop := g.ticker(g.interval)
	defer stop()
	for {
		select {
		case <-g.stop:
			return
		case <-ch:
			g.Tick()
		}
	}
}

// Stop halts the loop and waits for its round in flight. Idempotent.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	close(g.stop)
	g.mu.Unlock()
	g.wg.Wait()
}

// Tick runs one synchronous anti-entropy round: choose one random peer
// from the installed view, pull its view (installing it if newer), and
// push ours back if the peer turned out to be older. Exported so tests —
// and operators' debug hooks — can drive rounds deterministically.
func (g *Gossiper) Tick() {
	g.rounds.Add(1)
	epoch, members := g.node.ViewSnapshot()
	self := g.node.Self()
	peers := members[:0:0]
	for _, m := range members {
		if m != self {
			peers = append(peers, m)
		}
	}
	if len(peers) == 0 {
		return
	}
	tctx := g.trace.Root()
	var tstart time.Time
	if tctx.Sampled {
		tstart = time.Now()
	}
	g.exchange(peers[g.intn(len(peers))], epoch, members, tctx)
	if tctx.Sampled {
		g.trace.Record(tctx, "gossip_round", "", tstart, time.Since(tstart))
	}
}

// exchange reconciles with one peer: pull, then push back if the peer
// reported an older epoch.
func (g *Gossiper) exchange(addr string, epoch uint64, members []string, tctx otrace.Ctx) {
	ectx := g.trace.Child(tctx)
	var estart time.Time
	if ectx.Sampled {
		estart = time.Now()
		defer func() {
			g.trace.Record(ectx, "gossip_exchange", addr, estart, time.Since(estart))
		}()
	}
	applied, remote, err := g.node.ViewPullFrom(addr)
	if err != nil {
		g.failures.Add(1)
		return
	}
	g.pulls.Add(1)
	if applied {
		g.applied.Add(1)
		g.events.Record("gossip_apply",
			obs.F("from", addr),
			obs.F("epoch", strconv.FormatUint(g.node.Epoch(), 10)))
	}
	if remote < epoch {
		if _, err := g.node.ViewPushTo(addr, epoch, members); err != nil {
			g.failures.Add(1)
			return
		}
		g.pushes.Add(1)
	}
}

func (g *Gossiper) intn(n int) int {
	g.rndMu.Lock()
	defer g.rndMu.Unlock()
	return g.rnd.Intn(n)
}
