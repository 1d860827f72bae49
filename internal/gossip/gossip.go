// Package gossip converges cluster membership fleet-wide from a single
// operator action. It layers two dissemination channels over the view
// verbs the cluster tier exposes:
//
// Piggyback: every fsnet forward and reply already
// carries the sender's view epoch as a tiny hint frame (see
// fsnet.ViewSource). The transport surfaces each hint through
// OnViewHint; the gossiper reacts to a hint newer than the installed
// view by pulling the sender's full view in the background. Hints make
// convergence ride the data path — a fleet under load converges at
// request latency, not gossip-interval latency — and pulling instead of
// pushing on a hint means a new view is fetched once per hinted peer,
// not blasted at every connection (no push storms).
//
// Anti-entropy: a background loop wakes every Interval, picks Fanout
// distinct random live peers (one by default), and exchanges views with
// each — pull first, then push back if the peer turned out to be older.
// Anti-entropy is what carries idle fleets and heals partitions: it
// needs no traffic and no hints, only that the pair can talk. Random
// peer choice gives the standard epidemic O(log n) spread without
// tracking who knows what; raising the fanout trades bandwidth for a
// proportionally shorter convergence tail.
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
	// OnViewHint registers fn to observe every view-epoch hint the
	// transport sees; nil unregisters.
	OnViewHint(fn func(addr string, epoch uint64))
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
	// the background loop — hint-triggered pulls still run, and Tick
	// can be driven by hand.
	Interval time.Duration
	// Ticker builds the loop's trigger channel; nil selects a
	// time.Ticker. Tests inject a hand-fired channel so rounds run on
	// demand with no wall-clock sleeps.
	Ticker func(d time.Duration) (ch <-chan time.Time, stop func())
	// Seed seeds peer selection; 0 draws from the wall clock. Tests fix
	// it so every round's peer choice is reproducible.
	Seed int64
	// Fanout is how many distinct random peers each anti-entropy round
	// reconciles with (0 selects 1; values above the live peer count are
	// clamped per round). Higher fanout shortens the convergence tail at
	// the cost of proportionally more exchanges.
	Fanout int
	// Obs, when set, registers the gossip counters and the view-epoch
	// gauge with the given registry.
	Obs *obs.Registry
	// Trace, when set, makes each anti-entropy round a trace root (its
	// per-peer exchanges child spans), head-sampled at the tracer's own
	// rate like any other entry point.
	Trace *otrace.Tracer
}

// Gossiper runs the two dissemination channels for one node. Start it
// after the node is serving and Stop it before the node closes. All
// methods are safe for concurrent use.
type Gossiper struct {
	node     View
	interval time.Duration
	ticker   func(d time.Duration) (<-chan time.Time, func())
	fanout   int
	trace    *otrace.Tracer

	rndMu sync.Mutex
	rnd   *rand.Rand

	mu       sync.Mutex
	stopped  bool
	inflight map[string]uint64 // hinted pulls in flight: addr -> epoch
	stop     chan struct{}
	wg       sync.WaitGroup

	rounds     *obs.Counter
	pulls      *obs.Counter
	pushes     *obs.Counter
	applied    *obs.Counter
	hintPulls  *obs.Counter
	staleHints *obs.Counter
	failures   *obs.Counter
	events     *obs.EventLog
}

// New builds a gossiper and subscribes it to the node's view hints.
// The anti-entropy loop does not run until Start.
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
	fanout := cfg.Fanout
	if fanout <= 0 {
		fanout = 1
	}
	g := &Gossiper{
		node:     cfg.Node,
		interval: cfg.Interval,
		ticker:   tick,
		fanout:   fanout,
		trace:    cfg.Trace,
		rnd:      rand.New(rand.NewSource(seed)),
		inflight: make(map[string]uint64),
		stop:     make(chan struct{}),
	}
	g.wireMetrics(cfg.Obs)
	cfg.Node.OnViewHint(g.NoteEpoch)
	return g
}

func (g *Gossiper) wireMetrics(reg *obs.Registry) {
	g.rounds = reg.LiveCounter("gossip_rounds_total", "anti-entropy rounds run")
	g.pulls = reg.LiveCounter("gossip_pulls_total", "view pull exchanges completed")
	g.pushes = reg.LiveCounter("gossip_pushes_total", "views pushed to peers that were older")
	g.applied = reg.LiveCounter("gossip_views_applied_total", "remote views installed via gossip")
	g.hintPulls = reg.LiveCounter("gossip_hint_pulls_total", "background pulls triggered by piggybacked hints")
	g.staleHints = reg.LiveCounter("gossip_stale_hints_total", "hints ignored: epoch not newer than installed")
	g.failures = reg.LiveCounter("gossip_failures_total", "view exchanges that failed (transport or refused)")
	g.events = reg.Events()
	reg.GaugeFunc("gossip_view_epoch", "epoch of the installed membership view as gossip sees it", func() float64 {
		return float64(g.node.Epoch())
	})
}

// Start launches the anti-entropy loop. A zero interval means the
// gossiper is hint-driven only, so Start is a no-op.
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

// Stop unsubscribes from hints, halts the loop, and waits for every
// in-flight background pull. Idempotent.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.stopped = true
	close(g.stop)
	g.mu.Unlock()
	g.node.OnViewHint(nil)
	g.wg.Wait()
}

// Tick runs one synchronous anti-entropy round: choose Fanout distinct
// random peers from the installed view, pull each one's view (installing
// it if newer), and push ours back to each peer that turned out to be
// older. The view snapshot is taken once per round — a pull that
// installs a newer view mid-round does not change what the remaining
// exchanges offer; the refreshed view rides the next round. Exported so
// tests — and operators' debug hooks — can drive rounds
// deterministically.
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
	k := g.fanout
	if k > len(peers) {
		k = len(peers)
	}
	tctx := g.trace.Root()
	var tstart time.Time
	if tctx.Sampled {
		tstart = time.Now()
	}
	// Partial Fisher-Yates over the local peers copy: each draw swaps the
	// chosen peer into the round's prefix, so the k selections are
	// distinct and a fanout of 1 consumes exactly one rand draw (keeping
	// the historical single-peer selection sequence for seeded tests).
	for i := 0; i < k; i++ {
		j := i + g.intn(len(peers)-i)
		peers[i], peers[j] = peers[j], peers[i]
		g.exchange(peers[i], epoch, members, tctx)
	}
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

// NoteEpoch is the hint callback (registered with OnViewHint): a peer
// advertised holding epoch. A hint at or below the installed epoch is
// noise; a newer one triggers one background pull from that peer,
// deduplicated so a burst of hints from a busy connection costs one
// exchange, not one per frame. Never blocks — safe on reader goroutines.
func (g *Gossiper) NoteEpoch(addr string, epoch uint64) {
	if addr == "" || addr == g.node.Self() || epoch <= g.node.Epoch() {
		g.staleHints.Add(1)
		return
	}
	g.mu.Lock()
	if g.stopped || g.inflight[addr] >= epoch {
		g.mu.Unlock()
		return
	}
	g.inflight[addr] = epoch
	g.wg.Add(1)
	g.mu.Unlock()
	go func() {
		defer g.wg.Done()
		defer func() {
			g.mu.Lock()
			delete(g.inflight, addr)
			g.mu.Unlock()
		}()
		g.hintPulls.Add(1)
		applied, _, err := g.node.ViewPullFrom(addr)
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
	}()
}

func (g *Gossiper) intn(n int) int {
	g.rndMu.Lock()
	defer g.rndMu.Unlock()
	return g.rnd.Intn(n)
}
