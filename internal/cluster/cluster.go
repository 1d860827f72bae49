// Package cluster shards the aggregating cache across a set of fsnet
// servers. Each node owns the paths that consistent-hash to it (see
// Ring) and serves them from its own aggregating server; opens that
// land on a non-owner are forwarded to the owner over the pipelined
// fsnet client, and the owner's whole group reply comes back in that one
// hop. Placement is therefore group-affine without any extra machinery:
// a group's anchor path and its learned successors hash together only in
// the owner's metadata, and the single FetchGroup round trip moves the
// entire group to the requesting node, which mirrors it (see mirror) so
// follow-on member opens are local. The peer clients are transport only,
// and a forwarded group is never copied: the frames read from the owner
// are one reference-counted fsnet.Group that the mirror keeps and every
// reply served from it writes to its socket (DESIGN.md §11 has the
// ownership rules).
//
// A Node plugs into an fsnet.Server as its OpenRouter: the server
// consults RouteOpen before its own cache and store, and everything the
// node declines — paths it owns, and paths whose owner is down — falls
// through to the local aggregating serving path. With replicated backing
// stores that fallback is always correct, so a dead peer degrades
// throughput, never availability: no open errors because a peer died.
//
// Membership is dynamic: the ring and peer set live in an immutable,
// epoch-numbered view swapped atomically by Update (see membership.go),
// so nodes join and leave a running cluster without a restart. Graceful
// departure is Drain (drain.go): the leaving node streams each owned
// group's learned state to its new owner. While a peer is down past its
// breaker, the history its opens owe it waits on the peer client's
// piggyback backlog and rides, in order, the probe that heals the peer.
//
// Peer health is a consecutive-failure circuit breaker fed only by
// transport errors (fsnet.ErrConnBroken). A tripped breaker short-
// circuits forwarding for DownDuration, then admits exactly one probe;
// the probe's outcome either heals the peer or re-arms the cooldown.
package cluster

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
	"aggcache/internal/obs/otrace"
	"aggcache/internal/singleflight"
)

// Health and forwarding defaults.
const (
	defaultFailureThreshold = 3
	defaultDownDuration     = 2 * time.Second
	defaultPeerTimeout      = 2 * time.Second
)

// Config describes one node's view of the cluster. Peers is only the
// initial membership (epoch 1): every node must start from the same
// Peers set (order irrelevant — ring ownership is build-order
// independent), which is what lets each node compute identical placement
// with no coordination, and later views are installed with Update using
// the same agreed list on every node.
type Config struct {
	// Self is this node's own entry in Peers (its advertised address).
	Self string
	// Peers lists every member's address, Self included.
	Peers []string
	// Replicas is the consistent-hash virtual-node count per member
	// (0 selects the ring default).
	Replicas int

	// FailureThreshold is how many consecutive transport failures mark
	// a peer down (default 3; negative is rejected).
	FailureThreshold int
	// DownDuration is how long a tripped peer stays down before one
	// probe is admitted (default 2s).
	DownDuration time.Duration
	// PeerTimeout bounds each forwarded round trip (default 2s). A
	// forward must never hang longer than a degraded local fetch would.
	PeerTimeout time.Duration

	// MirrorCapacity bounds the hot-group mirror in whole groups
	// (0 selects the default of 128, negative disables the mirror).
	MirrorCapacity int
	// MirrorTTL ages mirrored groups so owner-side learning propagates
	// (0 selects the default of 5s, negative never expires).
	MirrorTTL time.Duration

	// Dialer opens a connection to a peer address; nil selects TCP.
	// Tests use it to interpose faultnet gates and latency.
	Dialer func(addr string) (net.Conn, error)
	// Now is the clock for mirror TTLs and breaker cooldowns; nil
	// selects time.Now. Tests substitute a fake clock.
	Now func() time.Time
	// Obs, when set, registers the node's routing counters, a per-peer
	// breaker-state gauge (0 closed, 1 open, 2 half-open), per-peer
	// failure/trip/backlog gauges, membership/drain counters, and a mirror-
	// residency gauge with the given registry, and records breaker and
	// membership transitions to its event log. NodeStats works either
	// way, fed from the same counters.
	Obs *obs.Registry
	// Trace, when set, records routing spans — mirror hits, coalesced
	// waits, forwarded RPCs — as children of the request's
	// inbound trace context, and propagates the context to the owning
	// peer on forwarded opens (fsnet msgTraceCtx). Nil keeps routing
	// span-free; untraced requests cost nothing either way.
	Trace *otrace.Tracer
}

func (cfg Config) withDefaults() Config {
	if cfg.FailureThreshold == 0 {
		cfg.FailureThreshold = defaultFailureThreshold
	}
	if cfg.DownDuration == 0 {
		cfg.DownDuration = defaultDownDuration
	}
	if cfg.PeerTimeout == 0 {
		cfg.PeerTimeout = defaultPeerTimeout
	}
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// Node is one member of the peer tier. It implements fsnet.OpenRouter;
// wire it into the co-located server via ServerConfig.Router. All
// methods are safe for concurrent use.
type Node struct {
	cfg  Config
	self string

	// view is the current membership (see membership.go). Readers load
	// the pointer once and work against that immutable view to
	// completion; mutators (Update, Drain, Close) serialize on viewMu.
	viewMu sync.Mutex
	view   atomic.Pointer[view]
	closed bool

	draining atomic.Bool

	// viewHint is the registered gossip hint callback (see OnViewHint in
	// gossipview.go); nil until a gossiper subscribes.
	viewHint atomic.Pointer[func(addr string, epoch uint64)]

	mirMu  sync.Mutex
	mirror *mirror

	flights singleflight.Group[forward]

	// Routing counters (obs.Counter wraps one atomic each). With cfg.Obs
	// these are the series /metrics exposes, so NodeStats cannot drift.
	localOpens     *obs.Counter
	forwardedOpens *obs.Counter
	mirrorHits     *obs.Counter
	coalesced      *obs.Counter
	degradedOpens  *obs.Counter
	notFound       *obs.Counter

	// Membership and drain accounting.
	updates      *obs.Counter
	staleUpdates *obs.Counter
	drainSent    *obs.Counter
	drainFailed  *obs.Counter

	events *obs.EventLog
}

// forward is one owner fetch's outcome, shared across coalesced opens:
// the leader owns the reference the fetch returned, and shareForward takes
// one more for each follower before it wakes.
type forward struct {
	group *fsnet.Group
	err   error
}

func shareForward(f forward) {
	if f.group != nil {
		f.group.Retain()
	}
}

var _ fsnet.InlineRouter = (*Node)(nil)

// NewNode validates cfg and installs the epoch-1 view: the ring over
// cfg.Peers plus one lazy-dialing fsnet client per remote peer. No
// connection is opened until the first forward, so nodes of a cluster
// can start in any order.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self must be set")
	}
	if cfg.FailureThreshold < 0 {
		return nil, fmt.Errorf("cluster: negative FailureThreshold %d", cfg.FailureThreshold)
	}
	ring := NewRing(cfg.Replicas)
	ring.Add(cfg.Peers...)
	if !ring.Has(cfg.Self) {
		return nil, fmt.Errorf("cluster: Self %q not in Peers %v", cfg.Self, cfg.Peers)
	}
	n := &Node{
		cfg:    cfg,
		self:   cfg.Self,
		mirror: newMirror(cfg.MirrorCapacity, cfg.MirrorTTL, cfg.Now),
	}
	n.wireMetrics(cfg.Obs)
	v := &view{epoch: 1, ring: ring, peers: make(map[string]*peer), hash: viewHash(ring.Members())}
	for _, addr := range ring.Members() {
		if addr == cfg.Self {
			continue
		}
		p, err := n.newPeer(addr)
		if err != nil {
			return nil, err
		}
		v.peers[addr] = p
	}
	n.view.Store(v)
	return n, nil
}

// newPeer builds one remote peer: a lazy fsnet client plus a fresh
// breaker, wired to the registry. Called at construction and on every
// membership update that introduces a member.
func (n *Node) newPeer(addr string) (*peer, error) {
	dial := n.cfg.Dialer
	client, err := fsnet.NewClient(nil, fsnet.ClientConfig{
		Dialer:  func() (net.Conn, error) { return dial(addr) },
		Timeout: n.cfg.PeerTimeout,
		// Fail fast: retries would only delay the breaker's verdict,
		// and the degraded local path is always available.
		MaxRetries: 0,
		// Piggyback this node's view epoch on every forward so peers
		// learn of membership changes without a dedicated exchange.
		Views: n,
	})
	if err != nil {
		return nil, err
	}
	p := &peer{
		addr:      addr,
		client:    client,
		threshold: uint64(n.cfg.FailureThreshold),
		downFor:   n.cfg.DownDuration,
		now:       n.cfg.Now,
	}
	p.wireMetrics(n.cfg.Obs)
	return p, nil
}

// wireMetrics initializes the routing counters — standalone atomics with
// no registry, registered series otherwise — plus the pull-style mirror
// residency, membership-epoch and drain gauges.
func (n *Node) wireMetrics(reg *obs.Registry) {
	n.localOpens = reg.LiveCounter("cluster_local_opens_total", "opens this node owned, declined to the local serving path")
	n.forwardedOpens = reg.LiveCounter("cluster_forwarded_opens_total", "opens answered by an owner fetch (successful peer hops)")
	n.mirrorHits = reg.LiveCounter("cluster_mirror_hits_total", "opens answered from the hot-group mirror without a peer hop")
	n.coalesced = reg.LiveCounter("cluster_coalesced_forwards_total", "opens that shared another open's in-flight owner fetch")
	n.degradedOpens = reg.LiveCounter("cluster_degraded_opens_total", "opens declined to the local path because the owner was down or the forward failed")
	n.notFound = reg.LiveCounter("cluster_not_found_total", "owner replies that the path does not exist")
	n.updates = reg.LiveCounter("cluster_membership_updates_total", "membership views installed by Update")
	n.staleUpdates = reg.LiveCounter("cluster_membership_stale_total", "membership updates rejected for a stale epoch")
	n.drainSent = reg.LiveCounter("cluster_drain_groups_sent_total", "groups handed off to their new owners by Drain")
	n.drainFailed = reg.LiveCounter("cluster_drain_groups_failed_total", "groups Drain could not deliver to their new owners")
	n.events = reg.Events()
	reg.GaugeFunc("cluster_mirror_groups", "groups currently resident in the hot-group mirror", func() float64 {
		n.mirMu.Lock()
		defer n.mirMu.Unlock()
		return float64(n.mirror.groups())
	})
	reg.GaugeFunc("cluster_mirror_retained_bytes", "frame buffer capacity pinned by the groups resident in the mirror", func() float64 {
		n.mirMu.Lock()
		defer n.mirMu.Unlock()
		return float64(n.mirror.retainedBytes())
	})
	reg.GaugeFunc("cluster_membership_epoch", "epoch of the installed membership view", func() float64 {
		return float64(n.Epoch())
	})
	reg.GaugeFunc("cluster_draining", "1 while the node is draining (readiness false)", func() float64 {
		if n.draining.Load() {
			return 1
		}
		return 0
	})
}

// Owner returns the peer address that owns path in the current view.
func (n *Node) Owner(path string) string { return n.view.Load().ring.Owner(path) }

// Self returns this node's own address.
func (n *Node) Self() string { return n.self }

// RouteOpen implements fsnet.OpenRouter. Paths this node owns — and
// paths whose owner is unreachable — are declined so the embedding
// server serves them from its own aggregating cache and store; everything
// else is answered from the mirror or by one FetchGroup hop to the owner,
// with the downstream client's piggybacked history relayed so the
// owner's successor metadata stays as complete as a direct client's.
//
// The membership view is loaded once per call: an open that raced a
// ring swap completes against the view it started with.
//
// This plain form is a thin adapter for callers that want a slice (a
// server embeds the node as an InlineRouter and never comes this way): it
// copies the files lead-first into one exact-size slab and a fresh
// []GroupFile, which the caller may keep as long as it likes, and releases
// the group route handed over, so its frames go back to the pool.
func (n *Node) RouteOpen(path string, accessed []string) ([]fsnet.GroupFile, bool, error) {
	g, lead, handled, err := n.RouteOpenTraced(path, accessed, otrace.Ctx{})
	if g == nil {
		return nil, handled, err
	}
	defer g.Release()
	size := 0
	for _, f := range g.Files {
		size += len(f.Data)
	}
	slab := make([]byte, 0, size)
	files := make([]fsnet.GroupFile, 0, len(g.Files))
	add := func(f fsnet.GroupFile) {
		start := len(slab)
		slab = append(slab, f.Data...)
		f.Data = slab[start:len(slab):len(slab)]
		files = append(files, f)
	}
	add(g.Files[lead])
	for i, f := range g.Files {
		if i != lead {
			add(f)
		}
	}
	return files, handled, err
}

// RouteOpenTraced implements fsnet.InlineRouter: RouteOpen carrying the
// request's trace context. A sampled context gets child spans for the
// routing outcome — "mirror", "coalesced_wait", or "forward_rpc" — and
// rides the forwarded FetchGroup to the owner, whose server records its
// own spans under the same trace ID; the fleet scraper stitches the two
// nodes' rings back into one tree. The caller owns one reference to a
// handled group.
func (n *Node) RouteOpenTraced(path string, accessed []string, tctx otrace.Ctx) (*fsnet.Group, int, bool, error) {
	g, lead, handled, _, err := n.route(path, accessed, tctx, true)
	return g, lead, handled, err
}

// TryRouteOpen implements fsnet.InlineRouter: the routing outcomes that
// need no peer round trip — the path is this node's own, its group is
// mirrored, or its owner's breaker is open — are served here, on the
// calling connection's read loop; anything else reports blocks=true
// untouched, and comes back through RouteOpenTraced on a worker.
func (n *Node) TryRouteOpen(path string, accessed []string, tctx otrace.Ctx) (g *fsnet.Group, lead int, handled, blocks bool) {
	g, lead, handled, blocks, _ = n.route(path, accessed, tctx, false)
	return g, lead, handled, blocks
}

// route is the one routing path behind both entry points. mayForward is
// false on a read loop, where the open stops short of the forward and of
// admit, whose probe slot belongs to a caller that goes on to forward: a
// read loop only degrades while the breaker's cooldown is running. A
// handled group comes with one reference for the caller, and lead indexes
// the demanded file in it.
func (n *Node) route(path string, accessed []string, tctx otrace.Ctx, mayForward bool) (g *fsnet.Group, lead int, handled, blocks bool, err error) {
	v := n.view.Load()
	owner := v.ring.Owner(path)
	if owner == n.self || owner == "" {
		n.localOpens.Add(1)
		return nil, 0, false, false, nil
	}
	p := v.peers[owner]

	tr := n.cfg.Trace
	var tstart time.Time
	if tctx.Sampled {
		tstart = n.cfg.Now()
	}

	// Mirror first: a mirrored group answers even while its owner is down.
	n.mirMu.Lock()
	g, lead = n.mirror.get(path)
	n.mirMu.Unlock()
	if g == nil && !mayForward && p.up() {
		return nil, 0, false, true, nil
	}

	// The relay, once per remotely owned open answered here: the downstream
	// client's history joins the owner's backlog, then the open itself —
	// appended by the FetchGroup that forwards it, noted by every outcome
	// that sends none. Nothing else holds history, so an outage reaches the
	// owner in the order it happened, in the probe that heals it.
	p.client.NoteAccess(accessed...)
	if g != nil {
		n.mirrorHits.Add(1)
		p.client.NoteAccess(path)
		if tctx.Sampled {
			tr.Record(tr.Child(tctx), "mirror", path, tstart, n.cfg.Now().Sub(tstart))
		}
		return g, lead, true, false, nil
	}
	if !mayForward || !p.admit() {
		// The owner is down: the open degrades to the local path.
		p.client.NoteAccess(path)
		n.degradedOpens.Add(1)
		return nil, 0, false, false, nil
	}

	// Coalesce concurrent forwards of the same path: one FetchGroup
	// serves every open that arrived while it was in flight, each through
	// a reference of its own. Only the leader's context travels
	// downstream; a sampled follower records just its local wait below.
	res, _, coalesced := n.flights.Do(path, func() (forward, bool) {
		fctx := tr.Child(tctx)
		var fstart time.Time
		if fctx.Sampled {
			fstart = n.cfg.Now()
		}
		g, err := p.client.FetchGroup(path, fctx)
		if fctx.Sampled {
			tr.Record(fctx, "forward_rpc", path, fstart, n.cfg.Now().Sub(fstart))
		}
		switch {
		case err == nil:
			p.noteSuccess()
			n.mirMu.Lock()
			n.mirror.put(g, p.addr)
			n.mirMu.Unlock()
		case errors.Is(err, fsnet.ErrConnBroken):
			p.noteFailure()
		case errors.Is(err, fsnet.ErrNotFound):
			// The owner answered; not-found is healthy.
			p.noteSuccess()
		}
		return forward{group: g, err: err}, true
	}, shareForward)
	if coalesced {
		// A follower sent nothing: its open rides the next forward.
		p.client.NoteAccess(path)
	}
	switch {
	case res.err == nil:
		if coalesced {
			n.coalesced.Add(1)
			if tctx.Sampled {
				tr.Record(tr.Child(tctx), "coalesced_wait", path, tstart, n.cfg.Now().Sub(tstart))
			}
		} else {
			n.forwardedOpens.Add(1)
		}
		// The owner's reply leads with the path it was asked for.
		return res.group, 0, true, false, nil
	case errors.Is(res.err, fsnet.ErrNotFound):
		// The owner is authoritative and the stores are replicas: a
		// local re-check cannot succeed, so answer not-found directly.
		n.notFound.Add(1)
		return nil, 0, true, false, res.err
	default:
		// Transport or server failure: degrade to the local store. The
		// open still succeeds, just without the owner's group metadata.
		n.degradedOpens.Add(1)
		return nil, 0, false, false, nil
	}
}

// Close shuts down every peer client of the current view. In-flight
// forwards fail over to the degraded local path like any other
// transport failure.
func (n *Node) Close() error {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	var first error
	for _, p := range n.view.Load().peers {
		if err := p.client.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PeerStatus is one remote peer's health snapshot.
type PeerStatus struct {
	Addr string
	// Up reports whether forwards are currently admitted (a peer in
	// cooldown reports false; one admitting its probe reports true).
	Up bool
	// Failures is the consecutive transport-failure count (resets on
	// any successful round trip).
	Failures uint64
	// Trips counts how many times the breaker opened.
	Trips uint64
	// Backlog counts relayed accesses waiting for the next forward to the
	// peer: while it is down, the outage so far (bounded, newest kept).
	Backlog int
}

// NodeStats is a snapshot of the node's routing activity, shaped for
// JSON export by the aggserve stats endpoint.
type NodeStats struct {
	Self    string
	Members int
	// Epoch numbers the installed membership view; Draining reports
	// whether the node has begun its graceful departure.
	Epoch    uint64
	Draining bool
	// LocalOpens counts opens this node owned (declined to the local
	// serving path); ForwardedOpens counts opens answered by an owner
	// fetch this open itself performed (coalesced followers are counted
	// under CoalescedForwards instead, so ForwardedOpens is also the
	// number of successful peer hops).
	LocalOpens     uint64
	ForwardedOpens uint64
	// MirrorHits were answered from the hot-group mirror without a peer
	// hop; MirrorGroups is its current residency and MirrorRetainedBytes
	// the frame buffer capacity those groups pin (at least their
	// contents' length: a chunk may sit in a buffer a larger frame sized).
	MirrorHits          uint64
	MirrorGroups        int
	MirrorRetainedBytes int
	// CoalescedForwards counts opens that shared another open's
	// in-flight owner fetch.
	CoalescedForwards uint64
	// DegradedOpens were declined to the local path because the owner
	// was down or the forward failed.
	DegradedOpens uint64
	// NotFound counts owner replies that the path does not exist.
	NotFound uint64
	// Drain accounting: groups handed off to their new owners, and
	// groups the drain could not deliver.
	DrainGroupsSent   uint64
	DrainGroupsFailed uint64
	Peers             []PeerStatus
}

// Stats returns a point-in-time snapshot against the current view.
func (n *Node) Stats() NodeStats {
	v := n.view.Load()
	st := NodeStats{
		Self:              n.self,
		Members:           v.ring.Len(),
		Epoch:             v.epoch,
		Draining:          n.draining.Load(),
		LocalOpens:        n.localOpens.Load(),
		ForwardedOpens:    n.forwardedOpens.Load(),
		MirrorHits:        n.mirrorHits.Load(),
		CoalescedForwards: n.coalesced.Load(),
		DegradedOpens:     n.degradedOpens.Load(),
		NotFound:          n.notFound.Load(),
		DrainGroupsSent:   n.drainSent.Load(),
		DrainGroupsFailed: n.drainFailed.Load(),
	}
	n.mirMu.Lock()
	st.MirrorGroups, st.MirrorRetainedBytes = n.mirror.groups(), n.mirror.retainedBytes()
	n.mirMu.Unlock()
	for _, p := range v.peers {
		st.Peers = append(st.Peers, PeerStatus{
			Addr:     p.addr,
			Up:       p.up(),
			Failures: p.fails.Load(),
			Trips:    p.trips.Load(),
			Backlog:  p.client.Backlog(),
		})
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Addr < st.Peers[j].Addr })
	return st
}

// peer couples a lazy fsnet client with a consecutive-failure circuit
// breaker. Only transport failures (ErrConnBroken) feed the breaker:
// typed server errors prove the peer is alive.
type peer struct {
	addr      string
	client    *fsnet.Client
	threshold uint64
	downFor   time.Duration
	now       func() time.Time

	fails     atomic.Uint64 // consecutive transport failures
	trips     atomic.Uint64
	downUntil atomic.Int64 // unixnano; 0 = up
	probe     atomic.Bool  // half-open: one probe admitted post-cooldown

	// state mirrors the breaker into a gauge (0 closed, 1 open, 2
	// half-open) and events records the transitions; both nil without a
	// registry, so the breaker itself pays nothing extra.
	state  *obs.Gauge
	events *obs.EventLog
}

// Breaker gauge values exported as cluster_peer_state.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// wireMetrics registers the peer's breaker-state gauge plus pull-style
// failure, trip and backlog gauges, labelled by peer address. Registration is
// idempotent, so a peer removed and later re-added reuses the same
// series; the GaugeFunc callbacks are replaced to read the new peer's
// (fresh) breaker state.
func (p *peer) wireMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.state = reg.Gauge("cluster_peer_state", "peer breaker state: 0 closed, 1 open, 2 half-open", obs.L("peer", p.addr))
	p.state.Set(breakerClosed)
	p.events = reg.Events()
	reg.GaugeFunc("cluster_peer_failures", "consecutive transport failures to the peer", func() float64 {
		return float64(p.fails.Load())
	}, obs.L("peer", p.addr))
	reg.GaugeFunc("cluster_peer_trips", "times the peer's breaker opened", func() float64 {
		return float64(p.trips.Load())
	}, obs.L("peer", p.addr))
	reg.GaugeFunc("cluster_peer_backlog", "relayed accesses waiting for the next forward to the peer", func() float64 {
		return float64(p.client.Backlog())
	}, obs.L("peer", p.addr))
}

// admit reports whether a forward may proceed. While the cooldown runs
// every forward is refused; once it lapses exactly one caller wins the
// probe slot and the rest stay refused until the probe's outcome lands.
func (p *peer) admit() bool {
	du := p.downUntil.Load()
	if du == 0 {
		return true
	}
	if p.now().UnixNano() < du {
		return false
	}
	if !p.probe.CompareAndSwap(false, true) {
		return false
	}
	// Exactly one caller gets here per cooldown lapse: the half-open
	// transition, observed once.
	p.state.Set(breakerHalfOpen)
	p.events.Record("breaker_half_open", obs.F("peer", p.addr))
	return true
}

// up reports the breaker state for stats (true once cooldown lapsed,
// even before a probe has confirmed recovery).
func (p *peer) up() bool {
	du := p.downUntil.Load()
	return du == 0 || p.now().UnixNano() >= du
}

// noteSuccess resets the breaker.
func (p *peer) noteSuccess() {
	p.fails.Store(0)
	// Swap detects the actual transition so concurrent successes emit
	// one breaker_close, and steady-state successes emit none.
	prev := p.downUntil.Swap(0)
	p.probe.Store(false)
	if prev != 0 {
		p.state.Set(breakerClosed)
		p.events.Record("breaker_close", obs.F("peer", p.addr))
	}
}

func (p *peer) noteFailure() {
	fails := p.fails.Add(1)
	if fails < p.threshold {
		return
	}
	prev := p.downUntil.Swap(p.now().Add(p.downFor).UnixNano())
	p.probe.Store(false)
	p.trips.Add(1)
	// Emit only on a real transition: closed→open (prev zero) or a
	// failed probe re-opening (prev lapsed). Failures landing while the
	// cooldown still runs just extend it silently.
	if prev == 0 || p.now().UnixNano() >= prev {
		p.state.Set(breakerOpen)
		p.events.Record("breaker_open",
			obs.F("peer", p.addr),
			obs.F("fails", strconv.FormatUint(fails, 10)))
	}
}
