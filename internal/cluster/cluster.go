// Package cluster shards the aggregating cache across a set of fsnet
// servers. Each node owns the paths that consistent-hash to it
// (internal/ring) and learns their relationships from the opens it
// serves. Clients hold the same ring — fsnet.Dial pulls the member list
// from its seed — and send each miss straight to its path's owner, with
// the client's whole piggybacked history, so an open costs one round trip
// to the server that learned its stream, as in the paper (§3, Fig 2). A
// node never forwards: an open that reaches a non-owner (a client with a
// stale view, or one whose owner is down) is served from the node's own
// replica of the store, which is always correct, so a dead peer degrades
// grouping, never availability.
//
// A Node plugs into an fsnet.Server as its membership view (ServerConfig
// .Views): replies piggyback its epoch, so clients learn of membership
// changes, and its view is what clients pull. Nodes learn views from each
// other only by exchanging them (internal/gossip, a drain's goodbye).
// Membership is dynamic: the ring and peer set live in an immutable,
// epoch-numbered view swapped atomically by Update (see membership.go),
// so nodes join and leave a running cluster without a restart. Graceful
// departure is Drain (drain.go), a view change: the leaving node turns
// unready and pushes the view without itself to its peers.
//
// The node's peer clients carry only the cluster's own traffic — gossip's
// view exchanges, a drain's goodbye, and the stage hints that hand each
// peer the files its server's deep builds predicted that peer owns
// (hints.go). Peer health is a consecutive-failure
// circuit breaker fed only by transport errors (fsnet.ErrConnBroken). A
// tripped breaker short-circuits exchanges with the peer for downDuration,
// then admits exactly one probe; the probe's outcome either heals the
// peer or re-arms the cooldown.
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
	"aggcache/internal/ring"
)

// Peer health.
const (
	// failureThreshold is how many consecutive transport failures mark a
	// peer down.
	failureThreshold = 3
	// downDuration is how long a tripped peer stays down before one
	// probe is admitted.
	downDuration = 2 * time.Second
	// peerTimeout bounds each exchange with a peer.
	peerTimeout = 2 * time.Second
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

	// MirrorCapacity is ignored: the node keeps no copy of a peer's
	// groups. It stays settable for callers that still name it.
	MirrorCapacity int

	// Dialer opens a connection to a peer address; nil selects TCP,
	// bounded by peerTimeout like the rest of the exchange. Tests use it
	// to interpose faultnet gates and latency.
	Dialer func(addr string) (net.Conn, error)
	// Now is the clock for breaker cooldowns; nil selects time.Now.
	// Tests substitute a fake clock.
	Now func() time.Time
	// Obs, when set, registers the node's open counter, a per-peer
	// breaker-state gauge (0 closed, 1 open, 2 half-open), per-peer
	// failure/trip gauges and membership/drain counters with the given
	// registry, and records breaker and membership transitions to its event
	// log. NodeStats works either way, fed from the same counters.
	Obs *obs.Registry
}

func (cfg Config) withDefaults() Config {
	if cfg.Dialer == nil {
		cfg.Dialer = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, peerTimeout) }
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg
}

// Node is one member of the peer tier. It implements fsnet.ViewSource;
// wire it into the co-located server via ServerConfig.Views. All methods
// are safe for concurrent use.
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

	// localOpens counts opens offered through RouteOpen (obs.Counter wraps
	// one atomic). With cfg.Obs it is the series /metrics exposes, so
	// NodeStats cannot drift.
	localOpens *obs.Counter

	// Membership accounting.
	updates      *obs.Counter
	staleUpdates *obs.Counter

	// Stage hints (hints.go): paths sent to their owners, and shed.
	hintsSent *obs.Counter
	hintsShed *obs.Counter

	events *obs.EventLog
}

var _ fsnet.OpenRouter = (*Node)(nil)

// NewNode validates cfg and installs the epoch-1 view: the ring over
// cfg.Peers plus one lazy-dialing fsnet client per remote peer. No
// connection is opened until the first exchange, so nodes of a cluster
// can start in any order.
func NewNode(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Self must be set")
	}
	r := ring.Of(cfg.Peers...)
	if !r.Has(cfg.Self) {
		return nil, fmt.Errorf("cluster: Self %q not in Peers %v", cfg.Self, cfg.Peers)
	}
	n := &Node{cfg: cfg, self: cfg.Self}
	n.wireMetrics(cfg.Obs)
	v := &view{epoch: 1, ring: r, peers: make(map[string]*peer), hash: viewHash(r.Members())}
	for _, addr := range r.Members() {
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
		Timeout: peerTimeout,
		// Fail fast: retries would only delay the breaker's verdict.
		MaxRetries: 0,
	})
	if err != nil {
		return nil, err
	}
	p := &peer{
		addr:   addr,
		client: client,
		now:    n.cfg.Now,
	}
	p.wireMetrics(n.cfg.Obs)
	return p, nil
}

// wireMetrics initializes the counters — standalone atomics with no
// registry, registered series otherwise — plus the pull-style
// membership-epoch and drain gauges.
func (n *Node) wireMetrics(reg *obs.Registry) {
	n.localOpens = reg.LiveCounter("cluster_local_opens_total", "opens offered to the node's router, all served by the local server")
	n.updates = reg.LiveCounter("cluster_membership_updates_total", "membership views installed by Update")
	n.staleUpdates = reg.LiveCounter("cluster_membership_stale_total", "membership updates rejected for a stale epoch")
	n.events = reg.Events()
	n.wireHintMetrics(reg)
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

// RouteOpen implements fsnet.OpenRouter by declining every open: clients
// send each miss to its owner, and a node serves whatever reaches it from
// its own store. It stays only for callers that still wire a node in as a
// plain router.
func (n *Node) RouteOpen(path string, accessed []string) ([]fsnet.GroupFile, bool, error) {
	n.localOpens.Add(1)
	return nil, false, nil
}

// Close shuts down every peer client of the current view.
func (n *Node) Close() error {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	if n.closed {
		return nil
	}
	n.closed = true
	var first error
	for _, p := range n.view.Load().peers {
		if err := p.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PeerStatus is one remote peer's health snapshot.
type PeerStatus struct {
	Addr string
	// Up reports whether exchanges are currently admitted (a peer in
	// cooldown reports false; one admitting its probe reports true).
	Up bool
	// Failures is the consecutive transport-failure count (resets on
	// any successful round trip).
	Failures uint64
	// Trips counts how many times the breaker opened.
	Trips uint64
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
	// LocalOpens counts opens offered to the node's router: all of them
	// are served by the local server.
	LocalOpens uint64
	// PeerHintsSent counts the stage-hint paths the node's peers
	// acknowledged; PeerHintsShed the ones dropped unsent.
	PeerHintsSent uint64
	PeerHintsShed uint64
	// ForwardedOpens, MirrorHits, CoalescedForwards and DegradedOpens are
	// always 0: a node neither forwards an open nor keeps a copy of a
	// peer's groups. They stay for readers that still name them.
	ForwardedOpens    uint64
	MirrorHits        uint64
	CoalescedForwards uint64
	DegradedOpens     uint64
	Peers             []PeerStatus
}

// Stats returns a point-in-time snapshot against the current view.
func (n *Node) Stats() NodeStats {
	v := n.view.Load()
	st := NodeStats{
		Self:       n.self,
		Members:    v.ring.Len(),
		Epoch:      v.epoch,
		Draining:   n.draining.Load(),
		LocalOpens: n.localOpens.Load(),

		PeerHintsSent: n.hintsSent.Load(),
		PeerHintsShed: n.hintsShed.Load(),
	}
	for _, p := range v.peers {
		st.Peers = append(st.Peers, PeerStatus{
			Addr:     p.addr,
			Up:       p.up(),
			Failures: p.fails.Load(),
			Trips:    p.trips.Load(),
		})
	}
	sort.Slice(st.Peers, func(i, j int) bool { return st.Peers[i].Addr < st.Peers[j].Addr })
	return st
}

// peer couples a lazy fsnet client with a consecutive-failure circuit
// breaker. Only transport failures (ErrConnBroken) feed the breaker:
// typed server errors prove the peer is alive.
type peer struct {
	addr   string
	client *fsnet.Client
	now    func() time.Time
	hints  peerHints

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

// close closes the peer's client and stops its hint sender.
func (p *peer) close() error {
	err := p.client.Close()
	p.hints.stop()
	return err
}

// Breaker gauge values exported as cluster_peer_state.
const (
	breakerClosed   = 0
	breakerOpen     = 1
	breakerHalfOpen = 2
)

// wireMetrics registers the peer's breaker-state gauge plus pull-style
// failure and trip gauges, labelled by peer address. Registration is
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
}

// admit reports whether an exchange may proceed. While the cooldown runs
// every exchange is refused; once it lapses exactly one caller wins the
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

// noteOutcome resolves the breaker verdict an admit() demands: a
// transport failure feeds the breaker, while anything else — success or
// a typed server error — proves the peer alive. Leaving an admitted
// probe unresolved would wedge the breaker half-open and refuse every
// later exchange, so every exchange that admit let through — a view pull
// or push, a drain's goodbye included — ends here.
func (p *peer) noteOutcome(err error) {
	if errors.Is(err, fsnet.ErrConnBroken) {
		p.noteFailure()
		return
	}
	p.noteSuccess()
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
	if fails < failureThreshold {
		return
	}
	prev := p.downUntil.Swap(p.now().Add(downDuration).UnixNano())
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
