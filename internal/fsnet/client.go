package fsnet

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/obs"
	"aggcache/internal/obs/otrace"
	"aggcache/internal/ring"
	"aggcache/internal/trace"
)

// ErrConnBroken marks a connection poisoned by an I/O or protocol error.
// A frame-level failure may leave the stream desynchronized, so a broken
// connection is closed and never reused; the next request redials when a
// Dialer is configured, otherwise it fails with this error. Every
// in-flight call of a pipelined connection fails fast with this error
// when the connection is poisoned.
var ErrConnBroken = errors.New("fsnet: connection broken")

// ErrProtocolVersion reports a peer that does not speak this build's
// protocol version: it refused the hello, or answered it with another
// version. The connection is closed (the error also wraps ErrConnBroken)
// and the request is not retried — a redial would meet the same peer.
var ErrProtocolVersion = errors.New("fsnet: peer speaks another protocol version")

var errClientClosed = errors.New("fsnet: client closed")

// errDesync fails a call whose reply arrived whole but did not decode, or
// had a type its request cannot have. The server may already have applied
// the request, so the call is neither rerouted nor retried; the calls
// queued behind it were not answered and are.
var errDesync = errors.New("desynchronized reply stream")

// errMemberGone fails a call on the connection of a member that left the
// view; the open is routed again.
var errMemberGone = fmt.Errorf("%w: member left the view", ErrConnBroken)

// ErrUnreachable fails a call whose connection could not be made: its
// dial failed, or it waited behind a dial of the same member that failed
// (an open is then routed again rather than dial a second time). The
// request never reached a server. It wraps ErrConnBroken.
var ErrUnreachable = fmt.Errorf("%w: member unreachable", ErrConnBroken)

// memberTimeout bounds the dial, the handshake and every round trip of a
// connection to a ring member other than the seed when
// ClientConfig.Timeout is zero: a miss goes straight to its owner, and an
// owner that stopped answering must cost an open no more than this before
// the open goes to another member.
const memberTimeout = 2 * time.Second

// Backoff is an exponential backoff schedule with jitter, governing the
// delay before each retry of a failed round trip.
type Backoff struct {
	// Base is the delay before the first retry (default 10ms).
	Base time.Duration
	// Max caps the grown delay (default 1s).
	Max time.Duration
	// Multiplier is the per-attempt growth factor (default 2).
	Multiplier float64
	// Jitter adds a uniform random fraction of the delay in [0, Jitter)
	// to avoid synchronized retry storms. The zero-value Backoff gets
	// 0.2; an explicitly configured schedule with Jitter 0 stays
	// jitter-free (deterministic retries for tests).
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b == (Backoff{}) {
		b.Jitter = 0.2
	}
	if b.Base <= 0 {
		b.Base = 10 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = time.Second
	}
	if b.Multiplier < 1 {
		b.Multiplier = 2
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	return b
}

// delay returns the sleep before retry attempt (0-based), jittered.
func (b Backoff) delay(attempt int, rng *rand.Rand) time.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Multiplier
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 {
		d += d * b.Jitter * rng.Float64()
	}
	if d > float64(b.Max)*(1+b.Jitter) {
		d = float64(b.Max) * (1 + b.Jitter)
	}
	return time.Duration(d)
}

// ClientConfig parameterizes a client cache manager.
type ClientConfig struct {
	// CacheCapacity is the local whole-file cache size (default 128).
	CacheCapacity int
	// Timeout bounds each request round trip. Zero means no deadline on
	// the seed's connection, where a stalled server can block a request
	// indefinitely, and memberTimeout on the connections to the other
	// members of its ring. On a pipelined connection a timeout poisons
	// the whole connection (the stream position is unknown), failing
	// every in-flight call.
	Timeout time.Duration
	// Dialer re-establishes the connection to the seed — the server the
	// client was made for — after a failure. Dial installs a TCP dialer
	// for its address automatically; NewClient leaves it nil (no
	// reconnection) unless the caller provides one.
	Dialer func() (net.Conn, error)
	// DialMember opens a connection to a member of the seed's ring by its
	// advertised address; nil selects TCP, bounded like the member's round
	// trips. A dialer of the caller's own should bound its wait too. Tests
	// use it to put faults on the connections to owners.
	DialMember func(addr string) (net.Conn, error)
	// MaxRetries is how many additional attempts a failed round trip
	// gets over a fresh connection (0 = fail fast). Retries apply to
	// transport failures and server-busy rejections, never to
	// application errors like ErrNotFound. An open whose owner fails is
	// first sent once to another member, which is not a retry.
	MaxRetries int
	// Backoff shapes the delay between retries; zero values take the
	// defaults documented on the Backoff type.
	Backoff Backoff
	// Seed makes retry jitter deterministic; zero selects a fixed
	// default so behaviour is reproducible unless varied explicitly.
	Seed int64
	// Obs, when set, registers the counters ClientStats reads (hits,
	// prefetch hits, fetches, files and bytes received, writes, the
	// validation and connection counts), an in-flight gauge and the
	// round-trip and time-to-first-byte histograms with the given registry,
	// and records reconnect/conn_broken/degraded_hit events to its event
	// log. Clients given one registry share its counters, so each one's
	// Stats reports them all.
	Obs *obs.Registry
	// Trace, when set, mints a trace context at every Open entry
	// (head-sampled per the tracer's rate) and records the client span
	// into the tracer's ring.
	// Sampled contexts ride the connection as msgTraceCtx piggybacks so downstream servers join the same
	// trace; unsampled requests pay one atomic add and send
	// nothing. Nil disables tracing entirely.
	Trace *otrace.Tracer
}

// ClientStats is a snapshot of client cache activity: each field but Opens
// reads the counter ClientConfig.Obs exposes, without a lock (Client.Stats).
type ClientStats struct {
	// Opens counts Open calls that succeeded: Hits + Fetches.
	Opens uint64
	// Hits counts opens served from the local cache; Fetches counts
	// requests sent to the server (== Opens - Hits).
	Hits    uint64
	Fetches uint64
	// FilesReceived and BytesReceived count everything delivered in
	// group replies, demanded and opportunistic. A member that arrives
	// header-only — the server knew the cache held it unchanged — counts
	// as a file and adds no bytes.
	FilesReceived uint64
	BytesReceived uint64
	// ValidatedFiles counts header-only members matched against the
	// cached copy and left in place. ValidationMisses counts the ones the
	// cache could not match — not resident, or resident under another tag:
	// each is dropped from its group (one lost prefetch) and reported to
	// the server with the next open.
	ValidatedFiles   uint64
	ValidationMisses uint64
	// HistoryDropped counts piggyback-history entries shed, oldest first,
	// because more than the protocol bound accumulated between two
	// requests (or across failed ones).
	HistoryDropped uint64
	// PrefetchHits counts opens served by a file that arrived as a
	// non-demanded group member and had not been demanded since.
	PrefetchHits uint64
	// Writes counts successful Write calls.
	Writes uint64
	// BrokenConns counts connections poisoned after an I/O or protocol
	// error (each is closed and never reused), to any member.
	BrokenConns uint64
	// Reconnects counts successful redials after a broken connection.
	Reconnects uint64
	// Rerouted counts opens sent to another member because their owner's
	// connection failed.
	Rerouted uint64
	// Retries counts round-trip attempts beyond each request's first.
	Retries uint64
	// DegradedHits counts cache hits served while the client had no
	// live connection — the degraded mode that keeps local data
	// available through a server outage.
	DegradedHits uint64
}

// clientConn bundles one live connection with its buffered framing. The
// bundle is replaced wholesale on redial so a poisoned stream's buffers
// can never leak stale bytes into a fresh connection.
type clientConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func newClientConn(conn net.Conn) *clientConn {
	return &clientConn{conn: conn, r: bufio.NewReaderSize(conn, connBufSize), w: bufio.NewWriterSize(conn, connBufSize)}
}

// link is the client's connection slot for one server: the seed, or a
// member of the seed's ring. Besides the connection it keeps what the
// connection's server knows of this client's cache, so each open can
// report what changed (DESIGN.md §4), and a failure count that routes
// opens around a member that stopped answering.
type link struct {
	addr string // advertised member address; "" for a seed no view has named
	dial func() (net.Conn, error)
	// timeout bounds the handshake and each round trip (0: none).
	timeout time.Duration
	connMu  sync.Mutex // serializes dial + handshake

	// Guarded by Client.mu.
	conn *clientConn // dialed, handshake pending; nil once the mux owns it
	mux  *muxConn    // live transport; nil while disconnected
	// redial: a dial of this link replaces a connection it had.
	redial bool
	// gone: the member left the view; the link is closed and never
	// redialed.
	gone bool
	// known is, by FileID, the tag the server on the live connection
	// believes this client holds (0: not held); dirty lists the files whose
	// state may have changed since, marked in marked. Reset with every
	// connection: a new server knows nothing.
	known  []uint64
	marked []bool
	dirty  []trace.FileID
	// written and answered count the opens sent on the live connection
	// and the replies to them read so far. kept holds, oldest first, the
	// files evicted while some of those opens were unanswered: their
	// requests' reports still showed the files held, so their replies may
	// send them header-only (installViews). Reset with every connection.
	written, answered uint64
	kept              []keptFile
	// downUntil routes opens this member owns to another one until then;
	// fails is the consecutive transport failures that set it.
	downUntil time.Time
	fails     int
}

// keptFile is a file evicted while opens its link had written were
// unanswered: the contents and tag it had, and how many opens the link
// had written then.
type keptFile struct {
	id    trace.FileID
	tag   uint64
	data  []byte
	until uint64
}

// answer counts one reply to an open read on l's live connection and lets
// go of the kept files no unanswered open's reply can vouch for. Called
// with Client.mu held.
func (l *link) answer() {
	l.answered++
	l.release()
}

// release lets go of the kept files written no later than the last
// answered open. Called with Client.mu held.
func (l *link) release() {
	n := 0
	for n < len(l.kept) && l.kept[n].until <= l.answered {
		n++
	}
	if n > 0 {
		clear(l.kept[copy(l.kept, l.kept[n:]):])
		l.kept = l.kept[:len(l.kept)-n]
	}
}

// keptData returns the contents l kept of id, evicted at tag, if any.
// Called with Client.mu held.
func (l *link) keptData(id trace.FileID, tag uint64) ([]byte, bool) {
	for _, k := range l.kept {
		if k.id == id && k.tag == tag {
			return k.data, true
		}
	}
	return nil, false
}

// mark notes that id's residency or tag may differ from what the link's
// server believes. Called with Client.mu held.
func (l *link) mark(id trace.FileID) {
	if int(id) >= len(l.marked) {
		l.marked = trace.GrowDense(l.marked, id)
		l.known = trace.GrowDense(l.known, id)
	}
	if !l.marked[id] {
		l.marked[id] = true
		l.dirty = append(l.dirty, id)
	}
}

// Client is the client-side cache manager of Figure 2. It is safe for
// concurrent use by multiple goroutines. Each connection is multiplexed:
// concurrent opens are pipelined over one connection and the server
// answers them in request order, so N goroutines proceed without
// serializing on the wire. Broken connections are redialed with
// exponential backoff when a Dialer is configured.
//
// A client starts with one server, the seed. If the seed's hello names a
// ring, the first open pulls the member list, and from then on every miss
// goes straight to the member that owns its path (internal/ring) over a
// connection of its own, dialed on first use; writes and the cluster
// verbs stay with the seed. A piggybacked view hint of a newer epoch
// makes the next miss re-pull the list before it is routed.
//
// Locking (see DESIGN.md §4): mu guards the cache state, pending history,
// the view and the links' connection slots and report state, and is never
// held across network I/O — Contains, Close, and cache hits always return
// promptly even while requests are stalled on the wire. Stats takes no
// lock: the counts are atomic counters (clientMetrics). A link's connMu
// serializes its connection establishment (dial + handshake); viewMu
// serializes view pulls. rngMu guards the retry-jitter source. Order:
// viewMu → connMu → mux.mu → mu; rngMu is a leaf.
type Client struct {
	cfg ClientConfig
	m   clientMetrics

	mu   sync.Mutex
	seed *link
	// ring places paths on members once a view is pulled; nil before, and
	// for good when the seed is in no ring. links holds the members'
	// slots by address (the seed's among them under its advertised
	// address), tracked the slots with a live connection.
	ring    *ring.Ring
	links   map[string]*link
	tracked []*link
	live    int // links holding a connection
	ids     *trace.Interner
	lru     *cache.GroupLRU // residency and placement; the client keeps only bytes
	data    [][]byte        // file contents by interned FileID; immutable once published (see Open)
	tags    []uint64        // by FileID: the tag data[id] arrived (or was written) under
	// pending is the access history awaiting piggybacking. A claim takes
	// its array into the call that sends it and leaves in its place the
	// emptied array that call kept from its last claim, so the backlog
	// regrows without reallocating.
	pending    []string
	reply      groupReply // install's decode of the reply it installs
	gidScratch []trace.FileID
	reported   []trace.FileID // appendOpen's scratch
	closed     bool

	viewMu sync.Mutex
	// viewChecked is set once the seed's hello has been seen and, if it
	// named a ring, the view pulled; viewEpoch is the pulled view's epoch
	// (0: none), and hinted the link whose server last announced a newer
	// one, for the next miss to pull from.
	viewChecked atomic.Bool
	viewEpoch   atomic.Uint64
	hinted      atomic.Pointer[link]

	rngMu sync.Mutex
	rng   *rand.Rand // retry jitter; guarded by rngMu
}

// Dial connects a new client to the server at addr and installs a TCP
// dialer for that address so broken connections can be re-established
// (when cfg.MaxRetries > 0 or on the request after a failure). If the
// server is a member of a ring, the client pulls the member list with its
// first open and sends every miss to its path's owner from then on.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	if cfg.Dialer == nil {
		cfg.Dialer = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := cfg.Dialer()
	if err != nil {
		return nil, fmt.Errorf("fsnet: dial %s: %w", addr, err)
	}
	return NewClient(conn, cfg)
}

// NewClient wraps an established connection to the seed (useful for
// tests and custom transports). The protocol handshake runs lazily on the
// first request. Without a cfg.Dialer the client cannot reconnect to the
// seed: the first broken connection leaves it permanently degraded there.
func NewClient(conn net.Conn, cfg ClientConfig) (*Client, error) {
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 128
	}
	if cfg.DialMember == nil {
		timeout := cfg.memberTimeout()
		cfg.DialMember = func(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, timeout) }
	}
	cfg.Backoff = cfg.Backoff.withDefaults()
	lru, err := cache.NewGroupLRU(cfg.CacheCapacity)
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Client{
		cfg:  cfg,
		m:    newClientMetrics(cfg.Obs),
		seed: &link{dial: cfg.Dialer, timeout: cfg.Timeout, redial: true},
		ids:  trace.NewInterner(),
		lru:  lru,
		rng:  rand.New(rand.NewSource(seed)),
	}
	if conn != nil {
		c.seed.conn = newClientConn(conn)
		c.live = 1
	}
	lru.OnEvict(c.evicted)
	return c, nil
}

// evicted is the cache's eviction hook: it keeps the file for any opens in
// flight, drops its bytes and marks it on every live link. Called with mu
// held.
func (c *Client) evicted(id trace.FileID, _ bool) {
	c.keep(id)
	c.data[id] = nil
	c.markAll(id)
}

// memberTimeout is the bound on a connection to a member other than the
// seed: Timeout if set, else the package's memberTimeout.
func (cfg *ClientConfig) memberTimeout() time.Duration {
	if cfg.Timeout > 0 {
		return cfg.Timeout
	}
	return memberTimeout
}

// keep holds on to an evicted file's contents for every live link with
// opens unanswered: the requests of those opens reported the file held, so
// their replies may send it header-only. Called with mu held.
func (c *Client) keep(id trace.FileID) {
	for _, l := range c.tracked {
		if l.written > l.answered {
			l.kept = append(l.kept, keptFile{id: id, tag: c.tags[id], data: c.data[id], until: l.written})
		}
	}
}

// markAll notes a change to id's residency or tag on every live link.
// Called with mu held.
func (c *Client) markAll(id trace.FileID) {
	for _, l := range c.tracked {
		l.mark(id)
	}
}

// Close shuts every connection down. Open fails afterwards. Close never
// waits on in-flight requests: it closes the live connections, which
// aborts any blocked I/O and fails every pipelined in-flight call.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	links := []*link{c.seed}
	for _, l := range c.links {
		if l != c.seed {
			links = append(links, l)
		}
	}
	var err error
	for _, l := range links {
		if cerr := c.detach(l); err == nil {
			err = cerr
		}
	}
	c.mu.Unlock()
	return err
}

// detach empties a link's connection slots and closes what they held; a
// call reading its reply there fails on the closed connection and poisons
// the calls behind it. Called with mu held.
func (c *Client) detach(l *link) error {
	cc, m := l.conn, l.mux
	if cc != nil || m != nil {
		c.live--
	}
	l.conn, l.mux = nil, nil
	c.untrack(l)
	var err error
	if cc != nil {
		err = cc.conn.Close()
	}
	if m != nil {
		if cerr := m.conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats returns a snapshot of client activity. The counts are loaded one
// by one while opens may run, each bounded count before the count that
// bounds it, which its writer moves first: no snapshot shows more prefetch
// or degraded hits than hits, or more validated and missed members than
// members received.
func (c *Client) Stats() ClientStats {
	m := &c.m
	st := ClientStats{
		PrefetchHits:     m.prefetchHits.Load(),
		DegradedHits:     m.degradedHits.Load(),
		ValidatedFiles:   m.validatedFiles.Load(),
		ValidationMisses: m.validationMisses.Load(),
		HistoryDropped:   m.historyDropped.Load(),
		Writes:           m.writes.Load(),
		BrokenConns:      m.brokenConns.Load(),
		Reconnects:       m.reconnects.Load(),
		Rerouted:         m.reroutes.Load(),
		Retries:          m.retries.Load(),
	}
	st.Hits = m.hits.Load()
	st.Fetches = m.fetches.Load()
	st.FilesReceived = m.filesReceived.Load()
	st.BytesReceived = m.bytesReceived.Load()
	st.Opens = st.Hits + st.Fetches
	return st
}

// Contains reports whether path is in the local cache.
func (c *Client) Contains(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.ids.Lookup(path)
	return ok && c.lru.Contains(id)
}

// Connected reports whether the client currently holds a live (not
// poisoned) connection to any server.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live > 0
}

// ensureDense grows the FileID-indexed data and tags slices to cover id. Interned
// IDs are dense and small, so it stays proportional to the number of
// distinct paths seen, and indexing it replaces a map lookup on the open
// hot path. Called with mu held.
func (c *Client) ensureDense(id trace.FileID) {
	if int(id) >= len(c.data) {
		c.data = trace.GrowDense(c.data, id)
		c.tags = trace.GrowDense(c.tags, id)
	}
}

// Open returns the contents of path, from the local cache when possible,
// otherwise via a group fetch from the server. Cache hits never touch the
// network, so they keep succeeding while the server is unreachable.
//
// The result is the cache's own storage, shared with every other caller
// that opens path: treat it as read-only. It is never overwritten — a
// later fetch or Write of path installs new storage — so it stays valid
// and unchanged for as long as the caller keeps it, and cap == len, so an
// append reallocates. A caller that wants a private copy writes
// append(buf[:0], d...).
func (c *Client) Open(path string) ([]byte, error) {
	if path == "" || len(path) > maxPath {
		return nil, fmt.Errorf("fsnet: invalid path %q", path)
	}
	// Trace entry point: one atomic add when a tracer is wired, nothing
	// at all otherwise. The clock is read only for sampled requests, so
	// the unsampled hot path stays identical to the untraced one.
	tctx := c.cfg.Trace.Root()
	var tstart time.Time
	if tctx.Sampled {
		tstart = time.Now()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	c.appendPending(path)
	// Lookup, not Intern: a path is interned when a reply delivers it, so
	// opens of nonexistent paths leave nothing behind.
	if id, known := c.ids.Lookup(path); known {
		if hit, speculative := c.lru.Demand(id); hit {
			degraded := c.live == 0
			out := c.data[id]
			c.mu.Unlock()
			c.m.hits.Inc()
			if speculative {
				c.m.prefetchHits.Inc()
			}
			if degraded {
				c.m.degradedHits.Inc()
				c.m.events.Record("degraded_hit", obs.F("path", path))
			}
			if tctx.Sampled {
				c.cfg.Trace.Record(tctx, "client_hit", path, tstart, time.Since(tstart))
			}
			return out, nil
		}
	}
	c.mu.Unlock()

	out, err := c.fetch(path, tctx)
	if err != nil {
		return nil, err
	}
	if tctx.Sampled {
		c.cfg.Trace.Record(tctx, "client_open", path, tstart, time.Since(tstart))
	}
	return out, nil
}

// ViewPull asks the seed for its membership view (gossip anti-entropy).
// The reply is the responder's full view, whatever its epoch; members is
// never nil.
func (c *Client) ViewPull() (epoch uint64, members []string, err error) {
	epoch, _, members, err = c.viewPull(c.seed)
	return epoch, members, err
}

// viewPull is ViewPull to one link, with the responder's address. The
// request's epoch and sender fields are left zero: the responder ignores
// them.
func (c *Client) viewPull(l *link) (epoch uint64, sender string, members []string, err error) {
	res, err := c.roundTrip(func() (*link, *muxConn, error) { return c.on(l) }, msgViewPull, "", appendViewMsg(nil, 0, ""), otrace.Ctx{})
	if err != nil {
		return 0, "", nil, err
	}
	if res.members == nil {
		res.members = []string{} // non-nil: a pushed empty view is still a view
	}
	return res.epoch, res.sender, res.members, nil
}

// ViewPush offers a membership view to the server, which validates and
// installs it through its own view source (a stale epoch is not an
// error — the receiver was simply newer). The returned remoteEpoch is
// the receiver's epoch after the install. The pushed view is explicit
// because a draining node's goodbye pushes a view it deliberately does
// not install itself. The push's sender field is left empty: the
// receiver ignores it.
func (c *Client) ViewPush(epoch uint64, members []string) (remoteEpoch uint64, err error) {
	if len(members) > maxViewMembers {
		return 0, fmt.Errorf("fsnet: view of %d members exceeds limit %d", len(members), maxViewMembers)
	}
	payload := appendViewPush(nil, epoch, "", members)
	res, err := c.roundTrip(c.toSeed, msgViewPush, "", payload, otrace.Ctx{})
	return res.epoch, err
}

// Write stores a whole file on the seed (write-through) and refreshes
// the local cached copy if resident. Writes are not access events: the
// grouping model tracks opens (§2.2), so a write does not perturb the
// piggybacked history. Whole-file writes are idempotent, so transport
// failures are retried like opens.
func (c *Client) Write(path string, data []byte) error {
	if path == "" || len(path) > maxPath {
		return fmt.Errorf("fsnet: invalid path %q", path)
	}
	if len(data) > maxFileSize {
		return fmt.Errorf("fsnet: file of %d bytes exceeds limit %d", len(data), maxFileSize)
	}
	payload := encodeWriteRequest(writeRequest{Path: path, Data: data})
	res, err := c.roundTrip(c.toSeed, msgWrite, "", payload, otrace.Ctx{})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Refresh the local copy so our own reads see the write. The slot gets
	// new storage (earlier Open results keep the old bytes) without a copy:
	// the encoded request ends with the contents, and a reply means the mux
	// writer is done with it. The tag the server's store gave those bytes
	// comes with the ack, so the pair stays one a later reply can validate
	// once the next open has reported it.
	if id, ok := c.ids.Lookup(path); ok && c.lru.Contains(id) {
		c.data[id] = payload[len(payload)-len(data) : len(payload) : len(payload)]
		c.tags[id] = res.tag
		c.markAll(id)
	}
	c.m.writes.Inc()
	return nil
}

// fetch performs one open round trip to path's owner, retrying per the
// config. The piggybacked history is claimed when the request is written
// and restored if the server demonstrably never processed it (any reply
// frame consumes it): a failed round trip retains the history so the
// access transitions are re-sent — and a server still learns them — on
// the next successful request (§3 metadata quality).
//
// The call installed the group the reply carried (install) before the
// next call on its connection could read; fetch returns the demanded
// file's contents.
func (c *Client) fetch(path string, tctx otrace.Ctx) ([]byte, error) {
	res, err := c.roundTrip(func() (*link, *muxConn, error) { return c.toOwner(path) }, msgOpen, path, nil, tctx)
	return res.data, err
}

// install is the tail of a fetch's read: it validates the group reply to
// an open of path out of the chunk frames in buf — chunk i ends at
// ends[i] — installs it in the cache, counts the open, and returns the
// demanded file's contents. The call installs before it hands the read
// role on, which keeps the order the server sent the connection's replies
// in, the order its residency table assumed: a reply may vouch for a
// member an earlier reply delivered.
func (c *Client) install(m *muxConn, path string, buf []byte, ends []int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := &c.reply
	defer g.reset()
	// A call installs only a group its msgGroupEnd counted, and the count
	// is never zero: the reply has members.
	if err := decodeChunks(g, buf, ends, path); err != nil {
		return nil, err
	}
	c.m.fetches.Inc()
	// The reply leads with path (decodeChunks), so path exists: interning
	// the caller's string saves installViews materialising a copy.
	return c.installViews(g, m, c.ids.Intern(path)), nil
}

// toSeed is the route of every verb but an open: the seed's connection.
func (c *Client) toSeed() (*link, *muxConn, error) { return c.on(c.seed) }

// on returns l's live connection, establishing one if needed.
func (c *Client) on(l *link) (*link, *muxConn, error) {
	m, err := c.transport(l)
	return l, m, err
}

// toOwner routes one open: to the seed until a view says otherwise, then
// to the member owning path — or, while that member's connection is
// failing, to another one, which serves the open from its own replica of
// the store. The first open of a client whose seed's hello named a ring
// pulls the view before it is routed, and so does the first open after a
// server hinted a newer view.
func (c *Client) toOwner(path string) (*link, *muxConn, error) {
	if !c.viewChecked.Load() {
		if err := c.checkView(); err != nil {
			return c.seed, nil, err
		}
	}
	if c.hinted.Load() != nil {
		c.followHint()
	}
	c.mu.Lock()
	l := c.seed
	if c.ring != nil {
		if owner := c.links[c.ring.Owner(path)]; owner != nil {
			l = owner
		}
		if now := time.Now(); now.Before(l.downUntil) {
			l = c.fallback(l, now)
		}
	}
	c.mu.Unlock()
	return c.on(l)
}

// fallback picks the member that serves an open while its owner l is
// failing: the seed, else the first member in address order that is not
// failing too, else l itself. Called with mu held.
func (c *Client) fallback(l *link, now time.Time) *link {
	if l != c.seed && !now.Before(c.seed.downUntil) {
		return c.seed
	}
	for _, addr := range c.ring.Members() {
		if alt := c.links[addr]; alt != l && !now.Before(alt.downUntil) {
			return alt
		}
	}
	return l
}

// reroute records a transport failure of l and reports whether the next
// attempt routes elsewhere: true for a member that left the view, and for
// a member of the view, whose opens go to another member until its
// backoff passes.
func (c *Client) reroute(l *link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l.gone {
		return true
	}
	if !c.markDown(l) {
		return false
	}
	c.m.reroutes.Inc()
	return true
}

// markDown backs a member of the view off after a transport failure and
// reports whether l is one. The calls failed by one outage — every call in
// flight on a poisoned connection, a dial's waiters — count as one
// failure: a member already backed off stays at its step. Called with mu
// held.
func (c *Client) markDown(l *link) bool {
	if c.ring == nil || c.links[l.addr] != l {
		return false
	}
	if now := time.Now(); !now.Before(l.downUntil) {
		l.fails++
		l.downUntil = now.Add(c.backoffDelay(l.fails - 1))
	}
	return true
}

// checkView learns from the seed's hello whether it is in a ring and, if
// so, pulls the view. An error is the seed's transport failing, for the
// caller to handle as its own.
func (c *Client) checkView() error {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	if c.viewChecked.Load() {
		return nil
	}
	m, err := c.transport(c.seed)
	if err != nil {
		return err
	}
	if m.epoch > 0 {
		if err := c.pullView(c.seed); err != nil {
			// The seed serves this open; the next one asks again.
			return nil
		}
	}
	c.viewChecked.Store(true)
	return nil
}

// noteViewHint records l when its server announces an epoch newer than
// the view the client routes by, so that the next miss pulls the view
// from it (followHint). Called by a call reading its reply, which holds the
// connection's read role, so it never waits.
func (c *Client) noteViewHint(l *link, epoch uint64) {
	if cur := c.viewEpoch.Load(); cur != 0 && epoch > cur {
		c.hinted.Store(l)
	}
}

// followHint pulls the view from the hinted link. A failed pull leaves the
// old view in place, and the open is routed by it.
func (c *Client) followHint() {
	c.viewMu.Lock()
	defer c.viewMu.Unlock()
	if l := c.hinted.Swap(nil); l != nil {
		_ = c.pullView(l)
	}
}

// pullView fetches l's view and routes by it. Members that left are
// closed, and any still owed history rides the next open. Called with
// viewMu held.
func (c *Client) pullView(l *link) error {
	epoch, sender, members, err := c.viewPull(l)
	if err != nil {
		return err
	}
	next := ring.Of(members...)
	if next.Len() == 0 {
		return nil
	}
	c.mu.Lock()
	if c.closed || (c.ring != nil && epoch <= c.viewEpoch.Load()) {
		c.mu.Unlock()
		return nil
	}
	if l.addr == "" {
		l.addr = sender
	}
	links := make(map[string]*link, next.Len())
	for _, addr := range next.Members() {
		switch {
		case c.links[addr] != nil:
			links[addr] = c.links[addr]
		case addr == c.seed.addr:
			links[addr] = c.seed
		default:
			dial := c.cfg.DialMember
			links[addr] = &link{addr: addr, dial: func() (net.Conn, error) { return dial(addr) }, timeout: c.cfg.memberTimeout()}
		}
	}
	for addr, old := range c.links {
		if links[addr] == nil && old != c.seed {
			old.gone = true
			_ = c.detach(old)
		}
	}
	c.ring, c.links = next, links
	c.viewEpoch.Store(max(epoch, 1))
	c.mu.Unlock()
	return nil
}

// appendOpen encodes one open for l's connection: the demanded path, the
// piggybacked history and l's residency report. spare is the emptied array
// the call sending the open kept from its last claim. The history claimed
// — spare itself when there is none — is returned for the call to keep:
// for restorePending should the connection die before the server saw it,
// or as the call's spare once it is answered. Called by the mux's flush
// with its lock held.
func (c *Client) appendOpen(dst []byte, l *link, path string, spare []string) (_ []byte, claimed []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var accessed []string
	claimed = spare
	l.written++
	if len(c.pending) > 0 {
		accessed, claimed = c.claimPending(path, spare)
	}
	dst = appendOpenRequest(dst, path, accessed)
	return c.appendReport(dst, l), claimed
}

// claimPending takes the pending history for one open of path. It returns
// the Accessed list to send — the claimed history minus a trailing entry
// for the demanded path itself (the server appends the demanded open on
// arrival), capped at the protocol limit by dropping the oldest overflow
// — and the slice to hand to restorePending should the attempt fail
// before the server saw it. The emptied spare array takes the claimed
// one's place.
//
// The claim ends at the open's own entry, the last one naming path: the
// entries after it are opens made while it waited to be written, in
// flight beside it, and they belong to the requests that carry them. Sent
// with it, they would teach the server successions that never happened
// (the later opens before this one). They move to the spare array.
// Called with mu held.
func (c *Client) claimPending(path string, spare []string) (accessed, claimed []string) {
	own := len(c.pending) - 1
	for own >= 0 && c.pending[own] != path {
		own--
	}
	if own >= 0 && own < len(c.pending)-1 {
		claimed, c.pending = c.pending[:own+1], append(spare[:0], c.pending[own+1:]...)
	} else {
		claimed, c.pending = c.pending, spare
	}
	accessed = claimed
	if n := len(accessed); accessed[n-1] == path {
		accessed = accessed[:n-1]
	}
	if len(accessed) > maxStatPaths {
		// Restores after repeated failures can grow the backlog past the
		// frame limit; keep the newest transitions and forget the oldest
		// so the backlog cannot grow without bound.
		overflow := len(accessed) - maxStatPaths
		accessed = accessed[overflow:]
		claimed = claimed[overflow:]
		c.m.historyDropped.Add(uint64(overflow))
	}
	return accessed, claimed
}

// appendReport appends l's residency report: every marked file whose
// state at this client — the tag it holds, or 0 — differs from what l's
// server believes, up to the protocol bound (the rest stay marked). What
// it reports, l's server believes from then on. Called with mu held.
func (c *Client) appendReport(dst []byte, l *link) []byte {
	if len(l.dirty) == 0 {
		return dst
	}
	ids := c.reported[:0]
	i := 0
	for ; i < len(l.dirty) && len(ids) < maxReport; i++ {
		id := l.dirty[i]
		l.marked[id] = false
		var tag uint64
		if c.lru.Contains(id) {
			tag = c.tags[id]
		}
		if tag != l.known[id] {
			l.known[id] = tag
			ids = append(ids, id)
		}
	}
	l.dirty = l.dirty[:copy(l.dirty, l.dirty[i:])]
	c.reported = ids
	if len(ids) == 0 {
		return dst
	}
	dst = appendReportHdr(dst, len(ids))
	for _, id := range ids {
		dst = appendReportEntry(dst, c.ids.Path(id), l.known[id])
	}
	return dst
}

// appendPending adds one path to the piggyback backlog — the one way in.
// The backlog is bounded by the protocol limit and keeps the newest: at the
// bound the oldest quarter is shed in one block (amortised constant work
// an access), counted, never silently. Called with mu held.
func (c *Client) appendPending(path string) {
	if len(c.pending) >= maxStatPaths {
		shed := len(c.pending) - maxStatPaths*3/4
		kept := copy(c.pending, c.pending[shed:])
		clear(c.pending[kept:])
		c.pending = c.pending[:kept]
		c.m.historyDropped.Add(uint64(shed))
	}
	c.pending = append(c.pending, path)
}

// restorePending prepends a claimed history that the server never saw, so
// it rides along with the next successful request. Entries appended by
// opens that ran during the failed round trip are newer and stay behind
// the restored prefix.
func (c *Client) restorePending(claimed []string) {
	if len(claimed) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == 0 {
		c.pending = claimed
		return
	}
	merged := make([]string, 0, len(claimed)+len(c.pending))
	merged = append(merged, claimed...)
	merged = append(merged, c.pending...)
	c.pending = merged
}

// backoffDelay returns the jittered sleep before retry attempt (0-based).
func (c *Client) backoffDelay(attempt int) time.Duration {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	return c.cfg.Backoff.delay(attempt, c.rng)
}

// roundTrip performs one request with retries: route picks the link and
// ensures its live transport (dialing and handshaking as needed), then the
// request is sent and the matching reply awaited. Transport failures —
// the server's MaxConns rejection of a hello among them — poison the
// connection and are retried with backoff up to cfg.MaxRetries; a failed
// owner first hands the request to another member, once, without a
// retry; a peer of another protocol version is not retried at all.
// A server's msgError answer is returned as the error, undisturbed and
// not retried. The reply comes back decoded by the call that read it: a
// streamed group reply was installed, and comes back as the demanded
// file's contents.
func (c *Client) roundTrip(route func() (*link, *muxConn, error), reqType uint8, path string, payload []byte, tctx otrace.Ctx) (muxResult, error) {
	if c.m.inflight != nil {
		c.m.inflight.Add(1)
		start := time.Now()
		defer func() {
			c.m.callLat.ObserveDuration(time.Since(start))
			c.m.inflight.Add(-1)
		}()
	}
	rerouted, resent := false, false
	for attempt := 0; ; {
		l, m, err := route()
		if err == nil {
			var res muxResult
			var idle bool
			// A failed call's claimed history was restored by the poison
			// that failed it.
			if res, idle, err = c.callMux(m, reqType, path, payload, tctx); err == nil {
				return res, res.refused
			}
			if idle && !resent {
				// The server most likely closed the connection while it
				// sat idle, as an HTTP client finds of a kept-alive one:
				// the request goes once more, on a fresh connection, and
				// is not a retry.
				resent = true
				continue
			}
		}
		if errors.Is(err, errClientClosed) || errors.Is(err, ErrProtocolVersion) || errors.Is(err, errDesync) {
			return muxResult{}, err
		}
		if !rerouted && reqType == msgOpen && c.reroute(l) {
			rerouted = true
			continue
		}
		if attempt >= c.cfg.MaxRetries {
			return muxResult{}, err
		}
		attempt++
		time.Sleep(c.backoffDelay(attempt - 1))
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return muxResult{}, errClientClosed
		}
		c.m.retries.Inc()
	}
}

// callMux performs one pipelined call over the multiplexed transport. A
// failed call reports idle when it found the connection idle after earlier
// calls and failed before any byte of its reply arrived, other than by its
// timeout.
func (c *Client) callMux(m *muxConn, reqType uint8, path string, payload []byte, tctx otrace.Ctx) (res muxResult, idle bool, err error) {
	call, head, err := m.enqueue(reqType, path, payload, tctx)
	if err != nil {
		return muxResult{}, false, err
	}
	// With a timeout configured the connection's deadline poisons it once
	// the call at its head is overdue, which fails this one too.
	if res, err = m.await(call, head); err != nil {
		// A poisoned connection's calls go with it: a flush may still be
		// reading them out of the batch it was sending, and the hand-off
		// may still be on its way.
		return muxResult{}, call.idle && !errors.Is(err, errTimedOut), err
	}
	// The answered call is back on its connection's free list (retire).
	return res, false, nil
}

// transport returns l's live mux, establishing one (dial + handshake)
// when the slot is empty. l.connMu makes sure only one goroutine dials
// while the rest wait and then share the result.
func (c *Client) transport(l *link) (*muxConn, error) {
	m, fails, err := c.liveMux(l)
	if m != nil || err != nil {
		return m, err
	}
	l.connMu.Lock()
	defer l.connMu.Unlock()
	m, failed, err := c.liveMux(l)
	if m != nil || err != nil {
		return m, err
	}
	if failed != fails {
		// The dial this call waited behind failed: the caller routes
		// elsewhere instead of waiting out a dial of its own.
		return nil, ErrUnreachable
	}

	// Take the connection NewClient wrapped if it is still waiting for its
	// handshake; otherwise dial. The candidate stays published in l.conn
	// throughout the handshake so a concurrent Close can abort a blocked
	// negotiation by closing the socket.
	c.mu.Lock()
	cc, redial := l.conn, l.redial
	c.mu.Unlock()
	if cc == nil {
		if l.dial == nil {
			return nil, fmt.Errorf("%w: no dialer configured", ErrConnBroken)
		}
		raw, err := l.dial()
		if err != nil {
			c.failDial(l)
			return nil, fmt.Errorf("%w: dial: %v", ErrUnreachable, err)
		}
		cc = newClientConn(raw)
		c.mu.Lock()
		if err := c.usable(l); err != nil {
			c.mu.Unlock()
			_ = raw.Close()
			return nil, err
		}
		l.conn = cc
		c.live++
		c.mu.Unlock()
	} else {
		redial = false
	}
	epoch, err := c.handshake(cc, l.timeout)
	if err != nil {
		c.dropConn(l, cc)
		c.failDial(l)
		return nil, err
	}
	return c.installMux(l, cc, redial, epoch)
}

// failDial backs l off before its connMu is released, so the calls
// queued behind the failed dial see the failure (transport) and route
// elsewhere.
func (c *Client) failDial(l *link) {
	c.mu.Lock()
	c.markDown(l)
	c.mu.Unlock()
}

// liveMux returns l's installed transport, or nil when there is none,
// with l's failure count.
func (c *Client) liveMux(l *link) (*muxConn, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usable(l); err != nil {
		return nil, 0, err
	}
	return l.mux, l.fails, nil
}

// usable refuses a connection to a closed client or a departed member.
// Called with mu held.
func (c *Client) usable(l *link) error {
	switch {
	case c.closed:
		return errClientClosed
	case l.gone:
		return errMemberGone
	}
	return nil
}

// handshake offers protocolVersion and requires the server to accept
// exactly that; the server answers with its view epoch. Called with the
// link's connMu held, before the connection is installed; timeout (0:
// none) bounds the exchange.
func (c *Client) handshake(cc *clientConn, timeout time.Duration) (epoch uint64, err error) {
	if timeout > 0 {
		_ = cc.conn.SetDeadline(time.Now().Add(timeout))
		defer cc.conn.SetDeadline(time.Time{})
	}
	if err := writeHello(cc.conn, msgHello, protocolVersion, 0); err != nil {
		return 0, fmt.Errorf("%w: handshake: %v", ErrConnBroken, err)
	}
	typ, payload, err := readFrame(cc.r)
	if err != nil {
		return 0, fmt.Errorf("%w: handshake: %v", ErrConnBroken, err)
	}
	switch typ {
	case msgHelloOK:
		ver, epoch, derr := decodeHello(payload)
		if derr != nil {
			return 0, fmt.Errorf("%w: handshake: %v", ErrConnBroken, derr)
		}
		if ver != protocolVersion {
			return 0, fmt.Errorf("%w: %w: server answered version %d, want %d", ErrConnBroken, ErrProtocolVersion, ver, protocolVersion)
		}
		return epoch, nil
	case msgError:
		e, derr := decodeErrorResponse(payload)
		if derr != nil {
			return 0, fmt.Errorf("%w: handshake: %v", ErrConnBroken, derr)
		}
		if e.Code == CodeBadRequest {
			// The peer understood the frame but not the offer.
			return 0, fmt.Errorf("%w: %w: hello refused: %s", ErrConnBroken, ErrProtocolVersion, e.Message)
		}
		// CodeBusy lands here: the accept limit answers the hello, and the
		// caller backs off and redials.
		return 0, fmt.Errorf("%w: handshake rejected: server error %d: %s", ErrConnBroken, e.Code, e.Message)
	default:
		return 0, fmt.Errorf("%w: unexpected handshake reply type %d", ErrConnBroken, typ)
	}
}

// noteReconnect counts a successful redial and logs it. Called outside mu
// so a slow event sink never stalls the cache.
func (c *Client) noteReconnect(conn net.Conn) {
	c.m.reconnects.Inc()
	addr := ""
	if ra := conn.RemoteAddr(); ra != nil {
		addr = ra.String()
	}
	c.m.events.Record("reconnect", obs.F("addr", addr))
}

// installMux publishes a handshaken connection as l's transport; it starts
// no goroutine, since each call reads its own reply. A new connection's
// server knows nothing of this client's cache, so every resident file is
// marked for the first report. Called with l.connMu held.
func (c *Client) installMux(l *link, cc *clientConn, countRedial bool, epoch uint64) (*muxConn, error) {
	m := newMuxConn(c, l, cc, epoch)
	c.mu.Lock()
	if err := c.usable(l); err != nil {
		c.mu.Unlock()
		_ = cc.conn.Close()
		return nil, err
	}
	if l.conn == cc {
		l.conn = nil // the candidate graduates to the mux
	} else {
		c.live++ // a concurrent detach emptied the slot
	}
	l.mux, l.redial = m, true
	clear(l.known)
	clear(l.marked)
	l.dirty = l.dirty[:0]
	for id := range c.data {
		if c.lru.Contains(trace.FileID(id)) {
			l.mark(trace.FileID(id))
		}
	}
	c.tracked = append(c.tracked, l)
	c.mu.Unlock()
	if countRedial {
		c.noteReconnect(cc.conn)
	}
	return m, nil
}

// untrack stops reporting to l, whose connection's opens will not be
// answered. Called with mu held.
func (c *Client) untrack(l *link) {
	l.written, l.answered, l.kept = 0, 0, nil
	for i, t := range c.tracked {
		if t == l {
			c.tracked = append(c.tracked[:i], c.tracked[i+1:]...)
			return
		}
	}
}

// dropConn closes a connection whose handshake failed and empties the
// slot so nothing reuses its stream. The broken connection is counted
// only if the candidate is still in the slot — a concurrent Close already
// emptied it.
func (c *Client) dropConn(l *link, cc *clientConn) {
	_ = cc.conn.Close()
	c.mu.Lock()
	counted := l.conn == cc
	if counted {
		l.conn = nil
		c.live--
	}
	c.mu.Unlock()
	if counted {
		c.noteBroken()
	}
}

// dropMux empties m's slot after a poison. The deliberate teardown in
// Close and in a view change empties the slot first, so a poison racing
// with them does not count a broken connection.
func (c *Client) dropMux(m *muxConn) {
	c.mu.Lock()
	counted := false
	if l := m.l; l.mux == m {
		l.mux = nil
		c.live--
		c.untrack(l)
		counted = !c.closed
	}
	c.mu.Unlock()
	if counted {
		c.noteBroken()
	}
}

// noteBroken counts a broken connection and logs it.
func (c *Client) noteBroken() {
	c.m.brokenConns.Inc()
	c.m.events.Record("conn_broken")
}

// answered counts an open m's server refused toward the opens its link
// has had answered (installViews counts the rest).
func (c *Client) answered(m *muxConn) {
	c.mu.Lock()
	if l := m.l; l.mux == m {
		l.answer()
	}
	c.mu.Unlock()
}

// installViews installs a fetched group and returns the demanded file's
// contents: cache.GroupLRU decides which of its files are resident
// afterwards (demanded file at the head — it always enters — other members
// at the tail, never evicting the incoming group's own files) and every
// resident one that carried its bytes gets them, so a member that was
// already cached is refreshed. Member paths are interned straight from the
// chunk views (no string materialization for already-known paths) and the
// contents are copied once, into one new slab the slots window; a slot's
// old storage is left as it was for whoever still holds it.
//
// A header-only member carries a tag and no bytes: m's server believed
// this cache holds it with those very contents. If it does, its slot, tag
// and LRU position stay as they are — Install keeps a resident member
// where it earned its place — and the slab is sized without it. If an
// earlier reply's install evicted it after m's request was written, the
// link kept its contents (keep), and it installs from them as if sent. If
// it is missing otherwise (a report raced the reply), the member is left
// out of the install altogether: one lost prefetch, nothing cached that
// was not received, and the next report puts the server right.
//
// What m's server now believes — every member it sent in full is held at
// its tag — is recorded for m's link, and every member is marked on every
// link, so each report says what differs. demanded is the interned id of
// the demanded file, which leads the reply. Called with mu held.
func (c *Client) installViews(g *groupReply, m *muxConn, demanded trace.FileID) []byte {
	l := m.l
	current := l.mux == m
	ids := c.gidScratch[:0]
	var file [maxGroup]uint8 // ids[k] is g.files[file[k]]
	received := 0
	c.m.filesReceived.Add(uint64(len(g.paths)))
	for i := range g.paths {
		received += len(g.files[i].Data)
		if g.held&(1<<i) != 0 {
			tag := g.files[i].Tag
			mid := c.ids.InternBytes(g.paths[i])
			c.ensureDense(mid)
			if current && !c.lru.Contains(mid) {
				if data, ok := l.keptData(mid, tag); ok {
					// Evicted after the request was written, by the
					// install of an earlier reply: the kept contents are
					// what the server vouched for, so the member installs
					// as if it had been sent.
					c.m.validatedFiles.Inc()
					g.held &^= 1 << i
					g.files[i].Data = data
					file[len(ids)] = uint8(i)
					ids = append(ids, mid)
					continue
				}
			}
			if tag == 0 || !c.lru.Contains(mid) || c.tags[mid] != tag {
				c.m.validationMisses.Inc()
				if current {
					l.mark(mid)
					l.known[mid] = tag
				}
				continue
			}
			c.m.validatedFiles.Inc()
			file[len(ids)] = uint8(i)
			ids = append(ids, mid)
			continue
		}
		mid := demanded
		if i > 0 {
			mid = c.ids.InternBytes(g.paths[i])
		}
		c.ensureDense(mid)
		file[len(ids)] = uint8(i)
		ids = append(ids, mid)
	}
	c.gidScratch = ids
	c.m.bytesReceived.Add(uint64(received))

	// The reply is answered before its install: the files the install
	// evicts cannot be vouched for by the request it answers, so only
	// opens still in flight make keep hold on to them.
	if current {
		l.answered++
	}
	c.lru.Install(ids, false)
	size := 0
	for k, mid := range ids {
		if i := file[k]; g.held&(1<<i) == 0 && c.lru.Contains(mid) {
			size += len(g.files[i].Data)
		}
	}
	slab := make([]byte, size)
	for k, mid := range ids {
		i := file[k]
		if g.held&(1<<i) != 0 {
			continue
		}
		if c.lru.Contains(mid) {
			n := copy(slab, g.files[i].Data)
			// Capacity-limited, so an append through one member cannot
			// reach into the next.
			c.data[mid], slab = slab[:n:n], slab[n:]
			c.tags[mid] = g.files[i].Tag
		}
		c.markAll(mid)
		if current {
			l.known[mid] = g.files[i].Tag
		}
	}
	if current {
		l.release()
	}
	if l.fails > 0 {
		l.fails, l.downUntil = 0, time.Time{}
	}
	return c.data[ids[0]]
}
