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
	// DisablePiggyback stops the client from forwarding its access
	// history (hits included) to the server with each request. By
	// default the history is piggybacked, giving the server unfiltered
	// metadata (§3); disabling it models the uncooperative client of
	// §4.3.
	DisablePiggyback bool
	// Timeout bounds each request round trip. Zero means no deadline: a
	// stalled server can block a request indefinitely. On a pipelined
	// connection a timeout poisons the whole connection (the stream
	// position is unknown), failing every in-flight call.
	Timeout time.Duration
	// Dialer re-establishes the connection after a failure. Dial
	// installs a TCP dialer for its address automatically; NewClient
	// leaves it nil (no reconnection) unless the caller provides one.
	Dialer func() (net.Conn, error)
	// MaxRetries is how many additional attempts a failed round trip
	// gets over a fresh connection (0 = fail fast). Retries apply to
	// transport failures and server-busy rejections, never to
	// application errors like ErrNotFound.
	MaxRetries int
	// Backoff shapes the delay between retries; zero values take the
	// defaults documented on the Backoff type.
	Backoff Backoff
	// Seed makes retry jitter deterministic; zero selects a fixed
	// default so behaviour is reproducible unless varied explicitly.
	Seed int64
	// Obs, when set, registers client-side counters (reconnects, broken
	// connections, retries, degraded hits), an in-flight gauge, and a
	// round-trip latency histogram with the given registry, and records
	// reconnect/conn_broken/degraded_hit events to its event log.
	// ClientStats stays authoritative either way.
	Obs *obs.Registry
	// Views, when set, wires membership-view dissemination into the
	// transport (internal/gossip): connections piggyback the local epoch
	// as a msgViewHint ahead of each request batch, inbound
	// hints are forwarded to Views.NoteViewEpoch, and ViewPull/ViewPush
	// become usable. Nil keeps the wire byte-identical to a pre-gossip
	// client.
	Views ViewSource
	// Trace, when set, mints a trace context at every Open entry
	// (head-sampled per the tracer's rate; FetchGroup runs under its
	// caller's) and records the client span into the tracer's ring.
	// Sampled contexts ride the connection as msgTraceCtx piggybacks so downstream servers join the same
	// trace; unsampled requests pay one atomic add and send
	// nothing. Nil disables tracing entirely.
	Trace *otrace.Tracer
}

// ClientStats is a snapshot of client cache activity.
type ClientStats struct {
	// Opens counts Open calls that succeeded.
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
	// each is dropped from its group (one lost prefetch) and ends
	// validation on the connection.
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
	// error (each is closed and never reused).
	BrokenConns uint64
	// Reconnects counts successful redials after a broken connection.
	Reconnects uint64
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

// Client is the client-side cache manager of Figure 2. It is safe for
// concurrent use by multiple goroutines. The connection is multiplexed:
// concurrent opens are pipelined over one connection and replies are
// matched by request ID, so N goroutines proceed without serializing on
// the wire. Broken connections are redialed with exponential backoff when
// a Dialer is configured.
//
// Locking (see DESIGN.md §10): mu guards the cache state, stats, pending
// history, and the connection slots, and is never held across network I/O
// — Stats, Contains, Close, and cache hits always return promptly even
// while requests are stalled on the wire. connMu serializes connection
// establishment (dial + handshake). rngMu guards the retry-jitter source.
// Order: connMu → mux.mu → mu; rngMu is a leaf.
type Client struct {
	cfg ClientConfig
	m   clientMetrics

	mu      sync.Mutex
	conn    *clientConn // dialed, handshake pending; nil once the mux owns it
	mux     *muxConn    // live transport; nil while disconnected
	ids     *trace.Interner
	lru     *cache.GroupLRU // residency and placement; the client keeps only bytes
	data    [][]byte        // file contents by interned FileID; immutable once published (see Open)
	tags    []uint64        // by FileID: the tag data[id] arrived (or was written) under
	pending []string        // access history awaiting piggybacking
	// pendingFree stacks the storage of successfully delivered claims,
	// handed back so the backlog regrows without reallocating after every
	// sweep. A claim in flight has taken its array with it, so k pipelined
	// claims need k arrays: a new one is only made when the stack is empty,
	// which bounds the stack by the most claims ever in flight at once.
	pendingFree [][]string
	gidScratch  []trace.FileID
	stats       ClientStats
	closed      bool

	// pendingN mirrors len(pending) so claimPending can skip the lock
	// when there is nothing to claim — the common case once a batch's
	// first open has swept the backlog.
	pendingN atomic.Int64

	// novalidate is set, for good, once the cache stops being what a server
	// replaying this client's requests and replies would compute: history
	// was shed, a header-only chunk did not match, replies are not cached
	// (FetchGroup) or accesses are not its own (NoteAccess), piggybacking
	// is off, or a connection is dialed with files already cached. From
	// then on a hello declares no capacity and every open on a connection
	// that did declare one carries openUnvalidated (DESIGN.md §11).
	novalidate atomic.Bool

	connMu sync.Mutex // serializes dial + handshake

	rngMu sync.Mutex
	rng   *rand.Rand // retry jitter; guarded by rngMu
}

// Dial connects a new client to the server at addr and installs a TCP
// dialer for that address so broken connections can be re-established
// (when cfg.MaxRetries > 0 or on the request after a failure).
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

// NewClient wraps an established connection (useful for tests and custom
// transports). The protocol handshake runs lazily on the first request.
// Without a cfg.Dialer the client cannot reconnect: the first broken
// connection leaves it permanently degraded.
func NewClient(conn net.Conn, cfg ClientConfig) (*Client, error) {
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 128
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
		cfg: cfg,
		m:   newClientMetrics(cfg.Obs),
		ids: trace.NewInterner(),
		lru: lru,
		rng: rand.New(rand.NewSource(seed)),
	}
	if conn != nil {
		c.conn = newClientConn(conn)
	}
	// Without the piggybacked hits a server cannot follow the cache.
	c.novalidate.Store(cfg.DisablePiggyback)
	lru.OnEvict(func(id trace.FileID, _ bool) { c.data[id] = nil })
	return c, nil
}

// Close shuts the connection down. Open fails afterwards. Close never
// waits on in-flight requests: it closes the live connection, which
// aborts any blocked I/O and fails every pipelined in-flight call.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	cc, m := c.conn, c.mux
	c.conn, c.mux = nil, nil
	c.mu.Unlock()
	var err error
	if cc != nil {
		err = cc.conn.Close()
	}
	if m != nil {
		// The reader notices the close and fails all in-flight calls.
		if cerr := m.conn.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats returns a snapshot of client activity.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Contains reports whether path is in the local cache.
func (c *Client) Contains(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.ids.Lookup(path)
	return ok && c.lru.Contains(id)
}

// Connected reports whether the client currently holds a live (not
// poisoned) connection.
func (c *Client) Connected() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.conn != nil || c.mux != nil
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
	if !c.cfg.DisablePiggyback {
		c.appendPending(path)
	}
	// Lookup, not Intern: a path is interned when a reply delivers it, so
	// opens of nonexistent paths leave nothing behind.
	if id, known := c.ids.Lookup(path); known {
		if hit, speculative := c.lru.Demand(id); hit {
			c.stats.Opens++
			c.stats.Hits++
			degraded := c.conn == nil && c.mux == nil
			if degraded {
				c.stats.DegradedHits++
			}
			if speculative {
				c.stats.PrefetchHits++
			}
			out := c.data[id]
			c.mu.Unlock()
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

	g, err := c.fetch(path, tctx)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	c.stats.Opens++
	c.stats.Fetches++
	// The reply leads with path (decodeChunks), so path exists: interning
	// the caller's string here saves installViews materialising a copy.
	c.ids.Intern(path)
	out := c.installViews(g)
	c.mu.Unlock()
	g.Release()
	if tctx.Sampled {
		c.cfg.Trace.Record(tctx, "client_open", path, tstart, time.Since(tstart))
	}
	return out, nil
}

// FetchGroup fetches path from the server and returns the entire group
// reply — the demanded file first, then its opportunistically fetched
// members — as the frames it arrived in: the group's Data are views into
// the buffers the mux reader filled, nothing is copied, and the caller owns
// one reference (see Group). It is the transport the cluster tier forwards
// through: it never answers from the local cache (a forward must see the
// owner's current group, not a stale local copy) and never installs into
// it (the caller keeps the group; a second copy here would never be read).
// Only the access history and the fetch counters are touched — which is
// why a client used this way asks for no validation: its cache is not what
// the replies would make it.
//
// tctx is the caller's trace context: the cluster tier threads the
// server-side context of the open it is forwarding, so the downstream
// owner's spans join the original trace instead of starting a new one. A
// zero context traces nothing.
func (c *Client) FetchGroup(path string, tctx otrace.Ctx) (*Group, error) {
	if path == "" || len(path) > maxPath {
		return nil, fmt.Errorf("fsnet: invalid path %q", path)
	}
	var tstart time.Time
	if tctx.Sampled {
		tstart = time.Now()
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errClientClosed
	}
	c.novalidate.Store(true)
	if !c.cfg.DisablePiggyback {
		c.appendPending(path)
	}
	c.mu.Unlock()

	g, err := c.fetch(path, tctx)
	if err != nil {
		return nil, err
	}
	if g.held != 0 {
		// Nothing here could supply the bytes, and the request said so.
		g.Release()
		return nil, c.desync(errors.New("header-only chunk in an unvalidated reply"))
	}

	c.mu.Lock()
	c.stats.Opens++
	c.stats.Fetches++
	c.stats.FilesReceived += uint64(len(g.Files))
	for i, p := range g.paths {
		// The interner owns the path string: no per-member allocation
		// once the path has been seen.
		g.Files[i].Path = c.ids.Path(c.ids.InternBytes(p))
		c.stats.BytesReceived += uint64(len(g.Files[i].Data))
	}
	c.mu.Unlock()
	if tctx.Sampled {
		c.cfg.Trace.Record(tctx, "client_open_group", path, tstart, time.Since(tstart))
	}
	return g, nil
}

// NoteAccess appends externally observed opens — e.g. a cluster node
// relaying a downstream client's piggybacked history — to the history
// this client piggybacks on its next fetch, preserving order. The backlog
// is bounded by the protocol limit and keeps the newest (appendPending), so
// a flood or an outage that outlasts it loses only its oldest transitions.
// Accesses this client's own cache never saw end validation, like
// FetchGroup.
func (c *Client) NoteAccess(paths ...string) {
	if c.cfg.DisablePiggyback {
		return
	}
	c.novalidate.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range paths {
		if p == "" || len(p) > maxPath {
			continue
		}
		c.appendPending(p)
	}
}

// Backlog reports how many noted accesses are waiting for the next fetch
// to carry them to the server.
func (c *Client) Backlog() int { return int(c.pendingN.Load()) }

// Handoff streams one drained group to the server: the anchor path plus
// its learned members, which the server installs into its successor
// metadata and stages into its cache — the graceful-drain transfer of
// the cluster tier (a departing owner calls this once per owned group,
// addressed to the group's next owner). Handoffs are idempotent
// metadata installs, so transport failures are retried like opens.
func (c *Client) Handoff(anchor string, members []string) error {
	if anchor == "" || len(anchor) > maxPath {
		return fmt.Errorf("fsnet: invalid path %q", anchor)
	}
	if len(members) == 0 || len(members) > maxGroup {
		return fmt.Errorf("fsnet: handoff of %d members out of range [1,%d]", len(members), maxGroup)
	}
	for _, p := range members {
		if p == "" || len(p) > maxPath {
			return fmt.Errorf("fsnet: invalid path %q", p)
		}
	}
	payload := encodeHandoffRequest(handoffRequest{Anchor: anchor, Members: members})
	typ, body, _, err := c.roundTrip(msgHandoff, "", payload, otrace.Ctx{})
	if err != nil {
		return err
	}
	defer putFrameBuf(body)
	if typ != msgHandoffOK {
		return c.replyErr(typ, body)
	}
	return nil
}

// ViewPull asks the server for its membership view (gossip anti-entropy).
// The request carries our own epoch and address, so the responder can
// note us for a symmetric pull-back if we are the newer side. The reply
// is either the responder's full view (members non-nil: it was newer) or
// just its epoch (members nil: it was not newer than the epoch we sent).
// Requires cfg.Views.
func (c *Client) ViewPull() (epoch uint64, members []string, err error) {
	vs := c.cfg.Views
	if vs == nil {
		return 0, nil, errors.New("fsnet: ViewPull needs cfg.Views")
	}
	payload := appendViewMsg(nil, vs.Epoch(), vs.Self())
	typ, body, _, err := c.roundTrip(msgViewPull, "", payload, otrace.Ctx{})
	if err != nil {
		return 0, nil, err
	}
	defer putFrameBuf(body)
	switch typ {
	case msgViewPush:
		epoch, _, members, derr := decodeViewPush(body)
		if derr != nil {
			return 0, nil, c.desync(derr)
		}
		if members == nil {
			members = []string{} // non-nil: a pushed empty view is still a view
		}
		return epoch, members, nil
	case msgViewHint:
		epoch, _, derr := decodeViewMsg(body)
		if derr != nil {
			return 0, nil, c.desync(derr)
		}
		return epoch, nil, nil
	default:
		return 0, nil, c.replyErr(typ, body)
	}
}

// ViewPush offers a membership view to the server, which validates and
// installs it through its own view source (a stale epoch is not an
// error — the receiver was simply newer). The returned remoteEpoch is
// the receiver's epoch after the install. The pushed view is explicit
// rather than read from cfg.Views because a draining node's goodbye
// pushes a view it deliberately does not install itself. Requires
// cfg.Views.
func (c *Client) ViewPush(epoch uint64, members []string) (remoteEpoch uint64, err error) {
	vs := c.cfg.Views
	if vs == nil {
		return 0, errors.New("fsnet: ViewPush needs cfg.Views")
	}
	if len(members) > maxViewMembers {
		return 0, fmt.Errorf("fsnet: view of %d members exceeds limit %d", len(members), maxViewMembers)
	}
	payload := appendViewPush(nil, epoch, vs.Self(), members)
	typ, body, _, err := c.roundTrip(msgViewPush, "", payload, otrace.Ctx{})
	if err != nil {
		return 0, err
	}
	defer putFrameBuf(body)
	if typ != msgViewHint {
		return 0, c.replyErr(typ, body)
	}
	remoteEpoch, _, derr := decodeViewMsg(body)
	if derr != nil {
		return 0, c.desync(derr)
	}
	return remoteEpoch, nil
}

// Write stores a whole file on the server (write-through) and refreshes
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
	typ, body, _, err := c.roundTrip(msgWrite, "", payload, otrace.Ctx{})
	if err != nil {
		return err
	}
	defer putFrameBuf(body)
	if typ != msgWriteOK {
		return c.replyErr(typ, body)
	}
	tag, derr := decodeWriteOK(body)
	if derr != nil {
		return c.desync(derr)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Refresh the local copy so our own reads see the write. The slot gets
	// new storage (earlier Open results keep the old bytes) without a copy:
	// the encoded request ends with the contents, and a reply means the mux
	// writer is done with it. The tag the server's store gave those bytes
	// comes with the ack, so the pair stays one a later reply can validate.
	if id, ok := c.ids.Lookup(path); ok && c.lru.Contains(id) {
		c.data[id] = payload[len(payload)-len(data) : len(payload) : len(payload)]
		c.tags[id] = tag
	}
	c.stats.Writes++
	return nil
}

// replyErr turns a reply of a type its verb did not ask for into the
// call's error. A msgError is the server's typed answer (CodeNotFound
// maps to ErrNotFound) and leaves the connection in service. Anything
// else — an error payload that does not decode included — means the reply
// stream is desynchronized, and the connection is poisoned.
func (c *Client) replyErr(typ uint8, body []byte) error {
	if typ != msgError {
		return c.desync(fmt.Errorf("unexpected reply type %d", typ))
	}
	e, derr := decodeErrorResponse(body)
	if derr != nil {
		return c.desync(derr)
	}
	if e.Code == CodeNotFound {
		return fmt.Errorf("%w: %s", ErrNotFound, e.Message)
	}
	return fmt.Errorf("fsnet: server error %d: %s", e.Code, e.Message)
}

// desync poisons the live connection after a reply that round-tripped
// intact failed to decode, and wraps the cause for the caller.
func (c *Client) desync(cause error) error {
	c.mu.Lock()
	m := c.mux
	c.mu.Unlock()
	if m != nil {
		m.poison(fmt.Errorf("%w: desynchronized reply stream", ErrConnBroken))
	}
	return fmt.Errorf("%w: %v", ErrConnBroken, cause)
}

// fetch performs one open round trip, retrying per the config. The
// piggybacked history is claimed when the request is written and
// restored if the server demonstrably never processed it (any reply frame
// consumes it): a failed round trip retains the history so the access
// transitions are re-sent — and the server still learns them — on the
// next successful request (§3 metadata quality).
//
// The caller owns the returned group's one reference.
func (c *Client) fetch(path string, tctx otrace.Ctx) (*Group, error) {
	typ, body, g, err := c.roundTrip(msgOpen, path, nil, tctx)
	if err != nil {
		return nil, err
	}
	if typ != msgGroupEnd {
		defer putFrameBuf(body)
		return nil, c.replyErr(typ, body)
	}
	// The mux reader only delivers a group its msgGroupEnd counted, and
	// the count is never zero: g has members.
	if derr := decodeChunks(g, path); derr != nil {
		g.Release()
		return nil, c.desync(derr)
	}
	return g, nil
}

// claimPending atomically takes the pending history for one open of path.
// It returns the Accessed list to send — the claimed history minus a
// trailing entry for the demanded path itself (the server appends the
// demanded open on arrival), capped at the protocol limit by dropping the
// oldest overflow — and the slice to hand to restorePending should the
// attempt fail before the server saw it.
func (c *Client) claimPending(path string) (accessed, claimed []string) {
	// Lock-free fast path: once a flush's first open has swept the
	// backlog, the rest of the batch claims nothing and skips the lock. A
	// concurrent append racing past this check simply rides the next
	// request, which is the contract anyway.
	if c.cfg.DisablePiggyback || c.pendingN.Load() == 0 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pending) == 0 {
		return nil, nil
	}
	claimed = c.pending
	c.pending = nil
	c.pendingN.Store(0)
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
		c.noteShed(overflow)
	}
	return accessed, claimed
}

// appendPending adds one path to the piggyback backlog — the one way in,
// for an open, a group fetch and a relayed access alike — reviving a
// recycled claim's storage when the backlog is empty. The backlog is
// bounded by the protocol limit and keeps the newest: at the bound the
// oldest quarter is shed in one block (amortised constant work an
// access), counted, never silently. Called with mu held.
func (c *Client) appendPending(path string) {
	if len(c.pending) >= maxStatPaths {
		shed := len(c.pending) - maxStatPaths*3/4
		kept := copy(c.pending, c.pending[shed:])
		clear(c.pending[kept:])
		c.pending = c.pending[:kept]
		c.pendingN.Store(int64(kept))
		c.noteShed(shed)
	}
	if n := len(c.pendingFree); c.pending == nil && n > 0 {
		c.pending, c.pendingFree[n-1] = c.pendingFree[n-1], nil
		c.pendingFree = c.pendingFree[:n-1]
	}
	c.pending = append(c.pending, path)
	c.pendingN.Add(1)
}

// noteShed accounts for n history entries the server will never see. It
// can no longer follow the cache from what it is sent, so validation ends.
// Called with mu held.
func (c *Client) noteShed(n int) {
	c.stats.HistoryDropped += uint64(n)
	c.m.historyDropped.Add(uint64(n))
	c.novalidate.Store(true)
}

// freePending recycles a claimed history the server has consumed: its
// storage backs a later backlog. String refs are dropped so the recycled
// array does not pin old paths.
func (c *Client) freePending(claimed []string) {
	if cap(claimed) == 0 {
		return
	}
	for i := range claimed {
		claimed[i] = ""
	}
	c.mu.Lock()
	c.pendingFree = append(c.pendingFree, claimed[:0])
	c.mu.Unlock()
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
	c.pendingN.Add(int64(len(claimed)))
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

// roundTrip performs one request with retries: ensure a live transport
// (dialing and handshaking as needed), send, await the matching reply.
// Transport failures — the server's MaxConns rejection of a hello among
// them — poison the connection and are retried with backoff up to
// cfg.MaxRetries; a peer of another protocol version is not.
// Application errors are returned to the caller undisturbed. The returned
// payload — or, for a streamed group reply, each chunk of the returned
// group — aliases a pooled buffer; the caller recycles the payload, or
// releases the group, after decoding.
func (c *Client) roundTrip(reqType uint8, path string, payload []byte, tctx otrace.Ctx) (uint8, []byte, *Group, error) {
	if c.m.inflight != nil {
		c.m.inflight.Add(1)
		start := time.Now()
		defer func() {
			c.m.callLat.ObserveDuration(time.Since(start))
			c.m.inflight.Add(-1)
		}()
	}
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			time.Sleep(c.backoffDelay(attempt - 1))
			c.mu.Lock()
			closed := c.closed
			if !closed {
				c.stats.Retries++
			}
			c.mu.Unlock()
			if closed {
				return 0, nil, nil, errClientClosed
			}
			c.m.retries.Inc()
		}
		m, err := c.transport()
		if err == nil {
			var res muxResult
			// A failed call's claimed history was restored by the poison
			// that failed it.
			if res, err = c.callMux(m, reqType, path, payload, tctx); err == nil {
				return res.typ, res.payload, res.group, nil
			}
		}
		if errors.Is(err, errClientClosed) || errors.Is(err, ErrProtocolVersion) || attempt >= c.cfg.MaxRetries {
			return 0, nil, nil, err
		}
	}
}

// callMux performs one pipelined call over the multiplexed transport.
func (c *Client) callMux(m *muxConn, reqType uint8, path string, payload []byte, tctx otrace.Ctx) (muxResult, error) {
	call, err := m.enqueue(reqType, path, payload, tctx)
	if err != nil {
		return muxResult{}, err
	}
	// With a timeout configured the connection's watchdog poisons it once
	// the call is overdue, which delivers an error result here.
	res := <-call.done
	if res.err != nil {
		// A poisoned connection fails its calls while its writer may still
		// be reading them out of the batch it was sending: the call is left
		// to the collector, not recycled under the writer.
		return muxResult{}, res.err
	}
	// A reply means the writer sent the request and is done with the call,
	// and exactly one result is ever delivered: the call is free for reuse.
	// The server consumed the piggybacked history the call claimed, so its
	// storage can back the next backlog.
	c.freePending(call.claimed)
	putMuxCall(call)
	return res, nil
}

// transport returns the live mux, establishing one (dial + handshake)
// when the slot is empty. connMu makes sure only one goroutine dials
// while the rest wait and then share the result.
func (c *Client) transport() (*muxConn, error) {
	if m, err := c.liveMux(); m != nil || err != nil {
		return m, err
	}
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if m, err := c.liveMux(); m != nil || err != nil {
		return m, err
	}

	// Take the connection NewClient wrapped if it is still waiting for its
	// handshake; otherwise this is a redial. The candidate stays published
	// in c.conn throughout the handshake so a concurrent Close can abort a
	// blocked negotiation by closing the socket.
	c.mu.Lock()
	cc := c.conn
	c.mu.Unlock()
	redial := cc == nil
	if redial {
		if c.cfg.Dialer == nil {
			return nil, fmt.Errorf("%w: no dialer configured", ErrConnBroken)
		}
		raw, err := c.cfg.Dialer()
		if err != nil {
			return nil, fmt.Errorf("%w: redial: %v", ErrConnBroken, err)
		}
		cc = newClientConn(raw)
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			_ = raw.Close()
			return nil, errClientClosed
		}
		c.conn = cc
		c.mu.Unlock()
	}
	validated, err := c.handshake(cc)
	if err != nil {
		c.dropConn(cc)
		return nil, err
	}
	return c.installMux(cc, redial, validated)
}

// liveMux returns the installed transport, or nil when there is none.
func (c *Client) liveMux() (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	return c.mux, nil
}

// handshake offers protocolVersion and requires the server to accept
// exactly that. The hello declares the cache's capacity only while the
// cache is still empty and validation has not ended: a server can replay a
// cache from nothing, not from the middle. validated reports that the
// server agreed to shadow it, so this connection's opens must say when
// that stops being true. Called with connMu held, before the connection
// is installed.
func (c *Client) handshake(cc *clientConn) (validated bool, err error) {
	if c.cfg.Timeout > 0 {
		_ = cc.conn.SetDeadline(time.Now().Add(c.cfg.Timeout))
		defer cc.conn.SetDeadline(time.Time{})
	}
	c.mu.Lock()
	if c.lru.Len() > 0 {
		c.novalidate.Store(true)
	}
	c.mu.Unlock()
	var capacity uint64
	if !c.novalidate.Load() {
		capacity = uint64(c.cfg.CacheCapacity)
	}
	if err := writeHello(cc.conn, msgHello, protocolVersion, capacity); err != nil {
		return false, fmt.Errorf("%w: handshake: %v", ErrConnBroken, err)
	}
	typ, payload, err := readFrame(cc.r)
	if err != nil {
		return false, fmt.Errorf("%w: handshake: %v", ErrConnBroken, err)
	}
	defer putFrameBuf(payload)
	switch typ {
	case msgHelloOK:
		ver, shadowed, derr := decodeHello(payload)
		if derr != nil {
			return false, fmt.Errorf("%w: handshake: %v", ErrConnBroken, derr)
		}
		if ver != protocolVersion {
			return false, fmt.Errorf("%w: %w: server answered version %d, want %d", ErrConnBroken, ErrProtocolVersion, ver, protocolVersion)
		}
		return shadowed > 0, nil
	case msgError:
		e, derr := decodeErrorResponse(payload)
		if derr != nil {
			return false, fmt.Errorf("%w: handshake: %v", ErrConnBroken, derr)
		}
		if e.Code == CodeBadRequest {
			// The peer understood the frame but not the offer.
			return false, fmt.Errorf("%w: %w: hello refused: %s", ErrConnBroken, ErrProtocolVersion, e.Message)
		}
		// CodeBusy lands here: the accept limit answers the hello, and the
		// caller backs off and redials.
		return false, fmt.Errorf("%w: handshake rejected: server error %d: %s", ErrConnBroken, e.Code, e.Message)
	default:
		return false, fmt.Errorf("%w: unexpected handshake reply type %d", ErrConnBroken, typ)
	}
}

// noteReconnect mirrors a successful redial into the obs registry.
// Called outside mu so a slow event sink never stalls the cache.
func (c *Client) noteReconnect(conn net.Conn) {
	c.m.reconnects.Inc()
	addr := ""
	if ra := conn.RemoteAddr(); ra != nil {
		addr = ra.String()
	}
	c.m.events.Record("reconnect", obs.F("addr", addr))
}

// installMux publishes a handshaken connection as the transport and
// starts its goroutines. Called with connMu held.
func (c *Client) installMux(cc *clientConn, countRedial, validated bool) (*muxConn, error) {
	m := newMuxConn(c, cc, validated)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		_ = cc.conn.Close()
		return nil, errClientClosed
	}
	if c.conn == cc {
		c.conn = nil // the candidate graduates to the mux
	}
	c.mux = m
	if countRedial {
		c.stats.Reconnects++
	}
	c.mu.Unlock()
	if countRedial {
		c.noteReconnect(cc.conn)
	}
	m.start()
	return m, nil
}

// dropConn closes a connection whose handshake failed and empties the
// slot so nothing reuses its stream. The broken connection is counted
// only if the candidate is still in the slot — a concurrent Close already
// emptied it.
func (c *Client) dropConn(cc *clientConn) {
	_ = cc.conn.Close()
	c.mu.Lock()
	counted := c.conn == cc
	if counted {
		c.conn = nil
		c.stats.BrokenConns++
	}
	c.mu.Unlock()
	if counted {
		c.noteBroken()
	}
}

// dropMux empties the transport slot after a poison. The deliberate
// teardown in Close empties the slot first, so a poison racing with Close
// does not count a broken connection.
func (c *Client) dropMux(m *muxConn) {
	c.mu.Lock()
	counted := false
	if c.mux == m {
		c.mux = nil
		if !c.closed {
			c.stats.BrokenConns++
			counted = true
		}
	}
	c.mu.Unlock()
	if counted {
		c.noteBroken()
	}
}

// noteBroken mirrors a counted broken connection into the obs registry.
func (c *Client) noteBroken() {
	c.m.brokenConns.Inc()
	c.m.events.Record("conn_broken")
}

// TTFB returns a snapshot of the fetch time-to-first-byte histogram:
// enqueue until the first reply frame of the request (the first member
// chunk of a group reply, or its error). Recorded for
// every fetch regardless of whether an obs registry is configured.
func (c *Client) TTFB() obs.HistogramSnapshot {
	return c.m.ttfb.Snapshot()
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
// A header-only member carries a tag and no bytes: the server's shadow of
// this cache showed it resident with those very contents. If it is, its
// slot, tag and LRU position stay as they are — Install keeps a resident
// member where it earned its place — and the slab is sized without it. If
// it is not (the shadow was wrong), the member is left out of the install
// altogether: one lost prefetch, nothing cached that was not received, and
// the next request tells the server to stop validating. Called with mu
// held.
func (c *Client) installViews(g *Group) []byte {
	ids := c.gidScratch[:0]
	var file [maxGroup]uint8 // ids[k] is g.Files[file[k]]
	for i := range g.paths {
		c.stats.FilesReceived++
		c.stats.BytesReceived += uint64(len(g.Files[i].Data))
		if g.held&(1<<i) != 0 {
			tag := g.Files[i].Tag
			mid, known := c.ids.LookupBytes(g.paths[i])
			if !known || tag == 0 || !c.lru.Contains(mid) || c.tags[mid] != tag {
				c.stats.ValidationMisses++
				c.m.validationMisses.Inc()
				c.novalidate.Store(true)
				continue
			}
			c.stats.ValidatedFiles++
			c.m.validatedFiles.Inc()
			file[len(ids)] = uint8(i)
			ids = append(ids, mid)
			continue
		}
		mid := c.ids.InternBytes(g.paths[i])
		c.ensureDense(mid)
		file[len(ids)] = uint8(i)
		ids = append(ids, mid)
	}
	c.gidScratch = ids

	c.lru.Install(ids, false)
	size := 0
	for k, mid := range ids {
		if i := file[k]; g.held&(1<<i) == 0 && c.lru.Contains(mid) {
			size += len(g.Files[i].Data)
		}
	}
	slab := make([]byte, size)
	for k, mid := range ids {
		if i := file[k]; g.held&(1<<i) == 0 && c.lru.Contains(mid) {
			n := copy(slab, g.Files[i].Data)
			// Capacity-limited, so an append through one member cannot
			// reach into the next.
			c.data[mid], slab = slab[:n:n], slab[n:]
			c.tags[mid] = g.Files[i].Tag
		}
	}
	return c.data[ids[0]]
}
