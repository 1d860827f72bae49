package fsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"aggcache/internal/core"
	"aggcache/internal/obs"
	"aggcache/internal/obs/otrace"
	"aggcache/internal/trace"
)

// maxServerPipeline bounds the request-handler goroutines per pipelined
// connection, so one peer flooding requests cannot exhaust the scheduler
// before backpressure reaches its socket.
const maxServerPipeline = 64

// ServerConfig parameterizes a file server.
type ServerConfig struct {
	// GroupSize is the best-effort retrieval group size g (default 5).
	GroupSize int
	// CacheCapacity is the server's memory cache in whole files
	// (default 256). The cache is an aggregating cache: when a demanded
	// file misses, the whole group is staged from the store.
	CacheCapacity int
	// SuccessorCapacity bounds the per-file successor lists (default 3).
	SuccessorCapacity int
	// IdleTimeout closes connections that send no request for this
	// long. Zero disables the timeout.
	IdleTimeout time.Duration
	// WriteTimeout bounds each reply write so a stalled reader cannot
	// wedge its handler (the write deadline is re-armed per reply
	// batch). Zero disables the bound.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections. Excess connections
	// are rejected gracefully: the server sends msgError with CodeBusy
	// and closes. Zero means unlimited.
	MaxConns int
	// Router, when set, is consulted before any open is served from the
	// local cache and store. It lets an embedding tier (internal/cluster)
	// place a path's group on another server: when RouteOpen reports the
	// request handled, its files become the reply verbatim and the local
	// metadata, cache, and store are left untouched. When it reports the
	// request unhandled the server serves it locally as usual — which is
	// also the cluster tier's degraded path when the owning peer is down.
	Router OpenRouter
	// Logger receives connection-level errors; nil discards them.
	Logger *log.Logger
	// Obs, when set, registers the server's counters, per-phase open
	// latency histograms, and an open-connection gauge with the given
	// registry, and routes slow-request events to its event log. Nil
	// keeps the serving path free of clock reads and histogram updates;
	// ServerStats works either way, fed from the same counters.
	Obs *obs.Registry
	// SlowRequest, when positive and Obs is set, records a structured
	// slow_request event for every open that takes at least this long.
	SlowRequest time.Duration
	// Trace, when set, records request spans into the tracer's ring:
	// inbound msgTraceCtx piggybacks make this hop a child span of the
	// sender's, opens arriving without a context are head-sampled at the
	// tracer's own rate, and any open crossing SlowRequest is
	// tail-captured even when unsampled. Nil (the default) drops inbound
	// trace frames and keeps the serving path span-free.
	Trace *otrace.Tracer
	// Views, when set, wires membership-view dissemination into the
	// serving path (internal/gossip): reply batches piggyback the local
	// epoch as a msgViewHint, inbound hints feed
	// Views.NoteViewEpoch, and msgViewPull/msgViewPush are served.
	// Nil answers view frames with CodeBadRequest and keeps the reply
	// stream byte-identical to a pre-gossip server.
	Views ViewSource
}

// OpenRouter routes open requests whose group is placed on another
// server. Implementations must be safe for concurrent use; RouteOpen is
// called outside every server lock and may block on network I/O.
type OpenRouter interface {
	// RouteOpen resolves path into its group — demanded file first — or
	// reports handled=false to have the server stage the group from its
	// own store. accessed is the client's piggybacked access history,
	// relayed so the remote owner's metadata stays as complete as the
	// local server's would (§3); it is the server's pooled scratch, valid
	// only until RouteOpen returns, though the strings in it (and path)
	// may be kept. The server copies the returned slice's elements into
	// its reply and never writes through them; the contents must stay
	// unchanged until the reply is on the wire, which a router cannot
	// observe — so they are the router's to leave to the collector, never
	// to reuse. A handled error is returned to the client: ErrNotFound maps
	// to CodeNotFound, anything else to CodeInternal.
	RouteOpen(path string, accessed []string) (files []GroupFile, handled bool, err error)
}

// InlineRouter is the optional extension of OpenRouter, asserted once at
// construction: a router that accepts the request's trace context — so a
// forwarded open's downstream RPC becomes a child span of this server's —
// can tell, without waiting on anything, whether an open needs a peer
// round trip, and answers with the reference-counted Group it holds
// instead of a slice. With one, a connection's read loop serves the opens
// that need no round trip itself, exactly as a server without a router
// serves every open, and a handled group reaches the reply writer as it
// is; behind a plain OpenRouter every open runs on a worker goroutine,
// the trace context is not propagated and the reply copies the slice.
type InlineRouter interface {
	OpenRouter
	// RouteOpenTraced is RouteOpen with the caller's trace context (the
	// zero Ctx means the request is untraced), answering with a group and
	// the index of the demanded file in it: the reply leads with
	// g.Files[lead] and follows with the rest in order. The server owns
	// one reference to a handled group and releases it once the reply is
	// written or dropped.
	RouteOpenTraced(path string, accessed []string, tctx otrace.Ctx) (g *Group, lead int, handled bool, err error)
	// TryRouteOpen routes the open like RouteOpenTraced if that takes no
	// peer round trip. Otherwise it does nothing and reports blocks=true,
	// and the server repeats the open through RouteOpenTraced from a
	// goroutine that may wait.
	TryRouteOpen(path string, accessed []string, tctx otrace.Ctx) (g *Group, lead int, handled, blocks bool)
}

// ServerStats is a snapshot of server activity.
type ServerStats struct {
	// Requests counts open requests served (including errors).
	Requests uint64
	// Errors counts error replies — a refused handshake included — plus
	// protocol violations (malformed or truncated frames) that terminated
	// a connection.
	Errors uint64
	// FilesSent counts files transferred in group replies.
	FilesSent uint64
	// Rejected counts connections turned away at the MaxConns limit.
	Rejected uint64
	// Panics counts handler panics recovered and converted to msgError.
	Panics uint64
	// Disconnects counts connections terminated abnormally by I/O
	// failures (including reply writes cut off by WriteTimeout).
	Disconnects uint64
	// CoalescedStages is always zero: the server no longer coalesces store
	// stagings (the store is an in-memory map; DESIGN.md §10). The field
	// stays only until the repository benchmark stops reading it.
	CoalescedStages uint64
	// RemoteOpens counts open requests answered by the configured Router
	// (the cluster peer tier) rather than by the local cache and store.
	RemoteOpens uint64
	// Handoffs counts drain handoff groups installed from departing
	// peers (each learns the group's successor chain and stages its
	// anchor into the cache).
	Handoffs uint64
	// StreamedGroups counts successful group replies, each delivered as a
	// member stream (msgMemberChunk frames closed by msgGroupEnd).
	StreamedGroups uint64
	// ValidatedMembers counts group members sent header-only because the
	// connection's shadow showed the client holding them unchanged (they
	// are counted in FilesSent too); ValidatedBytesSaved sums the contents
	// that therefore stayed off the wire — the redundant bytes per group
	// fetch, live.
	ValidatedMembers    uint64
	ValidatedBytesSaved uint64
	// ShadowResets counts connections whose shadow was discarded after it
	// had vouched for at least one reply: the piggybacked history did not
	// fit it, or the client reported a miss. Such a connection is served
	// in full for the rest of its life.
	ShadowResets uint64
	// Cache is the server memory cache accounting (hits are requests
	// served without staging from the store).
	Cache core.Stats
}

// Server is the remote file server of Figure 2: it owns the relationship
// metadata, answers opens with groups, and keeps its own aggregating
// memory cache in front of the store.
//
// The serving path is sharded so concurrent requests mostly avoid each
// other (see DESIGN.md §10): counters are atomics, the path interner has
// a read-lock fast path for known paths, store reads happen outside any
// server lock, and only the successor-table update plus cache admission
// sit under the short aggMu critical section — the one server-wide mutex
// a locally served open takes, once.
type Server struct {
	cfg    ServerConfig
	store  *Store
	logger *log.Logger

	// iroute is cfg.Router's InlineRouter form, asserted once at
	// construction; nil when the router is not one.
	iroute InlineRouter

	// Hot counters; atomic (obs.Counter wraps one atomic each) so
	// concurrent handlers never contend. With cfg.Obs these are the very
	// series /metrics exposes, so Stats and the exposition cannot drift.
	m serverMetrics

	// ids translates paths to dense FileIDs and back; internally
	// read-write locked with a fast path for already-known paths.
	ids *trace.SyncInterner

	// aggMu guards the aggregating cache: successor learning, residency
	// bookkeeping, and group building. Never held across store or
	// network I/O.
	aggMu sync.Mutex
	agg   *core.AggregatingCache

	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	listener net.Listener
	closed   bool
	nextSrc  uint64
	wg       sync.WaitGroup
}

// NewServer builds a server over the given store.
func NewServer(store *Store, cfg ServerConfig) (*Server, error) {
	if store == nil {
		return nil, errors.New("fsnet: store must not be nil")
	}
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 5
	}
	if cfg.GroupSize < 1 || cfg.GroupSize > maxGroup {
		return nil, fmt.Errorf("fsnet: group size %d out of range [1,%d]", cfg.GroupSize, maxGroup)
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 256
	}
	agg, err := core.New(core.Config{
		Capacity:          cfg.CacheCapacity,
		GroupSize:         cfg.GroupSize,
		SuccessorCapacity: cfg.SuccessorCapacity,
		Obs:               cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:    cfg,
		store:  store,
		logger: cfg.Logger,
		agg:    agg,
		ids:    trace.NewSyncInterner(),
		conns:  make(map[net.Conn]struct{}),
		m:      newServerMetrics(cfg.Obs, cfg.SlowRequest),
	}
	s.iroute, _ = cfg.Router.(InlineRouter)
	if cfg.Obs != nil {
		cfg.Obs.GaugeFunc("fsnet_server_open_conns", "connections currently served", func() float64 {
			s.connMu.Lock()
			defer s.connMu.Unlock()
			return float64(len(s.conns))
		})
	}
	return s, nil
}

// Serve accepts connections on l until Close is called. It blocks; run it
// in a goroutine for concurrent use. Serve returns nil after a graceful
// Close.
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return errors.New("fsnet: server already closed")
	}
	s.listener = l
	s.connMu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.connMu.Lock()
			closed := s.closed
			s.connMu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("fsnet: accept: %w", err)
		}
		s.connMu.Lock()
		if s.closed {
			s.connMu.Unlock()
			_ = conn.Close()
			return nil
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.connMu.Unlock()
			s.m.rejected.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.rejectConn(conn)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.nextSrc++
		src := s.nextSrc
		s.connMu.Unlock()

		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.forget(conn, src)
			s.handleConn(conn, src)
		}()
	}
}

// rejectConn turns an over-limit connection away gracefully: a best-effort
// msgError carrying CodeBusy, then close. The write is deadline-bounded so
// a non-reading peer cannot pin the goroutine. The reply is a bare frame:
// the client reads it as the answer to its hello.
func (s *Server) rejectConn(conn net.Conn) {
	defer conn.Close()
	d := s.cfg.WriteTimeout
	if d <= 0 {
		d = 2 * time.Second
	}
	_ = conn.SetWriteDeadline(time.Now().Add(d))
	_ = writeFrame(conn, msgError, appendErrorResponse(nil, errorResponse{
		Code:    CodeBusy,
		Message: "server at connection limit",
	}))
}

// Close stops accepting, closes live connections, and waits for handlers
// to drain.
func (s *Server) Close() error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.connMu.Unlock()

	var err error
	if l != nil {
		err = l.Close()
	}
	s.wg.Wait()
	return err
}

// Stats returns a snapshot of server activity.
//
// Consistency is deliberately relaxed: each field is an atomic load, but
// the snapshot is not taken under one lock, so fields may be mutually
// inconsistent while requests are in flight. The load order makes the
// skew one-sided — the cache accounting and per-path counters are read
// first and Requests last, and every handler increments its request
// counter before any of those — so a snapshot always satisfies
//
//	Requests >= Cache.Hits + Cache.GroupFetches + RemoteOpens
//
// mid-flight, with equality at quiescence for an error-free, opens-only
// workload (writes and not-found errors count a request without a cache
// access). TestConcurrentStatsSnapshot enforces exactly this contract.
func (s *Server) Stats() ServerStats {
	s.aggMu.Lock()
	cacheStats := s.agg.Stats()
	s.aggMu.Unlock()
	st := ServerStats{
		Errors:         s.m.errors.Load(),
		FilesSent:      s.m.sent.Load(),
		Rejected:       s.m.rejected.Load(),
		Panics:         s.m.panics.Load(),
		Disconnects:    s.m.disconnects.Load(),
		RemoteOpens:    s.m.remote.Load(),
		Handoffs:       s.m.handoffs.Load(),
		StreamedGroups: s.m.streamed.Load(),
		Cache:          cacheStats,

		ValidatedMembers:    s.m.validated.Load(),
		ValidatedBytesSaved: s.m.validatedBytes.Load(),
		ShadowResets:        s.m.resetsHistory.Load() + s.m.resetsClient.Load(),
	}
	// Last, so its value bounds every per-outcome counter read above.
	st.Requests = s.m.requests.Load()
	return st
}

func (s *Server) forget(conn net.Conn, src uint64) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.aggMu.Lock()
	s.agg.Tracker().ForgetSource(src)
	s.aggMu.Unlock()
	_ = conn.Close()
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

// handleConn serves one client until EOF, protocol error, or idle
// timeout. src is the connection's learning context: transitions are only
// recorded within one client's stream, so interleaved clients cannot
// manufacture relationships that never happened on any machine (§2.2).
func (s *Server) handleConn(conn net.Conn, src uint64) {
	r := bufio.NewReaderSize(conn, connBufSize)
	if capacity, ok := s.handshake(conn, r); ok {
		s.serve(conn, r, src, newShadow(capacity))
	}
}

// handshake reads the connection's first frame, which must be a msgHello
// offering at least protocolVersion, and answers msgHelloOK. Anything else
// — another message type, a malformed hello, an older version — is
// refused with one bare-framed msgError, and the caller closes. capacity
// is the client cache the server agreed to shadow, zero for none.
func (s *Server) handshake(conn net.Conn, r *bufio.Reader) (capacity uint64, ok bool) {
	// serve recovers its own panics and owns the write side from its first
	// reply on; this recovery covers the handshake alone.
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			s.logf("fsnet: %s: recovered handshake panic: %v", conn.RemoteAddr(), p)
			s.refuse(conn, CodeInternal, "internal server error")
			capacity, ok = 0, false
		}
	}()
	if !s.armIdle(conn) {
		return 0, false
	}
	typ, payload, err := readFrame(r)
	if err != nil {
		s.readFailed(conn, err)
		return 0, false
	}
	defer putFrameBuf(payload)
	var refusal string
	if typ != msgHello {
		refusal = fmt.Sprintf("expected a protocol hello, got message type %d", typ)
	} else if offered, declared, err := decodeHello(payload); err != nil {
		refusal = err.Error()
	} else if offered < protocolVersion {
		refusal = fmt.Sprintf("protocol version %d is not supported, need %d", offered, protocolVersion)
	} else if declared <= maxShadowCapacity {
		capacity = declared
	}
	if refusal != "" {
		s.refuse(conn, CodeBadRequest, refusal)
		return 0, false
	}
	s.armWrite(conn)
	if err := writeHello(conn, msgHelloOK, protocolVersion, capacity); err != nil {
		s.disconnect(conn, err)
		return 0, false
	}
	return capacity, true
}

// refuse answers a connection that failed the handshake: one bare-framed
// msgError, counted like every error reply.
func (s *Server) refuse(conn net.Conn, code uint32, msg string) {
	s.m.errors.Add(1)
	s.armWrite(conn)
	_ = writeFrame(conn, msgError, appendErrorResponse(nil, errorResponse{Code: code, Message: msg}))
}

// armIdle starts the idle deadline for the next frame read.
func (s *Server) armIdle(conn net.Conn) bool {
	return s.cfg.IdleTimeout <= 0 || conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) == nil
}

// readFailed classifies a failed frame read: clean departures (EOF,
// closed, idle timeout) are silent, anything else counts as a protocol
// error.
func (s *Server) readFailed(conn net.Conn, err error) {
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
		s.m.errors.Add(1)
		s.logf("fsnet: %s: read: %v", conn.RemoteAddr(), err)
	}
}

// serve is the pipelined loop. The read loop serves inline every open
// that finishes without a peer round trip — all of them on a server with
// no router; the locally owned, mirrored and degraded ones behind an
// InlineRouter: the in-memory path never blocks on anything but the
// reply writer's own backpressure, and a goroutine hand-off is two
// scheduler hops per request, measurable at loopback rates. Forwarded
// opens, writes, handoffs and view frames go to the connection's workers,
// so a slow peer never holds up the opens queued behind it. A dedicated
// reply writer batches completed replies — out of order — onto the wire
// with one flush per batch. A malformed request payload fails only its
// own request; the framed stream stays intact, so the connection keeps
// serving.
func (s *Server) serve(conn net.Conn, r *bufio.Reader, src uint64, sh *shadow) {
	rw := newReplyWriter(s, conn, sh)
	cw := connWorkers{s: s, rw: rw, src: src, jobs: make(chan connJob)}
	inlineOpens := s.cfg.Router == nil || s.iroute != nil
	func() {
		// A panic in the read loop itself (as opposed to in a handler,
		// which recovers per request) must not skip the drain below: the
		// reply writer owns the write side.
		defer func() {
			if p := recover(); p != nil {
				s.m.panics.Add(1)
				s.logf("fsnet: %s: recovered read-loop panic: %v", conn.RemoteAddr(), p)
			}
		}()
		// Pending inbound trace context: the peer's writer emits each
		// msgTraceCtx immediately before the request frame it annotates,
		// so a single pending pair (cleared at the next request) suffices.
		var pendID uint64
		var pendCtx otrace.Ctx
		for {
			if !s.armIdle(conn) {
				return
			}
			typ, id, payload, err := readFrameID(r)
			if err != nil {
				s.readFailed(conn, err)
				return
			}
			if typ == msgViewHint {
				// Unsolicited epoch announcement piggybacked ahead of a
				// client's request batch. Advisory by design: malformed or
				// unconfigured hints are dropped, never answered, so a
				// plain client works unchanged against a gossip-enabled
				// server and vice versa.
				if vs := s.cfg.Views; vs != nil {
					if epoch, sender, derr := decodeViewMsg(payload); derr == nil {
						vs.NoteViewEpoch(sender, epoch)
					}
				}
				putFrameBuf(payload)
				continue
			}
			if typ == msgTraceCtx {
				// Trace-context piggyback for the next request frame.
				// Advisory like view hints: undecodable contexts (or any
				// arriving at an untraced server) are dropped, never
				// answered.
				if s.cfg.Trace != nil {
					if tid, wctx, derr := decodeTraceCtx(payload); derr == nil {
						pendID, pendCtx = tid, wctx
					}
				}
				putFrameBuf(payload)
				continue
			}
			var tctx otrace.Ctx
			if typ == msgOpen {
				if pendCtx.Sampled && pendID == id {
					// Continue the sender's trace as a child span.
					tctx = s.cfg.Trace.Child(pendCtx)
				} else {
					// No inbound context: this server is the trace's entry
					// point; its own head sampler decides. Nil-safe and
					// branch-only when tracing is unwired.
					tctx = s.cfg.Trace.Root()
				}
				pendCtx = otrace.Ctx{}
				if inlineOpens && s.serveRequest(rw, src, typ, id, payload, tctx, true) {
					continue
				}
			}
			cw.dispatch(connJob{typ: typ, id: id, payload: payload, tctx: tctx})
		}
	}()
	cw.stop()
	rw.drainAndStop()
}

// connWorkers runs the requests of one pipelined connection that may
// wait on a peer or the store's write lock. Workers start lazily, one
// per request that finds none idle, up to maxServerPipeline, and live
// until the connection closes: a steady request stream is handed from the
// read loop to a parked goroutine instead of spawning one per request.
// dispatch and stop are the read loop's.
type connWorkers struct {
	s   *Server
	rw  *replyWriter
	src uint64
	// jobs is unbuffered, so a send that does not block has found a
	// worker parked in its receive.
	jobs    chan connJob
	started int
	wg      sync.WaitGroup
}

// connJob is one request frame on its way to a worker.
type connJob struct {
	typ     uint8
	id      uint64
	payload []byte
	tctx    otrace.Ctx
}

func (cw *connWorkers) dispatch(j connJob) {
	select {
	case cw.jobs <- j:
		return
	default:
	}
	if cw.started < maxServerPipeline {
		cw.started++
		cw.wg.Add(1)
		go cw.run(j)
		return
	}
	// Every worker is busy: wait for one, so backpressure reaches the
	// peer's socket.
	cw.jobs <- j
}

func (cw *connWorkers) run(j connJob) {
	defer cw.wg.Done()
	for ok := true; ok; j, ok = <-cw.jobs {
		cw.s.serveRequest(cw.rw, cw.src, j.typ, j.id, j.payload, j.tctx, false)
	}
}

// stop lets every worker finish its request and exit.
func (cw *connWorkers) stop() {
	close(cw.jobs)
	cw.wg.Wait()
}

// serveRequest handles one pipelined request. A panic is recovered
// here, converted into a CodeInternal reply for this request only, and
// the connection keeps serving.
//
// inline marks a call from the read loop, which only passes opens: one
// that turns out to need a peer round trip is left untouched — payload
// included — and reported as not served, for a worker to repeat.
func (s *Server) serveRequest(rw *replyWriter, src uint64, typ uint8, id uint64, payload []byte, tctx otrace.Ctx, inline bool) (served bool) {
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			s.logf("fsnet: recovered handler panic: %v", p)
			rw.sendError(id, errorResponse{Code: CodeInternal, Message: "internal server error"})
		}
	}()
	served = true
	switch typ {
	case msgOpen:
		// The demanded and piggybacked paths are interned straight out of
		// the pooled frame buffer — no path strings, no Accessed slice —
		// and the group is built in pooled scratch.
		g, lead, errResp, err := s.openView(payload, src, rw.shadow, tctx, inline)
		if err == errRouteBlocks {
			return false
		}
		putFrameBuf(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		if errResp.Code != 0 {
			rw.sendError(id, errResp)
			return
		}
		s.m.streamed.Add(1)
		rw.sendGroup(id, g, lead)
	case msgWrite:
		path, data, err := parseWriteRequest(payload)
		if err != nil {
			putFrameBuf(payload)
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		tag, errResp := s.write(path, data, rw.shadow)
		putFrameBuf(payload)
		if errResp.Code != 0 {
			rw.sendError(id, errResp)
			return
		}
		rw.send(id, msgWriteOK, appendWriteOK(getEncodeBuf(), tag), true)
	case msgHandoff:
		req, err := decodeHandoffRequest(payload)
		putFrameBuf(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		s.handoff(req)
		rw.send(id, msgHandoffOK, nil, false)
	case msgViewPull:
		// Anti-entropy exchange: answer with our full view when we are at
		// least as new as the puller, otherwise just our epoch. Equal
		// epochs still ship the members: two operators racing the same
		// epoch mint produce divergent same-epoch views, and the puller
		// resolves the tie by view-content hash (internal/cluster) — which
		// it can only do if it sees our members. Either way the puller's
		// own epoch is noted, so if *it* is the newer side the view source
		// pulls back symmetrically. View frames are control-plane traffic
		// and count no request, like the handshake.
		epoch, sender, err := decodeViewMsg(payload)
		putFrameBuf(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		vs := s.cfg.Views
		if vs == nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: "no membership view"})
			return
		}
		vs.NoteViewEpoch(sender, epoch)
		ourEpoch, members := vs.ViewSnapshot()
		if ourEpoch >= epoch {
			rw.send(id, msgViewPush, appendViewPush(getEncodeBuf(), ourEpoch, vs.Self(), members), true)
			return
		}
		rw.send(id, msgViewHint, appendViewMsg(getEncodeBuf(), ourEpoch, vs.Self()), true)
	case msgViewPush:
		epoch, _, members, err := decodeViewPush(payload)
		putFrameBuf(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		vs := s.cfg.Views
		if vs == nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: "no membership view"})
			return
		}
		if _, aerr := vs.ApplyView(epoch, members); aerr != nil {
			// A stale push is applied=false with nil error and still acked
			// below — the pusher learns our (newer) epoch from the ack.
			// Only an invalid view is a request error.
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: aerr.Error()})
			return
		}
		rw.send(id, msgViewHint, appendViewMsg(getEncodeBuf(), vs.Epoch(), vs.Self()), true)
	default:
		putFrameBuf(payload)
		rw.sendError(id, errorResponse{
			Code:    CodeBadRequest,
			Message: fmt.Sprintf("unknown message type %d", typ),
		})
	}
	return
}

// armWrite starts the per-reply write deadline, so a peer that stops
// reading cannot wedge this handler once kernel buffers fill.
func (s *Server) armWrite(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// disconnect records an abnormal connection termination caused by a
// failed reply write (stalled reader, reset, ...).
func (s *Server) disconnect(conn net.Conn, err error) {
	s.m.disconnects.Add(1)
	s.logf("fsnet: %s: write: %v", conn.RemoteAddr(), err)
}

// write stores a whole-file update. Writes are write-through to the
// store, so later group replies pick the new contents up automatically
// (the server cache tracks identities, not bytes). Consistency across
// clients is last-writer-wins; like the paper's model, the system is
// read-mostly and provides no cross-client invalidation.
//
// path and data are views into the request's frame. The store is reached
// through the interner's string for a path it knows, so only the first
// write of a path no open has named allocates its key; that path is
// interned once the store has accepted it, and a rejected write interns
// nothing. The tag the store gave the contents goes back in the ack and,
// for a path the connection's shadow holds, into the shadow: the client
// refreshes its cached copy from the same pair.
func (s *Server) write(pathView, data []byte, sh *shadow) (uint64, errorResponse) {
	s.m.requests.Add(1)
	var path string
	id, known := s.ids.LookupBytes(pathView)
	if known {
		path = s.ids.Path(id)
	} else {
		path = string(pathView)
	}
	tag, err := s.store.put(path, data)
	if err != nil {
		return 0, errorResponse{Code: CodeBadRequest, Message: err.Error()}
	}
	if known {
		sh.wrote(id, tag)
	} else {
		s.ids.Intern(path)
	}
	return tag, errorResponse{}
}

// handoff installs one drained group from a departing peer: the anchor
// and its members are learned as a successor chain under a dedicated
// source context (so the transfer can never interleave with a live
// client stream's transitions), and the anchor is staged into the cache
// — the receiver serves the moved paths warm from its first open.
//
// The chain is first-order: anchor→m1→m2→…, which the group builder
// re-expands transitively, so a later BuildGroup(anchor) reproduces the
// departed owner's group shape up to the configured group size.
//
// Accounting keeps the documented Stats contract: the handoff counts
// one request, and the Serve below counts exactly one cache hit or
// group fetch, so Requests >= Hits + GroupFetches + RemoteOpens holds
// with equality at quiescence exactly as for opens.
func (s *Server) handoff(req handoffRequest) {
	s.m.requests.Add(1)
	chain := make([]trace.FileID, 0, 1+len(req.Members))
	chain = append(chain, s.ids.Intern(req.Anchor))
	for _, p := range req.Members {
		chain = append(chain, s.ids.Intern(p))
	}
	s.connMu.Lock()
	s.nextSrc++
	src := s.nextSrc
	s.connMu.Unlock()

	s.aggMu.Lock()
	s.agg.LearnFrom(src, chain...)
	s.agg.Serve(chain[0])
	// The transfer source is one-shot; drop its stream cursor so the id
	// space stays bounded by live connections.
	s.agg.Tracker().ForgetSource(src)
	s.aggMu.Unlock()
	s.m.handoffs.Add(1)
}

// ExportGroups snapshots the groups this server would serve right now
// for every interned path accepted by owned — each as its anchor plus
// learned members — skipping single-file groups (nothing learned to
// move). The cluster tier's Drain feeds each to the path's next owner
// via Client.Handoff. Pass nil to export every group.
func (s *Server) ExportGroups(owned func(path string) bool) []HandoffGroup {
	n := s.ids.Len()
	var out []HandoffGroup
	for i := 0; i < n; i++ {
		id := trace.FileID(i)
		path := s.ids.Path(id)
		if path == "" || (owned != nil && !owned(path)) {
			continue
		}
		s.aggMu.Lock()
		g := s.agg.BuildGroup(id)
		s.aggMu.Unlock()
		if len(g) <= 1 {
			continue
		}
		members := make([]string, 0, len(g)-1)
		for _, gid := range g[1:] {
			if p := s.ids.Path(gid); p != "" {
				members = append(members, p)
			}
		}
		if len(members) == 0 {
			continue
		}
		out = append(out, HandoffGroup{Anchor: path, Members: members})
	}
	return out
}

// openScratch carries the per-request working set of the open hot path:
// interned access IDs and the built group. Pooled so a steady-state open
// allocates none of it.
type openScratch struct {
	views [][]byte // piggybacked path views into the frame buffer
	ids   []trace.FileID
	// accessed is the piggybacked history as the interner's own strings,
	// for the router (whose interface carries strings across the cluster
	// tier); filled only on a routed server.
	accessed []string
	group    []trace.FileID
}

var openScratchPool = sync.Pool{New: func() interface{} { return new(openScratch) }}

// errRouteBlocks is openView's answer to the read loop when the open
// needs a peer round trip: nothing was counted, learned or released.
var errRouteBlocks = errors.New("fsnet: open needs a peer round trip")

// openView serves one open out of its frame: the demanded and
// piggybacked paths are interned as byte views straight out of the frame
// buffer — no request struct, no path strings, no Accessed slice — and
// the group is built in pooled scratch. A router sees the interner's own
// strings for the same paths, so a routed open decodes without
// allocating either. A non-nil error reports a malformed payload (the
// caller answers CodeBadRequest without counting a request) or, from the
// read loop only (inline), errRouteBlocks. The caller owns one reference
// to the returned group; lead indexes the demanded file in it.
//
// sh, the connection's shadow, is shown the piggybacked history exactly
// once per request that is answered — not by an inline attempt that ends
// in errRouteBlocks, which a worker repeats from the top.
func (s *Server) openView(payload []byte, src uint64, sh *shadow, tctx otrace.Ctx, inline bool) (g *Group, lead int, _ errorResponse, _ error) {
	sc := openScratchPool.Get().(*openScratch)
	defer openScratchPool.Put(sc)
	pathView, views, flags, err := parseOpenRequest(payload, sc.views[:0])
	sc.views = views
	if err != nil {
		return nil, 0, errorResponse{}, err
	}
	unvalidated := flags&openUnvalidated != 0

	var start time.Time
	timed := s.m.timed() || tctx.Sampled
	if timed {
		start = time.Now()
	}
	// Existence check before interning the demanded path, so nonexistent
	// ones never grow the ID space.
	exists := s.store.containsBytes(pathView)
	routed := s.cfg.Router != nil
	if !routed {
		s.m.requests.Add(1)
		if !exists {
			// The history this request carried is read by nobody.
			sh.note(&s.m, nil, len(sc.views) > 0, unvalidated)
			return nil, 0, errorResponse{Code: CodeNotFound, Message: string(pathView)}, nil
		}
	}
	sc.ids, sc.accessed = sc.ids[:0], sc.accessed[:0]
	lost := false
	for _, pv := range sc.views {
		// Like the demanded path, a piggybacked one gets an ID only if it
		// exists: history naming files the store never held is dropped, so
		// a client cannot grow the ID space or teach successor lists
		// members no group could carry. The store is consulted only for a
		// path the interner has not seen.
		aid, known := s.ids.LookupBytes(pv)
		if !known {
			if !s.store.containsBytes(pv) {
				lost = true
				continue
			}
			aid = s.ids.InternBytes(pv)
		}
		sc.ids = append(sc.ids, aid)
		if routed {
			sc.accessed = append(sc.accessed, s.ids.Path(aid))
		}
	}
	var id trace.FileID
	var path string
	if exists {
		id = s.ids.InternBytes(pathView)
		path = s.ids.Path(id) // the interned string: no per-request copy
	} else {
		path = string(pathView)
	}
	if routed {
		// The router comes first: a path another node owns is answered by
		// that node, present in the local store or not.
		g, lead, errResp, handled, blocks := s.routeOpen(path, sc.accessed, tctx, inline)
		if blocks {
			return nil, 0, errorResponse{}, errRouteBlocks
		}
		sh.note(&s.m, sc.ids, lost, unvalidated)
		if handled {
			if timed {
				s.observeServed(tctx, "forward", path, start)
			}
			return g, lead, errResp, nil
		}
		if !exists {
			return nil, 0, errorResponse{Code: CodeNotFound, Message: path}, nil
		}
	} else {
		sh.note(&s.m, sc.ids, lost, unvalidated)
	}
	g, errResp := s.serveOpen(id, path, src, sc, timed, start, tctx)
	return g, 0, errResp, nil
}

// serveOpen is the local tail of an open: learn the piggybacked
// transitions, stage the group through the aggregating cache, and read
// the members' contents. sc.ids holds the interned access history; the
// demanded id is appended to it.
func (s *Server) serveOpen(id trace.FileID, path string, src uint64, sc *openScratch, timed bool, start time.Time, tctx otrace.Ctx) (*Group, errorResponse) {
	// Piggybacked history first (oldest..newest), then the demanded
	// open, preserving the client's true access order: one call learns
	// the whole request.
	sc.ids = append(sc.ids, id)
	s.aggMu.Lock()
	s.agg.LearnFrom(src, sc.ids...)
	// Stage the group into the server memory cache; hit-or-miss selects
	// the latency phase below.
	hit := s.agg.Serve(id)
	sc.group = s.agg.AppendBuildGroup(sc.group[:0], id)
	s.aggMu.Unlock()

	g := s.stageGroup(sc.group)
	if g == nil {
		// The file vanished between the existence check and the staged
		// read; rare, and the learning above recorded a genuine access.
		return nil, errorResponse{Code: CodeNotFound, Message: path}
	}
	s.m.sent.Add(uint64(len(g.Files)))
	if timed {
		phase := "stage"
		if hit {
			phase = "hit"
		}
		s.observeServed(tctx, phase, path, start)
	}
	return g, errorResponse{}
}

// observeServed finishes one timed open: the phase span for a sampled
// trace (or a tail capture when an unsampled open crossed the slow
// threshold), then the latency histogram with the trace ID attached as
// the phase bucket's exemplar. Rendering the hex trace ID allocates, so
// untraced opens pass the empty string and stay on the plain path.
func (s *Server) observeServed(tctx otrace.Ctx, phase, path string, start time.Time) {
	d := time.Since(start)
	if tctx.Sampled {
		s.cfg.Trace.Record(tctx, phase, path, start, d)
		s.m.observeOpen(phase, path, d, tctx.TraceID())
		return
	}
	if s.cfg.Trace != nil && s.cfg.SlowRequest > 0 && d >= s.cfg.SlowRequest {
		ttx := s.cfg.Trace.Tail(phase, path, start, d)
		s.m.observeOpen(phase, path, d, ttx.TraceID())
		return
	}
	s.m.observeOpen(phase, path, d, "")
}

// routeOpen hands one open to the configured Router and counts the
// request once the router has answered. handled=false means the caller
// serves the request locally (the router declined: the path is locally
// owned, or its owner is down and the open degrades to a local fetch).
// inline asks the InlineRouter not to wait on a peer; blocks=true is its
// refusal, with nothing counted. A handled group comes with one reference
// for the caller: the InlineRouter's own, or a pooled container holding a
// plain router's files.
func (s *Server) routeOpen(path string, accessed []string, tctx otrace.Ctx, inline bool) (g *Group, lead int, errResp errorResponse, handled, blocks bool) {
	var err error
	switch {
	case s.iroute == nil:
		var files []GroupFile
		if files, handled, err = s.cfg.Router.RouteOpen(path, accessed); len(files) > 0 {
			g = NewGroup()
			g.Files = append(g.Files, files[:min(len(files), maxGroup)]...)
		}
	case inline:
		if g, lead, handled, blocks = s.iroute.TryRouteOpen(path, accessed, tctx); blocks {
			return nil, 0, errorResponse{}, false, true
		}
	default:
		g, lead, handled, err = s.iroute.RouteOpenTraced(path, accessed, tctx)
	}
	s.m.requests.Add(1)
	if handled && err == nil && (g == nil || len(g.Files) > maxGroup || lead < 0 || lead >= len(g.Files) || g.Files[lead].Path != path) {
		err = errors.New("router returned malformed group")
	}
	if g != nil && (!handled || err != nil) {
		g.Release()
	}
	switch {
	case !handled:
		return nil, 0, errorResponse{}, false, false
	case err == nil:
		s.m.remote.Add(1)
		s.m.sent.Add(uint64(len(g.Files)))
		return g, lead, errorResponse{}, true, false
	case errors.Is(err, ErrNotFound):
		return nil, 0, errorResponse{Code: CodeNotFound, Message: path}, true, false
	default:
		return nil, 0, errorResponse{Code: CodeInternal, Message: err.Error()}, true, false
	}
}

// stageGroup reads the built group — demanded file first — from the
// store into a pooled Group: the best-effort read of §3, so a member that
// has vanished is skipped and only a missing demanded file fails the open
// (nil).
//
// The contents are zero-copy references into the store (getRef), each with
// the tag the store gave it: Put
// replaces a path's slice wholesale, so a staged ref can never be
// mutated underneath the reply writer. The caller owns the group's one
// reference.
func (s *Server) stageGroup(group []trace.FileID) *Group {
	g := NewGroup()
	for i, gid := range group {
		p := s.ids.Path(gid)
		d, tag, ok := s.store.getRef(p)
		if ok {
			g.Files = append(g.Files, fileData{Path: p, Data: d, Tag: tag})
		} else if i == 0 {
			g.Release()
			return nil
		}
	}
	return g
}

// replyWriter serializes and batches the replies of one pipelined
// connection: handler goroutines enqueue completed replies, and a single
// writer goroutine drains whatever has accumulated in one write — so k
// ready replies cost one syscall, and a slow store read never blocks the
// replies queued behind it.
//
// The writer is scatter-gather: group replies are member streams whose
// frame headers and path metadata live in one pooled arena while the file
// contents ride as store references, and the whole batch goes to the
// socket in a single net.Buffers writev — the reply bytes are never
// assembled into a contiguous buffer.
type replyWriter struct {
	s    *Server
	conn net.Conn
	// shadow is the connection's replay of its client's cache, nil when the
	// hello asked for none: writeBatch consults it for every group reply.
	shadow *shadow

	mu      sync.Mutex
	queue   []reply
	free    []reply // recycled batch storage
	dead    bool
	stop    bool
	wake    chan struct{}
	stopped chan struct{}

	bufs net.Buffers // scatter-gather scratch, reused per batch

	// View-hint piggyback state, touched only by the loop goroutine: the
	// epoch last announced on this connection, so a stable view costs one
	// frame per connection rather than one per batch.
	sentAny   bool
	sentEpoch uint64
}

// reply is one queued reply: a single frame, or a streamed group.
type reply struct {
	id      uint64
	typ     uint8
	payload []byte
	// pooled marks a payload encoded into a frame-pool buffer; the
	// writer hands it back once the bytes are on the wire (or the write
	// side is dead).
	pooled bool
	// group, when non-nil, is a streamed group reply (typ and payload are
	// unused): one msgMemberChunk per file — group.Files[lead] first, then
	// the rest in order — plus a closing msgGroupEnd. The reply owns one
	// reference, released once the batch is written or dropped.
	group *Group
	lead  int
}

func newReplyWriter(s *Server, conn net.Conn, sh *shadow) *replyWriter {
	rw := &replyWriter{
		s:       s,
		conn:    conn,
		shadow:  sh,
		wake:    make(chan struct{}, 1),
		stopped: make(chan struct{}),
	}
	go rw.loop()
	return rw
}

// sendError enqueues an error reply and counts it.
func (rw *replyWriter) sendError(id uint64, errResp errorResponse) {
	rw.s.m.errors.Add(1)
	rw.send(id, msgError, appendErrorResponse(getEncodeBuf(), errResp), true)
}

// send enqueues one reply frame for the writer goroutine.
func (rw *replyWriter) send(id uint64, typ uint8, payload []byte, pooled bool) {
	rw.enqueue(reply{id: id, typ: typ, payload: payload, pooled: pooled})
}

// sendGroup enqueues one streamed group reply, taking over the caller's
// reference to g.
func (rw *replyWriter) sendGroup(id uint64, g *Group, lead int) {
	rw.enqueue(reply{id: id, group: g, lead: lead})
}

func (rw *replyWriter) enqueue(rep reply) {
	rw.mu.Lock()
	if rw.dead {
		rw.mu.Unlock()
		rep.drop()
		return
	}
	rw.queue = append(rw.queue, rep)
	rw.mu.Unlock()
	select {
	case rw.wake <- struct{}{}:
	default:
	}
}

// drainAndStop flushes any remaining replies and waits for the writer
// goroutine to exit. Called after every handler has completed.
func (rw *replyWriter) drainAndStop() {
	rw.mu.Lock()
	rw.stop = true
	rw.mu.Unlock()
	select {
	case rw.wake <- struct{}{}:
	default:
	}
	<-rw.stopped
}

func (rw *replyWriter) loop() {
	defer close(rw.stopped)
	for range rw.wake {
		for {
			rw.mu.Lock()
			batch := rw.queue
			// Hand the previous batch's storage back so steady-state
			// batching reallocates nothing.
			rw.queue = rw.free[:0]
			rw.free = nil
			dead, stopped := rw.dead, rw.stop
			rw.mu.Unlock()
			if dead {
				rw.recycle(batch)
				return
			}
			if len(batch) == 0 {
				rw.recycle(batch)
				if stopped {
					return
				}
				break
			}
			rw.s.armWrite(rw.conn)
			err := rw.writeBatch(batch)
			rw.recycle(batch)
			if err != nil {
				rw.fail(err)
				return
			}
		}
	}
}

// writeBatch puts one batch on the wire: frame headers and chunk
// metadata accumulate in one pooled arena, file contents are referenced
// in place, and the whole batch leaves in a single net.Buffers write.
// Arena growth may reallocate its backing array, but segments already
// recorded in bufs keep pointing at the old array's (immutable) bytes,
// so earlier frames are never corrupted.
func (rw *replyWriter) writeBatch(batch []reply) error {
	arena := getEncodeBuf()
	bufs := rw.bufs[:0]
	// Piggyback the membership epoch ahead of the batch when a view
	// source is wired: one msgViewHint under request ID 0 (request IDs
	// start at 1), re-sent only when the epoch changes. Without Views
	// this is a single nil check — the hit path stays alloc-free.
	if vs := rw.s.cfg.Views; vs != nil {
		if epoch := vs.Epoch(); !rw.sentAny || epoch != rw.sentEpoch {
			scratch := appendViewMsg(getEncodeBuf(), epoch, vs.Self())
			start := len(arena)
			arena = appendFrameID(arena, msgViewHint, 0, scratch)
			bufs = append(bufs, arena[start:])
			putFrameBuf(scratch)
			rw.sentAny, rw.sentEpoch = true, epoch
		}
	}
	for i := range batch {
		rep := &batch[i]
		if rep.group != nil {
			// The demanded file leads, the rest follow in arrival order —
			// each in full unless the connection's shadow shows the client
			// holding it at this very tag. Staged, mirrored and forwarded
			// groups all come through here.
			files := rep.group.Files
			held := rw.shadow.install(rw.s.ids, files, rep.lead)
			for k := range files {
				i := wireOrder(k, rep.lead)
				skip := held&(1<<i) != 0
				if skip {
					rw.s.m.validated.Inc()
					rw.s.m.validatedBytes.Add(uint64(len(files[i].Data)))
				}
				arena, bufs = appendMemberChunk(arena, bufs, rep.id, files[i], skip)
			}
			var cnt [10]byte // uvarint member count
			n := binary.PutUvarint(cnt[:], uint64(len(files)))
			start := len(arena)
			arena = appendFrameID(arena, msgGroupEnd, rep.id, cnt[:n])
			bufs = append(bufs, arena[start:])
			continue
		}
		start := len(arena)
		arena = appendFrameID(arena, rep.typ, rep.id, rep.payload)
		bufs = append(bufs, arena[start:])
	}
	// WriteTo consumes its receiver (and may rewrite elements on partial
	// writes), so give it the scratch directly and re-truncate next
	// batch; the element values are disposable.
	rw.bufs = bufs
	_, err := rw.bufs.WriteTo(rw.conn)
	rw.bufs = bufs[:0]
	putFrameBuf(arena)
	return err
}

// appendMemberChunk adds one member to a batch: its chunk header in the
// arena and, unless the client holds it (held), its contents referenced
// where they lie.
func appendMemberChunk(arena []byte, bufs net.Buffers, id uint64, f fileData, held bool) ([]byte, net.Buffers) {
	start := len(arena)
	arena = appendMemberChunkHdr(arena, id, f.Path, f.Tag, len(f.Data), held)
	if bufs = append(bufs, arena[start:]); !held {
		bufs = append(bufs, f.Data)
	}
	return arena, bufs
}

// drop gives up what a reply holds — its pooled payload, its reference
// to its group — once it is on the wire or will never be.
func (rep *reply) drop() {
	if rep.pooled {
		putFrameBuf(rep.payload)
	}
	if rep.group != nil {
		rep.group.Release()
	}
	*rep = reply{}
}

// recycle drops a batch that has been written, or never will be, and
// offers its storage back for the next drain.
func (rw *replyWriter) recycle(batch []reply) {
	for i := range batch {
		batch[i].drop()
	}
	rw.mu.Lock()
	if rw.free == nil || cap(batch) > cap(rw.free) {
		rw.free = batch[:0]
	}
	rw.mu.Unlock()
}

// fail marks the write side dead after an I/O failure, drops the replies
// queued behind the failed batch, and closes the connection so the read
// loop unblocks; counted once as a disconnect.
func (rw *replyWriter) fail(err error) {
	rw.mu.Lock()
	rw.dead = true
	queued := rw.queue
	rw.queue = nil
	rw.mu.Unlock()
	for i := range queued {
		queued[i].drop()
	}
	rw.s.disconnect(rw.conn, err)
	_ = rw.conn.Close()
}
