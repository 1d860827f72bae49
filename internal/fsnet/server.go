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

// ServerConfig parameterizes a file server.
type ServerConfig struct {
	// GroupSize caps the retrieval group size g (default 5); a group stops
	// earlier where its links are weak (core.LinkShare).
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
	// wedge its connection's read loop (the write deadline is re-armed
	// per reply batch). Zero disables the bound.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections. Excess connections
	// are rejected gracefully: the server sends msgError with CodeBusy
	// and closes. Zero means unlimited.
	MaxConns int
	// Router, when set, is consulted before any open is served from the
	// local cache and store, on the connection's read loop: when RouteOpen
	// reports the request handled, its files become the reply verbatim and
	// the local metadata, cache, and store are left untouched; when it
	// reports the request unhandled the server serves it locally as usual.
	// A cluster node (internal/cluster) declines every open, since its
	// clients send each miss to the path's owner.
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
	// Views, when set, wires the node's membership view into the serving
	// path: the hello and reply batches carry its epoch (a msgViewHint,
	// once per epoch per connection), so owner-direct clients follow
	// view changes, and msgViewPull/msgViewPush (internal/gossip) are
	// served.
	// Nil answers view frames with CodeBadRequest and keeps the reply
	// stream byte-identical to a pre-gossip server.
	Views ViewSource
}

// OpenRouter answers open requests in the server's place: it may supply
// the whole group for a path or decline it to the server's own store.
// Implementations must be safe for concurrent use: RouteOpen is called on
// each connection's read loop, outside every server lock. A router that
// blocks stalls only its own connection, whose later requests wait their
// turn in request order.
type OpenRouter interface {
	// RouteOpen resolves path into its group — demanded file first — or
	// reports handled=false to have the server stage the group from its
	// own store. accessed is the client's piggybacked access history,
	// which the server learns only when it serves the open itself; it is
	// the connection's scratch, valid only until RouteOpen returns,
	// though the strings in it (and path) may be kept. The server copies
	// the returned slice's elements into its reply and never writes
	// through them; the contents must stay unchanged until the reply is on
	// the wire, which a router cannot observe — so they are the router's
	// to leave to the collector, never to reuse. A handled error is returned to the client: ErrNotFound maps
	// to CodeNotFound, anything else to CodeInternal.
	RouteOpen(path string, accessed []string) (files []GroupFile, handled bool, err error)
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
	// stagings (the store is an in-memory map; DESIGN.md §4). The field
	// stays only until the repository benchmark stops reading it.
	CoalescedStages uint64
	// RemoteOpens counts open requests answered by the configured Router
	// (the cluster peer tier) rather than by the local cache and store.
	RemoteOpens uint64
	// StreamedGroups counts successful group replies, each delivered as a
	// member stream (msgMemberChunk frames closed by msgGroupEnd).
	StreamedGroups uint64
	// ValidatedMembers counts group members sent header-only because the
	// connection's residency table showed the client holding them unchanged
	// (they are counted in FilesSent too); ValidatedBytesSaved sums the
	// contents that therefore stayed off the wire — the redundant bytes per
	// group fetch, live.
	ValidatedMembers    uint64
	ValidatedBytesSaved uint64
	// PeerHintsReceived counts the paths of the stage hints this node's
	// peers sent it, staged or not; PeerHintHits counts the demand hits on
	// files such a hint placed, each before its eviction.
	PeerHintsReceived uint64
	PeerHintHits      uint64
	// Cache is the server memory cache accounting (hits are requests
	// served without staging from the store).
	Cache core.Stats
}

// Server is the remote file server of Figure 2: it owns the relationship
// metadata, answers opens with groups, and keeps its own aggregating
// memory cache in front of the store.
//
// The serving path is sharded so concurrent requests mostly avoid each
// other (see DESIGN.md §4): counters are atomics, the path interner has
// a read-lock fast path for known paths, store reads happen outside any
// server lock, and only the successor-table update plus cache admission
// sit under the short aggMu critical section — the one server-wide mutex
// a locally served open takes: once to build its reply, and once more
// after the reply is flushed, to learn the history it carried and stage
// its deep group. At most one answered open, server-wide, waits for that
// second step (unstaged), and every aggMu section finishes it first
// (lockAgg), so the cache sees the opens of all connections in the order
// it answered them: with any number of connections, the sequential model
// of simulate.RunServerMulti.
type Server struct {
	cfg    ServerConfig
	store  *Store
	logger *log.Logger

	// Hot counters; atomic (obs.Counter wraps one atomic each) so
	// concurrent handlers never contend. With cfg.Obs these are the very
	// series /metrics exposes, so Stats and the exposition cannot drift.
	m serverMetrics

	// ids translates paths to dense FileIDs and back; internally
	// read-write locked with a fast path for already-known paths.
	ids *trace.SyncInterner

	// aggMu guards the aggregating cache: successor learning, residency
	// bookkeeping, and group building. Never held across store or
	// network I/O. Every section takes it through lockAgg.
	aggMu sync.Mutex
	agg   *core.AggregatingCache
	// unstaged is the last open ServeFrom answered, if Stage has not yet
	// finished it; it points into the scratch of the connection that
	// served it. Guarded by aggMu.
	unstaged *openScratch
	// own, with Views, is which files this node owns: Stage keeps only
	// those (ownership). Guarded by aggMu.
	own *ownership

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
		LinkShare:         core.LinkShare,
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
	if cfg.Views != nil {
		s.own = &ownership{views: cfg.Views, ids: s.ids}
	}
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
// Close; called after Close, it closes l and returns an error.
func (s *Server) Serve(l net.Listener) error {
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		_ = l.Close()
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
		// Counted under connMu, so Close's wait covers every goroutine.
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.wg.Add(1)
			s.connMu.Unlock()
			s.m.rejected.Add(1)
			go func() {
				defer s.wg.Done()
				s.rejectConn(conn)
			}()
			continue
		}
		s.conns[conn] = struct{}{}
		s.nextSrc++
		src := s.nextSrc
		s.wg.Add(1)
		s.connMu.Unlock()

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

// Close stops accepting, closes live connections, and waits for their
// read loops to finish.
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
// Cache includes the staging of every open answered before the call.
func (s *Server) Stats() ServerStats {
	s.lockAgg()
	cacheStats, hintHits := s.agg.Stats(), s.agg.PeerHintHits()
	s.aggMu.Unlock()
	st := ServerStats{
		Errors:         s.m.errors.Load(),
		FilesSent:      s.m.sent.Load(),
		Rejected:       s.m.rejected.Load(),
		Panics:         s.m.panics.Load(),
		Disconnects:    s.m.disconnects.Load(),
		RemoteOpens:    s.m.remote.Load(),
		StreamedGroups: s.m.streamed.Load(),
		Cache:          cacheStats,

		ValidatedMembers:    s.m.validated.Load(),
		ValidatedBytesSaved: s.m.validatedBytes.Load(),
		PeerHintsReceived:   s.m.peerHints.Load(),
		PeerHintHits:        hintHits,
	}
	// Last, so its value bounds every per-outcome counter read above.
	st.Requests = s.m.requests.Load()
	return st
}

func (s *Server) forget(conn net.Conn, src uint64) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
	s.lockAgg()
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
	if s.handshake(conn, r) {
		s.serve(&replyWriter{s: s, conn: conn}, r, src)
	}
}

// handshake reads the connection's first frame, which must be a msgHello
// offering at least protocolVersion, and answers msgHelloOK with the
// server's view epoch, which tells a client whether there is a ring to
// pull. Anything else — another message type, a malformed hello, an older
// version — is refused with one bare-framed msgError, and the caller
// closes.
func (s *Server) handshake(conn net.Conn, r *bufio.Reader) (ok bool) {
	// serve recovers its own panics and owns the write side from its first
	// reply on; this recovery covers the handshake alone.
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			s.logf("fsnet: %s: recovered handshake panic: %v", conn.RemoteAddr(), p)
			s.refuse(conn, CodeInternal, "internal server error")
			ok = false
		}
	}()
	if !s.armIdle(conn) {
		return false
	}
	typ, payload, err := readFrame(r)
	if err != nil {
		s.readFailed(conn, err)
		return false
	}
	var refusal string
	if typ != msgHello {
		refusal = fmt.Sprintf("expected a protocol hello, got message type %d", typ)
	} else if offered, _, err := decodeHello(payload); err != nil {
		refusal = err.Error()
	} else if offered < protocolVersion {
		refusal = fmt.Sprintf("protocol version %d is not supported, need %d", offered, protocolVersion)
	}
	if refusal != "" {
		s.refuse(conn, CodeBadRequest, refusal)
		return false
	}
	var epoch uint64
	if s.cfg.Views != nil {
		epoch = s.cfg.Views.Epoch()
	}
	s.armWrite(conn)
	if err := writeHello(conn, msgHelloOK, protocolVersion, epoch); err != nil {
		s.disconnect(conn, err)
		return false
	}
	return true
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

// serve is the pipelined loop: one goroutine per connection reads each
// request, serves it and queues its reply, so a connection's requests run
// in the order they were sent (DESIGN.md §4). Each request is read into
// the one buffer the connection keeps, rw.req, and is done with before the
// next read. Nothing on the serving path waits on a peer — opens, writes
// and view frames touch only the server's own cache, store and view — so
// the read loop never blocks on anything but its socket, and a
// goroutine hand-off would only add two scheduler hops per request. The
// replies queued since the last read are flushed before a read that could
// block, so a pipelined burst leaves in one write. Only then is the
// server's unstaged open finished (lockAgg): the metadata learns the
// history it carried, unless learning it could have changed its reply
// (ServeFrom), and its deep group is staged, so no reply waits for
// either; whichever aggMu section comes first — any connection's next
// open included — finishes it instead. A malformed request payload fails
// only its own request; the framed stream stays intact, so the
// connection keeps serving.
func (s *Server) serve(rw *replyWriter, r *bufio.Reader, src uint64) {
	conn := rw.conn
	defer rw.flush()
	// A panic in the read loop itself (as opposed to in a handler, which
	// recovers per request) must not skip the flush above.
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			s.logf("fsnet: %s: recovered read-loop panic: %v", conn.RemoteAddr(), p)
		}
	}()
	// Pending inbound trace context: the peer's writer emits each
	// msgTraceCtx immediately before the request frame it annotates, so a
	// single pending pair (cleared at the next request) suffices.
	var pendID uint64
	var pendCtx otrace.Ctx
	for {
		if !frameBuffered(r) {
			rw.flush()
			s.lockAgg()
			s.aggMu.Unlock()
		}
		if !s.armIdle(conn) {
			return
		}
		typ, id, payload, err := readFrameID(r, rw.req)
		if err != nil {
			s.readFailed(conn, err)
			return
		}
		rw.req = keepBuf(rw.req, payload)
		if typ == msgTraceCtx {
			// Trace-context piggyback for the next request frame.
			// Advisory: undecodable contexts (or any arriving at an
			// untraced server) are dropped, never answered.
			if s.cfg.Trace != nil {
				if tid, wctx, derr := decodeTraceCtx(payload); derr == nil {
					pendID, pendCtx = tid, wctx
				}
			}
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
		}
		s.serveRequest(rw, src, typ, id, payload, tctx)
	}
}

// lockAgg takes aggMu and finishes the server's unstaged open, if there
// is one: core.AggregatingCache.Stage learns what its history still owes
// the metadata and stages its deep group — on a node of a ring, the
// members this node owns, and the rest go to their owners as stage hints
// (ownership.hint). Every aggMu section starts with it, so the next
// request any connection serves, and every snapshot, sees the cache as
// every open answered before it left it.
func (s *Server) lockAgg() {
	s.aggMu.Lock()
	sc := s.unstaged
	if sc == nil {
		return
	}
	own := s.owner()
	s.agg.Stage(sc.src, sc.served, sc.group, sc.hit, sc.owed, own)
	s.unstaged = nil
	if own != nil {
		s.own.hint(s.agg.Unowned(), s.agg.Probation(own))
	}
}

// owner returns the core.Owner staging runs under: nil without a view or
// with a view of this node alone. Called with aggMu held.
func (s *Server) owner() core.Owner {
	if s.own == nil {
		return nil
	}
	return s.own.current()
}

// frameBuffered reports whether r holds a whole request-ID frame, so that
// reading it cannot block.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 4 {
		return false
	}
	hdr, _ := r.Peek(4)
	return r.Buffered()-4 >= int(binary.BigEndian.Uint32(hdr))
}

// serveRequest handles one pipelined request and queues its reply. A
// panic is recovered here, converted into a CodeInternal reply for this
// request only, and the connection keeps serving.
func (s *Server) serveRequest(rw *replyWriter, src uint64, typ uint8, id uint64, payload []byte, tctx otrace.Ctx) {
	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Add(1)
			s.logf("fsnet: recovered handler panic: %v", p)
			rw.sendError(id, errorResponse{Code: CodeInternal, Message: "internal server error"})
		}
	}()
	switch typ {
	case msgOpen:
		// The demanded and piggybacked paths are interned straight out of
		// the request's frame — no path strings, no Accessed slice — the
		// group is built in the connection's scratch, and its members are
		// staged on the reply writer from start on.
		start := len(rw.staged)
		errResp, err := s.openView(payload, src, rw, tctx)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		if errResp.Code != 0 {
			rw.sendError(id, errResp)
			return
		}
		s.m.streamed.Add(1)
		rw.sendGroup(id, start)
	case msgWrite:
		path, data, err := parseWriteRequest(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		tag, errResp := s.write(path, data)
		if errResp.Code != 0 {
			rw.sendError(id, errResp)
			return
		}
		start := rw.frame(id, msgWriteOK)
		rw.send(appendWriteOK(rw.arena, tag), start)
	case msgViewPull:
		// Anti-entropy exchange: answer with our full view whatever the
		// puller holds. Equal epochs must ship the members too: two
		// operators racing the same epoch mint produce divergent
		// same-epoch views, and the puller resolves the tie by
		// view-content hash (internal/cluster). The request's epoch and
		// sender are ignored. View frames are control-plane traffic and
		// count no request, like the handshake.
		_, _, err := decodeViewMsg(payload)
		if err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		vs := s.cfg.Views
		if vs == nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: "no membership view"})
			return
		}
		epoch, members := vs.ViewSnapshot()
		start := rw.frame(id, msgViewPush)
		rw.send(appendViewPush(rw.arena, epoch, vs.Self(), members), start)
	case msgViewPush:
		epoch, _, members, err := decodeViewPush(payload)
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
		start := rw.frame(id, msgViewHint)
		rw.send(appendViewMsg(rw.arena, vs.Epoch(), vs.Self()), start)
	case msgPeerHint:
		// A peer's stage hint: advice, control-plane traffic like the
		// view frames, so it counts no request.
		if err := s.stageHint(&rw.scratch, payload); err != nil {
			rw.sendError(id, errorResponse{Code: CodeBadRequest, Message: err.Error()})
			return
		}
		rw.send(rw.arena, rw.frame(id, msgPeerHintOK))
	default:
		rw.sendError(id, errorResponse{
			Code:    CodeBadRequest,
			Message: fmt.Sprintf("unknown message type %d", typ),
		})
	}
}

// armWrite starts the per-reply write deadline, so a peer that stops
// reading cannot wedge the read loop once kernel buffers fill.
func (s *Server) armWrite(conn net.Conn) {
	if s.cfg.WriteTimeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	}
}

// disconnect records an abnormal connection termination caused by a
// failed reply write (stalled reader, reset, ...). A write that failed
// because the server closed the connection (Close) is no disconnect, as
// in readFailed.
func (s *Server) disconnect(conn net.Conn, err error) {
	if errors.Is(err, net.ErrClosed) {
		return
	}
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
// nothing. The tag the store gave the contents goes back in the ack: the
// client refreshes its cached copy from it and reports the new pair with
// its next open.
func (s *Server) write(pathView, data []byte) (uint64, errorResponse) {
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
	if !known {
		s.ids.Intern(path)
	}
	return tag, errorResponse{}
}

// openScratch carries the per-request working set of the open hot path:
// interned access IDs and the built group. Each connection keeps one, so a
// steady-state open allocates none of it.
type openScratch struct {
	views  [][]byte      // piggybacked path views into the request's frame
	gap    bool          // the client shed history older than views
	report []reportEntry // the residency report, as views into the frame
	ids    []trace.FileID
	// served is the connection's last open — its history and demanded
	// file, oldest first — with src, its source, and hit and owed, what
	// ServeFrom answered. While the server's unstaged open is this one,
	// lockAgg stages it from these; only aggMu sections write them.
	served    []trace.FileID
	src       uint64
	hit, owed bool
	// accessed is the piggybacked history as the interner's own strings,
	// for the router (whose interface carries strings across the cluster
	// tier); filled only on a routed server.
	accessed []string
	group    []trace.FileID
}

// openView serves one open out of its frame: the demanded and
// piggybacked paths are interned as byte views straight out of the frame
// buffer — no request struct, no path strings, no Accessed slice — and
// the group is built in the connection's scratch. A router sees the
// interner's own strings for the same paths, so a routed open decodes
// without allocating either. A non-nil error reports a malformed payload (the
// caller answers CodeBadRequest without counting a request). An open
// answered with its group leaves the members staged at the end of
// rw.staged, the demanded file first; any other answer stages nothing.
//
// rw's residency table takes the request's report before anything is
// answered.
func (s *Server) openView(payload []byte, src uint64, rw *replyWriter, tctx otrace.Ctx) (errorResponse, error) {
	sc := &rw.scratch
	pathView, views, gap, report, err := parseOpenRequest(payload, sc.views[:0], sc.report[:0])
	sc.views, sc.report, sc.gap = views, report, gap
	if err != nil {
		return errorResponse{}, err
	}
	rw.res.apply(s, report)

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
			return errorResponse{Code: CodeNotFound, Message: string(pathView)}, nil
		}
	}
	sc.ids, sc.accessed = sc.ids[:0], sc.accessed[:0]
	for _, pv := range sc.views {
		// Like the demanded path, a piggybacked one gets an ID only if it
		// exists: history naming files the store never held is dropped, so
		// a client cannot grow the ID space or teach successor lists
		// members no group could carry. The store is consulted only for a
		// path the interner has not seen.
		aid, known := s.ids.LookupBytes(pv)
		if !known {
			if !s.store.containsBytes(pv) {
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
		errResp, handled := s.routeOpen(rw, path, sc.accessed)
		if handled {
			if timed {
				s.observeServed(tctx, "forward", path, start)
			}
			return errResp, nil
		}
		if !exists {
			return errorResponse{Code: CodeNotFound, Message: path}, nil
		}
	}
	return s.serveOpen(rw, id, path, src, sc, timed, start, tctx), nil
}

// stageHint stages a peer's stage hint (msgPeerHint): the paths this node
// holds and owns under its own view — views may disagree for an epoch, so
// the sender's word is not taken — in the order sent, through
// core.AggregatingCache.StageHint, after the server's unstaged open
// (lockAgg). Paths are interned straight out of the frame, as an open's
// are; one the store never held is dropped.
func (s *Server) stageHint(sc *openScratch, payload []byte) error {
	views, err := parsePeerHint(payload, sc.views[:0])
	sc.views = views
	if err != nil {
		return err
	}
	s.m.peerHints.Add(uint64(len(views)))
	sc.ids = sc.ids[:0]
	for _, pv := range views {
		id, known := s.ids.LookupBytes(pv)
		if !known {
			if !s.store.containsBytes(pv) {
				continue
			}
			id = s.ids.InternBytes(pv)
		}
		sc.ids = append(sc.ids, id)
	}
	s.lockAgg()
	defer s.aggMu.Unlock()
	own := s.owner()
	if own != nil {
		owned := sc.ids[:0]
		for _, id := range sc.ids {
			if own.Owns(id) {
				owned = append(owned, id)
			}
		}
		sc.ids = owned
	}
	s.agg.StageHint(sc.ids, own)
	return nil
}

// serveOpen is the local tail of an open: answer it through the
// aggregating cache and read the reply's members onto rw. sc.ids holds the
// interned access history. The reply is built without learning the
// history unless learning could change it; the open is left as the
// server's unstaged one, and the learning and the staging of its deep
// group wait for the next aggMu section (lockAgg): the read loop's, once
// the reply is flushed (serve), or any connection's next open.
func (s *Server) serveOpen(rw *replyWriter, id trace.FileID, path string, src uint64, sc *openScratch, timed bool, start time.Time, tctx otrace.Ctx) errorResponse {
	s.lockAgg()
	if sc.gap {
		// The client shed history older than this request's: what this
		// connection's server learned last does not precede its first
		// entry.
		s.agg.Tracker().ForgetSource(src)
	}
	// Piggybacked history first (oldest..newest), then the demanded
	// open, preserving the client's true access order.
	sc.served = append(append(sc.served[:0], sc.ids...), id)
	sc.group, sc.hit, sc.owed = s.agg.ServeFrom(sc.group[:0], src, sc.served)
	sc.src = src
	s.unstaged = sc
	// hit-or-miss selects the latency phase below.
	hit := sc.hit
	s.aggMu.Unlock()

	n := s.stageGroup(rw, sc.group)
	if n == 0 {
		// The file vanished between the existence check and the staged
		// read; rare, and the accesses the request carried are genuine
		// all the same, so they are learned.
		return errorResponse{Code: CodeNotFound, Message: path}
	}
	s.m.sent.Add(uint64(n))
	if timed {
		phase := "stage"
		if hit {
			phase = "hit"
		}
		s.observeServed(tctx, phase, path, start)
	}
	return errorResponse{}
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
// owned, or its owner is down and the open degrades to a local fetch). A
// handled group's files are copied onto rw, each with its path interned.
func (s *Server) routeOpen(rw *replyWriter, path string, accessed []string) (errResp errorResponse, handled bool) {
	files, handled, err := s.cfg.Router.RouteOpen(path, accessed)
	s.m.requests.Add(1)
	switch {
	case !handled:
		return errorResponse{}, false
	case err == nil && (len(files) == 0 || files[0].Path != path):
		return errorResponse{Code: CodeInternal, Message: "router returned malformed group"}, true
	case err == nil:
		files = files[:min(len(files), maxGroup)]
		for _, f := range files {
			rw.staged = append(rw.staged, member{GroupFile: f, id: s.ids.Intern(f.Path)})
		}
		s.m.remote.Add(1)
		s.m.sent.Add(uint64(len(files)))
		return errorResponse{}, true
	case errors.Is(err, ErrNotFound):
		return errorResponse{Code: CodeNotFound, Message: path}, true
	default:
		return errorResponse{Code: CodeInternal, Message: err.Error()}, true
	}
}

// stageGroup reads the built group — demanded file first — from the
// store onto rw and returns how many members it staged: the best-effort
// read of §3, so a member that has vanished is skipped and only a missing
// demanded file fails the open (0, nothing staged).
//
// The contents are zero-copy references into the store (getRef), each with
// the tag the store gave it: Put replaces a path's slice wholesale, so a
// staged ref can never be mutated underneath the reply writer.
func (s *Server) stageGroup(rw *replyWriter, group []trace.FileID) int {
	start := len(rw.staged)
	for i, gid := range group {
		p := s.ids.Path(gid)
		d, tag, ok := s.store.getRef(p)
		if ok {
			rw.staged = append(rw.staged, member{GroupFile: GroupFile{Path: p, Data: d, Tag: tag}, id: gid})
		} else if i == 0 {
			return 0
		}
	}
	return len(rw.staged) - start
}

// member is one staged member of a group reply: the file, and the FileID
// its group was built with.
type member struct {
	GroupFile
	id trace.FileID
}

// replyWriter batches the replies of one pipelined connection, and keeps
// the rest of the connection's state its read loop needs. Only that loop
// touches it: each request queues its reply, and the read loop flushes
// before a read that could block, so k replies ready together cost one
// syscall.
//
// The write is scatter-gather: every frame header, small reply and chunk
// header is encoded into the writer's own arena, while the file contents
// ride as store references, and the whole batch goes to the socket in a
// single net.Buffers writev — the reply bytes are never assembled into a
// contiguous buffer.
type replyWriter struct {
	s    *Server
	conn net.Conn
	// res is the connection's table of what its client holds: writeBatch
	// consults it for every group reply.
	res residency
	// req is the buffer the read loop reads each request into, and scratch
	// the open path's working set.
	req     []byte
	scratch openScratch

	queue []reply
	dead  bool
	// staged holds the members of the queued group replies, each reply a
	// window into it; arena holds the encoded frames of the queued replies
	// and then the batch's chunk headers. flush empties both for the next
	// batch.
	staged []member
	arena  []byte

	// The scatter-gather scratch, reused per batch, and the view-hint
	// piggyback state — the epoch last announced on this connection, so a
	// stable view costs one frame per connection rather than one per batch.
	bufs      net.Buffers
	sentAny   bool
	sentEpoch uint64
}

// reply is one queued reply: a single frame, or a streamed group.
type reply struct {
	// A group reply is one msgMemberChunk per member of staged[lo:hi], in
	// order — the demanded file first — plus the closing msgGroupEnd, all
	// under id. Any other reply is the complete frame arena[lo:hi].
	id     uint64
	group  bool
	lo, hi int
}

// sendError queues an error reply and counts it.
func (rw *replyWriter) sendError(id uint64, errResp errorResponse) {
	rw.s.m.errors.Add(1)
	start := rw.frame(id, msgError)
	rw.send(appendErrorResponse(rw.arena, errResp), start)
}

// frame starts one frame at the end of the arena and returns where it
// starts. The caller appends the payload to rw.arena and closes the frame
// with end, or with send to queue it as a reply.
func (rw *replyWriter) frame(id uint64, typ uint8) (start int) {
	start = len(rw.arena)
	rw.arena = startFrameID(rw.arena, typ, id)
	return start
}

// end closes the frame begun at start; arena is the arena with its payload
// appended. It returns the frame.
func (rw *replyWriter) end(arena []byte, start int) []byte {
	rw.arena = arena
	endFrameID(arena[start:])
	return arena[start:]
}

// send closes the frame begun at start and queues it as a reply.
func (rw *replyWriter) send(arena []byte, start int) {
	rw.end(arena, start)
	rw.enqueue(reply{lo: start, hi: len(arena)})
}

// sendGroup queues one streamed group reply: the members staged from lo
// on.
func (rw *replyWriter) sendGroup(id uint64, lo int) {
	rw.enqueue(reply{id: id, group: true, lo: lo, hi: len(rw.staged)})
}

func (rw *replyWriter) enqueue(rep reply) {
	if rw.dead {
		// Nothing is queued on a dead writer, so nothing staged or
		// encoded is needed.
		rw.arena = rw.arena[:0]
		rw.unstage()
		return
	}
	rw.queue = append(rw.queue, rep)
}

// unstage drops every staged member, so the reused storage pins no
// store contents.
func (rw *replyWriter) unstage() {
	clear(rw.staged)
	rw.staged = rw.staged[:0]
}

// flush writes the queued replies in one batch. A failed write marks the
// write side dead, so later replies are dropped as they are queued, and
// closes the connection, so the read loop's next read fails; counted once
// as a disconnect.
func (rw *replyWriter) flush() {
	if len(rw.queue) == 0 {
		return
	}
	rw.s.armWrite(rw.conn)
	err := rw.writeBatch(rw.queue)
	rw.queue = rw.queue[:0]
	rw.unstage()
	rw.arena = keepBuf(nil, rw.arena)
	if err != nil {
		rw.dead = true
		rw.s.disconnect(rw.conn, err)
		_ = rw.conn.Close()
	}
}

// writeBatch puts one batch on the wire: chunk headers join the queued
// frames in the arena, file contents are referenced in place, and the
// whole batch leaves in a single net.Buffers write. Arena growth may
// reallocate its backing array, but segments already recorded in bufs
// keep pointing at the old array's (immutable) bytes, so earlier frames
// are never corrupted.
func (rw *replyWriter) writeBatch(batch []reply) error {
	bufs := rw.bufs[:0]
	// Piggyback the membership epoch ahead of the batch when a view
	// source is wired: one msgViewHint under request ID 0 (request IDs
	// start at 1), re-sent only when the epoch changes. Without Views
	// this is a single nil check — the hit path stays alloc-free.
	if vs := rw.s.cfg.Views; vs != nil {
		if epoch := vs.Epoch(); !rw.sentAny || epoch != rw.sentEpoch {
			start := rw.frame(0, msgViewHint)
			bufs = append(bufs, rw.end(appendViewMsg(rw.arena, epoch, vs.Self()), start))
			rw.sentAny, rw.sentEpoch = true, epoch
		}
	}
	for _, rep := range batch {
		if !rep.group {
			bufs = append(bufs, rw.arena[rep.lo:rep.hi])
			continue
		}
		// The demanded file leads, the rest follow in arrival order — each
		// in full unless the connection's residency table shows the client
		// holding it at this very tag.
		files := rw.staged[rep.lo:rep.hi]
		held := rw.res.send(files)
		for k := range files {
			skip := held&(1<<k) != 0
			if skip {
				rw.s.m.validated.Inc()
				rw.s.m.validatedBytes.Add(uint64(len(files[k].Data)))
			}
			start := len(rw.arena)
			rw.arena = appendMemberChunkHdr(rw.arena, rep.id, files[k].Path, files[k].Tag, len(files[k].Data), skip)
			if bufs = append(bufs, rw.arena[start:]); !skip {
				bufs = append(bufs, files[k].Data)
			}
		}
		start := rw.frame(rep.id, msgGroupEnd)
		bufs = append(bufs, rw.end(appendGroupEnd(rw.arena, len(files)), start))
	}
	// WriteTo consumes its receiver (and may rewrite elements on partial
	// writes), so give it the scratch directly and re-truncate next
	// batch. The elements are cleared, as the staged members are, so the
	// reused storage pins neither store contents nor an arena flush drops.
	rw.bufs = bufs
	_, err := rw.bufs.WriteTo(rw.conn)
	clear(bufs)
	rw.bufs = bufs[:0]
	return err
}
