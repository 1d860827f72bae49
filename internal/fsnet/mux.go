package fsnet

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"aggcache/internal/obs/otrace"
)

// muxConn is the client transport: one TCP connection shared by any
// number of goroutines, with pipelined requests and out-of-order replies
// matched by request ID.
//
// A writer goroutine drains a queue of calls and flushes them in batches
// (many frames, one syscall); a reader goroutine decodes reply frames and
// delivers each to its call's completion channel. A group reply arrives
// as a stream of msgMemberChunk frames closed by msgGroupEnd; the reader
// accumulates the chunks and delivers the completed group. With a request
// timeout configured, one watchdog timer per connection — not one per
// call — poisons the connection when the oldest unanswered call passes
// its deadline (the stream position is unknown by then). Any transport or
// protocol error poisons the whole connection: every in-flight call fails
// fast with ErrConnBroken, claimed piggyback history is restored to the
// client in call order, and the connection is closed and never reused.
type muxConn struct {
	c    *Client
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// View-hint piggyback state, touched only by the writer goroutine:
	// the epoch last announced on this connection, so a stable view costs
	// one frame per connection rather than one per batch.
	hintSent  bool
	hintEpoch uint64

	// validated: the server answered the hello by agreeing to shadow the
	// client's cache, so every open written once the client's novalidate is
	// set must carry openUnvalidated. Fixed at the handshake.
	validated bool

	mu     sync.Mutex
	nextID uint64
	calls  map[uint64]*muxCall // in flight: queued or written, awaiting reply
	queue  []*muxCall          // awaiting the writer goroutine
	freeQ  []*muxCall          // recycled queue storage for the next batch
	broken bool
	err    error // first error, set when broken
	// watch is the deadline watchdog: armed by the first call enqueued
	// while it is idle (watching false), it re-arms itself for the oldest
	// in-flight deadline each time it fires and goes idle when nothing is
	// in flight. Nil until the first call of a connection with a timeout.
	watch    *time.Timer
	watching bool

	wake chan struct{} // capacity 1; nudges the writer
}

// muxCall is one pipelined request.
type muxCall struct {
	id  uint64
	typ uint8
	// path is the demanded path of a msgOpen; the writer goroutine claims
	// the piggyback history and encodes the payload at write time, so one
	// flush's worth of opens shares a single claim instead of claiming
	// per call.
	path    string
	payload []byte
	// claimed is the piggyback history this call took from the client's
	// pending list when the writer encoded it; it is restored if the
	// connection dies before the server demonstrably processed the call.
	// Calls poisoned before they were written have no claim — their
	// history simply stayed on the pending list.
	claimed []string
	// start is the enqueue time of a msgOpen, for time-to-first-byte.
	start time.Time
	// deadline is when the watchdog gives up on the call; zero without a
	// configured timeout.
	deadline time.Time
	// tctx is the call's trace context. A sampled context makes the
	// writer emit one msgTraceCtx piggyback frame ahead of the request
	// frame; the zero value sends nothing.
	tctx otrace.Ctx
	// group accumulates the member-chunk payloads of a streamed group
	// reply until its msgGroupEnd arrives. Owned by the reader while the
	// call is in flight, then handed to the caller.
	group *Group
	// done receives exactly one result (buffered so the reader never
	// blocks on a caller).
	done chan muxResult
}

// muxCallPool recycles call objects (and their completion channels):
// exactly one result is delivered and consumed per call, so a call is
// free for reuse as soon as its caller has read the result.
var muxCallPool = sync.Pool{
	New: func() interface{} { return &muxCall{done: make(chan muxResult, 1)} },
}

func putMuxCall(call *muxCall) {
	call.id, call.typ, call.path = 0, 0, ""
	call.payload, call.claimed, call.group = nil, nil, nil
	call.start, call.deadline = time.Time{}, time.Time{}
	call.tctx = otrace.Ctx{}
	muxCallPool.Put(call)
}

type muxResult struct {
	typ     uint8
	payload []byte
	// group is a streamed group reply: the member-chunk payloads in
	// group order (typ is msgGroupEnd, payload nil), not yet validated.
	// The receiver owns its one reference.
	group *Group
	err   error
}

func newMuxConn(c *Client, cc *clientConn, validated bool) *muxConn {
	return &muxConn{
		c:         c,
		conn:      cc.conn,
		r:         cc.r,
		w:         cc.w,
		validated: validated,
		calls:     make(map[uint64]*muxCall),
		wake:      make(chan struct{}, 1),
	}
}

// start launches the writer and reader goroutines. Called after the mux is
// installed in the client's connection slot.
func (m *muxConn) start() {
	go m.writer()
	go m.reader()
}

// enqueue registers one call and hands it to the writer. msgOpen payloads
// are not encoded here: the writer claims the piggyback history and
// encodes at write time, preserving the invariant that claims happen in
// request-ID order (the writer drains the queue in ID order).
func (m *muxConn) enqueue(reqType uint8, path string, payload []byte, tctx otrace.Ctx) (*muxCall, error) {
	call := muxCallPool.Get().(*muxCall)
	call.typ = reqType
	call.path = path
	call.payload = payload
	call.tctx = tctx
	timeout := m.c.cfg.Timeout
	if reqType == msgOpen {
		call.start = time.Now()
		if timeout > 0 {
			call.deadline = call.start.Add(timeout)
		}
	} else if timeout > 0 {
		call.deadline = time.Now().Add(timeout)
	}
	m.mu.Lock()
	if m.broken {
		err := m.err
		m.mu.Unlock()
		putMuxCall(call)
		return nil, err
	}
	if timeout > 0 && !m.watching {
		// Every call shares one timeout, so deadlines only grow: the
		// watchdog, once armed, needs no nudge from later calls.
		m.watching = true
		if m.watch == nil {
			m.watch = time.AfterFunc(timeout, m.expire)
		} else {
			m.watch.Reset(timeout)
		}
	}
	m.nextID++
	call.id = m.nextID
	m.calls[call.id] = call
	m.queue = append(m.queue, call)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
	return call, nil
}

// expire is the watchdog's timer function: it poisons the connection if
// the oldest in-flight call is past its deadline, otherwise sleeps until
// that deadline, and goes idle when nothing is in flight.
func (m *muxConn) expire() {
	m.mu.Lock()
	if m.broken {
		m.mu.Unlock()
		return
	}
	var oldest time.Time
	for _, call := range m.calls {
		if oldest.IsZero() || call.deadline.Before(oldest) {
			oldest = call.deadline
		}
	}
	if oldest.IsZero() {
		m.watching = false
		m.mu.Unlock()
		return
	}
	if wait := time.Until(oldest); wait > 0 {
		m.watch.Reset(wait)
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	// The stream position is unknown after a timeout, so the whole
	// connection is poisoned — which fails every in-flight call.
	m.poison(fmt.Errorf("%w: request timed out after %v", ErrConnBroken, m.c.cfg.Timeout))
}

// writer drains the queue in batches: every queued frame is buffered and
// the batch shares one Flush, so k pipelined requests cost one syscall
// instead of k. Open payloads are encoded here, into one pooled scratch
// buffer per batch, after claiming the pending piggyback history — still
// under m.mu, so the claim-order/ID-order invariant holds and the claimed
// slices are safely published to the reader and poison paths.
func (m *muxConn) writer() {
	for range m.wake {
		for {
			m.mu.Lock()
			if m.broken {
				m.mu.Unlock()
				return
			}
			if len(m.queue) == 0 {
				m.mu.Unlock()
				break
			}
			batch := m.queue
			if m.freeQ != nil {
				m.queue = m.freeQ[:0]
				m.freeQ = nil
			} else {
				m.queue = nil
			}
			enc := getEncodeBuf()
			for _, call := range batch {
				if call.typ != msgOpen {
					continue
				}
				var accessed []string
				accessed, call.claimed = m.c.claimPending(call.path)
				start := len(enc)
				enc = appendOpenRequest(enc, call.path, accessed)
				if m.validated && m.c.novalidate.Load() {
					enc = append(enc, openUnvalidated)
				}
				call.payload = enc[start:]
			}
			m.mu.Unlock()
			var err error
			// Piggyback the membership epoch ahead of the batch when a
			// view source is wired: one msgViewHint under request ID 0
			// (never a real request ID — those start at 1), re-sent only
			// when the epoch changes. Appending to enc after the unlock is
			// safe: if append reallocates, the batch payload slices keep
			// aliasing the old (immutable) backing.
			if m.c.cfg.Views != nil {
				if epoch := m.c.cfg.Views.Epoch(); !m.hintSent || epoch != m.hintEpoch {
					start := len(enc)
					enc = appendViewMsg(enc, epoch, m.c.cfg.Views.Self())
					err = putFrameID(m.w, msgViewHint, 0, enc[start:])
					m.hintSent, m.hintEpoch = true, epoch
				}
			}
			for _, call := range batch {
				if err != nil {
					break
				}
				if call.tctx.Sampled {
					// Announce the sampled call's trace context under
					// request ID 0 immediately before its request frame;
					// the server attaches it to the matching request ID.
					start := len(enc)
					enc = appendTraceCtx(enc, call.id, call.tctx)
					if err = putFrameID(m.w, msgTraceCtx, 0, enc[start:]); err != nil {
						break
					}
				}
				if err = putFrameID(m.w, call.typ, call.id, call.payload); err != nil {
					break
				}
			}
			if err == nil {
				err = m.w.Flush()
			}
			putFrameBuf(enc)
			m.recycleBatch(batch)
			if err != nil {
				m.poison(fmt.Errorf("%w: %v", ErrConnBroken, err))
				return
			}
		}
	}
}

// recycleBatch offers a drained batch's storage back as the next queue.
func (m *muxConn) recycleBatch(batch []*muxCall) {
	for i := range batch {
		batch[i] = nil
	}
	m.mu.Lock()
	if m.freeQ == nil || cap(batch) > cap(m.freeQ) {
		m.freeQ = batch[:0]
	}
	m.mu.Unlock()
}

// reader decodes replies and delivers each to its caller. Streamed group
// replies accumulate on their call until the closing msgGroupEnd. Any
// read or framing error — including Close of the underlying connection —
// poisons the mux, which fails all in-flight calls.
func (m *muxConn) reader() {
	for {
		typ, id, payload, err := readFrameID(m.r)
		if err != nil {
			m.poison(fmt.Errorf("%w: %v", ErrConnBroken, err))
			return
		}
		if id == 0 && typ == msgViewHint {
			// Unsolicited epoch announcement from the server's reply
			// batches; request IDs start at 1, so ID 0 never matches a
			// call. Advisory: noted when a view source is wired, dropped
			// otherwise.
			epoch, sender, derr := decodeViewMsg(payload)
			putFrameBuf(payload)
			if derr != nil {
				m.poison(fmt.Errorf("%w: %v", ErrConnBroken, derr))
				return
			}
			if m.c.cfg.Views != nil {
				m.c.cfg.Views.NoteViewEpoch(sender, epoch)
			}
			continue
		}
		switch typ {
		case msgMemberChunk:
			m.mu.Lock()
			call, ok := m.calls[id]
			var first bool
			if ok {
				if call.group == nil {
					call.group = NewGroup()
				}
				if len(call.group.bufs) >= maxGroup {
					m.mu.Unlock()
					putFrameBuf(payload)
					m.poison(fmt.Errorf("%w: streamed group exceeds %d members", ErrConnBroken, maxGroup))
					return
				}
				first = len(call.group.bufs) == 0
				call.group.bufs = append(call.group.bufs, payload)
			}
			m.mu.Unlock()
			if !ok {
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: chunk for unknown request %d", ErrConnBroken, id))
				return
			}
			if first && !call.start.IsZero() {
				m.observeTTFB(call)
			}
		case msgGroupEnd:
			m.mu.Lock()
			call, ok := m.calls[id]
			if ok {
				delete(m.calls, id)
			}
			m.mu.Unlock()
			if !ok {
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: group end for unknown request %d", ErrConnBroken, id))
				return
			}
			n, derr := decodeGroupEnd(payload)
			putFrameBuf(payload)
			g := call.group
			call.group = nil
			if derr == nil && (g == nil || n != len(g.bufs)) {
				// decodeGroupEnd rejects a count of zero, so a group end
				// with no chunks before it lands here too.
				got := 0
				if g != nil {
					got = len(g.bufs)
				}
				derr = fmt.Errorf("group end declares %d members, got %d", n, got)
			}
			if derr != nil {
				if g != nil {
					g.Release()
				}
				werr := fmt.Errorf("%w: %v", ErrConnBroken, derr)
				// The stream is untrustworthy beyond this point; the call
				// was already removed from the in-flight map, so fail it
				// directly after poisoning the rest.
				m.poison(werr)
				call.done <- muxResult{err: werr}
				return
			}
			call.done <- muxResult{typ: msgGroupEnd, group: g}
		default:
			m.mu.Lock()
			call, ok := m.calls[id]
			// A single-frame reply to a call that has already buffered
			// member chunks cuts a streamed group short: the call stays in
			// flight, so the poison below fails it and recycles its chunks.
			midStream := ok && call.group != nil
			if ok && !midStream {
				delete(m.calls, id)
			}
			m.mu.Unlock()
			if !ok {
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: reply for unknown request %d", ErrConnBroken, id))
				return
			}
			if midStream {
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: reply type %d inside the streamed group of request %d", ErrConnBroken, typ, id))
				return
			}
			if !call.start.IsZero() {
				m.observeTTFB(call)
			}
			call.done <- muxResult{typ: typ, payload: payload}
		}
	}
}

// observeTTFB records a call's time-to-first-byte, attaching the trace
// ID as a histogram exemplar only for sampled calls: rendering the hex
// trace ID allocates, so unsampled requests stay on the plain path.
func (m *muxConn) observeTTFB(call *muxCall) {
	d := uint64(time.Since(call.start))
	if call.tctx.Sampled {
		m.c.m.ttfb.ObserveTrace(d, call.tctx.TraceID())
		return
	}
	m.c.m.ttfb.Observe(d)
}

// poison marks the mux broken, closes the connection, restores every
// unanswered call's claimed history to the client (oldest call first),
// empties the client's connection slot, and fails every unanswered call
// with err. Idempotent; only the first error wins.
func (m *muxConn) poison(err error) {
	m.mu.Lock()
	if m.broken {
		m.mu.Unlock()
		return
	}
	m.broken = true
	m.err = err
	orphans := make([]*muxCall, 0, len(m.calls))
	for _, call := range m.calls {
		orphans = append(orphans, call)
	}
	m.calls = nil
	m.queue, m.freeQ = nil, nil
	if m.watch != nil {
		m.watch.Stop()
	}
	// Request IDs were assigned — and their histories claimed — in ID
	// order, so restoring in ID order reassembles the piggyback backlog
	// oldest-first.
	sort.Slice(orphans, func(i, j int) bool { return orphans[i].id < orphans[j].id })
	var hist []string
	for _, call := range orphans {
		hist = append(hist, call.claimed...)
	}
	// Both before the lock drops: a caller that enqueue refuses from here
	// on must already find the history restored and the client
	// disconnected (a cache hit right after its failed fetch is a
	// degraded one).
	m.c.restorePending(hist)
	m.c.dropMux(m)
	m.mu.Unlock()

	_ = m.conn.Close()
	// Nudge the writer so it observes broken and exits.
	select {
	case m.wake <- struct{}{}:
	default:
	}

	for _, call := range orphans {
		if call.group != nil {
			call.group.Release()
			call.group = nil
		}
		call.done <- muxResult{err: err}
	}
}
