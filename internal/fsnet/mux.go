package fsnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"aggcache/internal/obs/otrace"
)

// muxConn is the client transport to one server: one TCP connection
// shared by any number of goroutines, with pipelined requests whose
// replies come back in request order (protocol version 6).
//
// Requests leave on the goroutine that made them: a caller queues its call
// and flushes the queue, and a caller that finds a flush under way leaves
// its call to it, so calls that arrive together leave together (many
// frames, one syscall). A reader goroutine decodes reply frames and
// delivers each to the oldest call in flight, the head of a FIFO queue; a
// frame for any other request is a protocol error. A group reply arrives
// as a stream of msgMemberChunk frames closed by msgGroupEnd; the reader
// accumulates the chunks, installs the completed group in the client's
// cache — in the order the server sent the replies — and delivers the
// demanded file. With a request timeout configured, the connection's read
// deadline is the head call's deadline: the reader moves it as each call
// completes and clears it when nothing is in flight, so a stalled reply
// surfaces as a read error (the stream position is unknown by then). Any
// transport or protocol error poisons the whole connection: every
// in-flight call fails fast with ErrConnBroken, claimed piggyback history
// is restored to the client in call order, and the connection is closed
// and never reused.
type muxConn struct {
	c    *Client
	l    *link // the slot this connection fills
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// epoch is the view epoch the server's hello announced (0: no ring).
	epoch uint64

	mu     sync.Mutex
	nextID uint64
	// head and tail bound the calls in flight — queued or written, awaiting
	// reply — oldest first, linked through muxCall.next.
	head, tail *muxCall
	queue      []*muxCall // awaiting a flush
	freeQ      []*muxCall // recycled queue storage for the next batch
	flushing   bool       // a caller is writing the queue out
	broken     bool
	err        error // first error, set when broken
}

// muxCall is one pipelined request.
type muxCall struct {
	id   uint64
	typ  uint8
	next *muxCall // the call sent after this one, while both are in flight
	// path is the demanded path of a msgOpen; the flush claims the
	// piggyback history and the residency report and encodes the payload
	// at write time, so one flush's worth of opens shares a single claim
	// instead of claiming per call.
	path    string
	payload []byte
	// claimed is the piggyback history this call took from the client's
	// pending list when the flush encoded it; it is restored if the
	// connection dies before the server demonstrably processed the call.
	// Calls poisoned before they were written have no claim — their
	// history simply stayed on the pending list.
	claimed []string
	// start is the enqueue time of a msgOpen, for time-to-first-byte;
	// zero when the client has no ttfb histogram to record it in.
	start time.Time
	// deadline is the read deadline while the call heads the queue; zero
	// without a configured timeout.
	deadline time.Time
	// tctx is the call's trace context. A sampled context makes the
	// flush emit one msgTraceCtx piggyback frame ahead of the request
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
	// data is a group reply's demanded file (typ msgGroupEnd, payload
	// nil), as the reader installed it in the cache.
	data []byte
	err  error
}

func newMuxConn(c *Client, l *link, cc *clientConn, epoch uint64) *muxConn {
	return &muxConn{
		c:     c,
		l:     l,
		conn:  cc.conn,
		r:     cc.r,
		w:     cc.w,
		epoch: epoch,
	}
}

// enqueue registers one call and flushes the queue, or leaves the call to
// a flush under way. msgOpen payloads are not encoded here: the flush
// claims the piggyback history and encodes at write time, preserving the
// invariant that claims happen in request-ID order (a flush drains the
// queue in ID order).
func (m *muxConn) enqueue(reqType uint8, path string, payload []byte, tctx otrace.Ctx) (*muxCall, error) {
	call := muxCallPool.Get().(*muxCall)
	call.typ = reqType
	call.path = path
	call.payload = payload
	call.tctx = tctx
	timeout := m.l.timeout
	if reqType == msgOpen && m.c.m.ttfb != nil {
		call.start = time.Now()
	}
	if timeout > 0 {
		now := call.start
		if now.IsZero() {
			now = time.Now()
		}
		call.deadline = now.Add(timeout)
	}
	m.mu.Lock()
	if m.broken {
		err := m.err
		m.mu.Unlock()
		putMuxCall(call)
		return nil, err
	}
	m.nextID++
	call.id = m.nextID
	if m.tail == nil {
		m.head = call
		if timeout > 0 {
			// The call makes an idle connection busy. Later calls are
			// answered after it and share its timeout, so only the head's
			// deadline is armed: the reader moves it on as each head
			// completes. An error here means the connection is closed,
			// which its reader reports.
			_ = m.conn.SetReadDeadline(call.deadline)
		}
	} else {
		m.tail.next = call
	}
	m.tail = call
	m.queue = append(m.queue, call)
	if m.flushing {
		m.mu.Unlock()
		return call, nil
	}
	m.flushing = true
	m.mu.Unlock()
	m.flush()
	return call, nil
}

// flush writes the queue out in batches until it is empty: every queued
// frame is buffered and the batch shares one Flush, so k pipelined
// requests cost one syscall instead of k. Open payloads are encoded here,
// into one pooled scratch buffer per batch, after claiming the pending
// piggyback history and the link's report — still under m.mu, so the
// claim-order/ID-order invariant holds and the claimed slices are safely
// published to the reader and poison paths. Called by the goroutine that
// set flushing.
func (m *muxConn) flush() {
	for {
		m.mu.Lock()
		if m.broken || len(m.queue) == 0 {
			m.flushing = false
			m.mu.Unlock()
			return
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
			start := len(enc)
			enc, call.claimed = m.c.appendOpen(enc, m.l, call.path)
			call.payload = enc[start:]
		}
		m.mu.Unlock()
		var err error
		for _, call := range batch {
			if call.tctx.Sampled {
				// Announce the sampled call's trace context under request
				// ID 0 immediately before its request frame; the server
				// attaches it to the matching request ID. Appending to enc
				// after the unlock is safe: if append reallocates, the
				// batch payload slices keep aliasing the old (immutable)
				// backing.
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
			// The next pass finds the connection broken and stops.
			m.poison(fmt.Errorf("%w: %v", ErrConnBroken, err))
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

// reader decodes replies and delivers each to the call at the head of the
// queue. Streamed group replies accumulate on their call until the closing
// msgGroupEnd. Any read or framing error — including Close of the
// underlying connection and the head call's deadline passing — poisons the
// mux, which fails all in-flight calls.
func (m *muxConn) reader() {
	for {
		typ, id, payload, err := readFrameID(m.r)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = fmt.Errorf("request timed out after %v", m.l.timeout)
			}
			m.poison(fmt.Errorf("%w: %v", ErrConnBroken, err))
			return
		}
		if id == 0 && typ == msgViewHint {
			// Unsolicited epoch announcement from the server's reply
			// batches; request IDs start at 1, so ID 0 never matches a
			// call. A client routing by a ring re-pulls the view before
			// its next miss when the epoch is newer.
			epoch, _, derr := decodeViewMsg(payload)
			putFrameBuf(payload)
			if derr != nil {
				m.poison(fmt.Errorf("%w: %v", ErrConnBroken, derr))
				return
			}
			m.c.noteViewHint(m.l, epoch)
			continue
		}
		m.mu.Lock()
		call := m.head
		if call == nil || call.id != id {
			m.mu.Unlock()
			putFrameBuf(payload)
			m.poison(fmt.Errorf("%w: reply for request %d out of request order", ErrConnBroken, id))
			return
		}
		switch typ {
		case msgMemberChunk:
			if call.group == nil {
				call.group = NewGroup()
			}
			if len(call.group.bufs) >= maxGroup {
				m.mu.Unlock()
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: streamed group exceeds %d members", ErrConnBroken, maxGroup))
				return
			}
			first := len(call.group.bufs) == 0
			call.group.bufs = append(call.group.bufs, payload)
			m.mu.Unlock()
			if first && !call.start.IsZero() {
				m.observeTTFB(call)
			}
		case msgGroupEnd:
			m.retire()
			m.mu.Unlock()
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
			if derr == nil && call.typ != msgOpen {
				derr = fmt.Errorf("group reply to request type %d", call.typ)
			}
			var data []byte
			if derr == nil {
				// Installed here, in the order the server sent its replies:
				// a reply may vouch for a member an earlier one delivered.
				data, derr = m.c.install(m, call, g)
			} else if g != nil {
				g.Release()
			}
			if derr != nil {
				werr := fmt.Errorf("%w: %v", ErrConnBroken, derr)
				// The stream is untrustworthy beyond this point; the call
				// has already left the queue, so fail it directly after
				// poisoning the rest.
				m.poison(werr)
				call.done <- muxResult{err: werr}
				return
			}
			call.done <- muxResult{typ: msgGroupEnd, data: data}
		default:
			if call.group != nil {
				// A single-frame reply to a call that has already buffered
				// member chunks cuts a streamed group short: the call stays
				// queued, so the poison fails it and recycles its chunks.
				m.mu.Unlock()
				putFrameBuf(payload)
				m.poison(fmt.Errorf("%w: reply type %d inside the streamed group of request %d", ErrConnBroken, typ, id))
				return
			}
			m.retire()
			m.mu.Unlock()
			if !call.start.IsZero() {
				m.observeTTFB(call)
			}
			call.done <- muxResult{typ: typ, payload: payload}
		}
	}
}

// retire takes the head call, which the reader has answered, off the
// queue and moves the read deadline to the next call's — or clears it when
// nothing is left in flight. Called with mu held.
func (m *muxConn) retire() {
	call := m.head
	m.head, call.next = call.next, nil
	var deadline time.Time
	if m.head == nil {
		m.tail = nil
	} else {
		deadline = m.head.deadline
	}
	if m.l.timeout > 0 {
		// An error means the connection is closed: the next read fails.
		_ = m.conn.SetReadDeadline(deadline)
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
// with err, front of the queue to back. Idempotent; only the first error
// wins.
func (m *muxConn) poison(err error) {
	m.mu.Lock()
	if m.broken {
		m.mu.Unlock()
		return
	}
	m.broken = true
	m.err = err
	orphans := m.head
	m.head, m.tail = nil, nil
	m.queue, m.freeQ = nil, nil
	// Histories were claimed in queue order, so restoring front to back
	// reassembles the piggyback backlog oldest-first.
	var hist []string
	for call := orphans; call != nil; call = call.next {
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

	for call := orphans; call != nil; {
		next := call.next
		if call.group != nil {
			call.group.Release()
			call.group = nil
		}
		call.done <- muxResult{err: err}
		call = next
	}
}
