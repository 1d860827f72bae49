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
// frames, one syscall). Replies are read by the goroutine that made them
// too: the call at the head of the in-flight queue reads frames until its
// own reply is complete — a frame for any other request is a protocol
// error — installs it, and only then hands the read role to the next call,
// so replies install in the order the server sent them. The head decodes
// its whole reply before it hands the role on: a group reply arrives as a
// stream of msgMemberChunk frames closed by msgGroupEnd, which the head
// reads into the connection's reply buffer one after another and installs
// in the client's cache straight out of it, and any other reply it decodes
// into its result, so no reply bytes outlive the read. Calls behind the
// head wait for the hand-off. With a request timeout configured, the
// connection's deadline, in both directions, is the head call's own: the
// head arms it when it takes the read role, so a stalled reply or a
// stalled flush surfaces as an I/O error (the stream position is unknown
// by then). Any transport or protocol error poisons the whole
// connection: every in-flight call fails fast with ErrConnBroken, claimed
// piggyback history is restored to the client in call order, and the
// connection is closed and never reused. Nothing reads an idle
// connection, so a server's idle close is noticed by the next call, which
// is sent once more on a fresh connection if nothing of its reply arrived
// (Client.roundTrip).
type muxConn struct {
	c    *Client
	l    *link // the slot this connection fills
	conn net.Conn
	r    *bufio.Reader // read only by the call at the head of the queue
	w    *bufio.Writer

	// rbuf is the reply buffer, and ends the end offsets in it of the
	// member chunks read so far; the head call alone reads into them.
	// enc is the request batch the flush encodes, the flusher's alone.
	// maxKeptBuf bounds what each keeps.
	rbuf []byte
	ends []int
	enc  []byte

	// epoch is the view epoch the server's hello announced (0: no ring).
	epoch uint64

	mu     sync.Mutex
	nextID uint64
	// head and tail bound the calls in flight — queued or written, awaiting
	// reply — oldest first, linked through muxCall.next. The head holds the
	// read role.
	head, tail *muxCall
	queue      []*muxCall // awaiting a flush
	freeQ      []*muxCall // recycled queue storage for the next batch
	// free lists the answered calls, linked through muxCall.next, for
	// enqueue to reuse; the connection keeps as many as it ever had in
	// flight at once. A poisoned connection's calls go with it.
	free     *muxCall
	flushing bool // a caller is writing the queue out
	broken   bool
	err      error // first error, set when broken
}

// errTimedOut marks the transport error of a call whose deadline passed.
var errTimedOut = errors.New("request timed out")

// muxCall is one pipelined request. It belongs to the connection that
// carries it, which recycles it once it is answered.
type muxCall struct {
	id  uint64
	typ uint8
	// next is the call sent after this one while both are in flight, or
	// the next answered call on the connection's free list.
	next *muxCall
	// path is the demanded path of a msgOpen; the flush claims the
	// piggyback history and the residency report and encodes the payload
	// at write time, so one flush's worth of opens shares a single claim
	// instead of claiming per call.
	path    string
	payload []byte
	// claimed is the piggyback history this call took from the client's
	// pending list when the flush encoded it; it is restored if the
	// connection dies before the server demonstrably processed the call.
	// An answered call keeps its array, emptied, and its next claim leaves
	// it in the pending list's place. Calls poisoned before they were
	// written have no claim — their history simply stayed on the pending
	// list.
	claimed []string
	// start is the enqueue time of a msgOpen, for time-to-first-byte;
	// zero when the client has no ttfb histogram to record it in.
	start time.Time
	// deadline is the connection's deadline while the call heads the
	// queue; zero without a configured timeout.
	deadline time.Time
	// idle marks a call that found a connection which had served earlier
	// calls idle, until a byte of its reply arrives: a connection failing
	// before then was most likely closed by its server while idle.
	idle bool
	// tctx is the call's trace context. A sampled context makes the
	// flush emit one msgTraceCtx piggyback frame ahead of the request
	// frame; the zero value sends nothing.
	tctx otrace.Ctx
	// done receives the read role (nil) when the call becomes the head of
	// the queue, or the error that poisoned the connection. A call can be
	// sent both, so there is room for both and neither send blocks.
	done chan error
}

// muxResult is a call's reply, decoded by the call that read it.
type muxResult struct {
	// data is an open's demanded file, as the call installed it in the
	// cache; tag is a write's, from its ack.
	data []byte
	tag  uint64
	// epoch, sender and members are a view verb's answer: a pull's view, or
	// the epoch a push left the receiver at.
	epoch   uint64
	sender  string
	members []string
	// refused is the server's msgError answer as an error: the request
	// failed, and the connection stays in service.
	refused error
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
// a flush under way; it reports whether the call heads the queue, and so
// holds the read role from the start. msgOpen payloads are not encoded
// here: the flush claims the piggyback history and encodes at write time,
// preserving the invariant that claims happen in request-ID order (a flush
// drains the queue in ID order).
func (m *muxConn) enqueue(reqType uint8, path string, payload []byte, tctx otrace.Ctx) (call *muxCall, head bool, err error) {
	var start, deadline time.Time
	if reqType == msgOpen && m.c.m.ttfb != nil {
		start = time.Now()
	}
	if timeout := m.l.timeout; timeout > 0 {
		now := start
		if now.IsZero() {
			now = time.Now()
		}
		deadline = now.Add(timeout)
	}
	m.mu.Lock()
	if m.broken {
		err := m.err
		m.mu.Unlock()
		return nil, false, err
	}
	if call = m.free; call != nil {
		m.free, call.next = call.next, nil
	} else {
		call = &muxCall{done: make(chan error, 2)}
	}
	call.typ, call.path, call.payload, call.tctx = reqType, path, payload, tctx
	call.start, call.deadline = start, deadline
	m.nextID++
	call.id = m.nextID
	if head = m.tail == nil; head {
		// The call makes an idle connection busy. Its deadline is armed
		// before its request is written, so the flush is bounded too.
		m.head = call
		call.idle = call.id > 1
		m.arm(call)
	} else {
		m.tail.next = call
	}
	m.tail = call
	m.queue = append(m.queue, call)
	if m.flushing {
		m.mu.Unlock()
		return call, head, nil
	}
	m.flushing = true
	m.mu.Unlock()
	m.flush()
	return call, head, nil
}

// arm makes the head call's deadline the connection's, for reads and
// writes alike: the head reads its own reply, and every flush until the
// next head arms is answered after it. An error means the connection is
// closed, which the next read or write reports.
func (m *muxConn) arm(call *muxCall) {
	if m.l.timeout > 0 {
		_ = m.conn.SetDeadline(call.deadline)
	}
}

// flush writes the queue out in batches until it is empty: every queued
// frame is buffered and the batch shares one Flush, so k pipelined
// requests cost one syscall instead of k. Open payloads are encoded here,
// into the connection's batch buffer, after claiming the pending
// piggyback history and the link's report — still under m.mu, so the
// claim-order/ID-order invariant holds and the claimed slices are safely
// published to the poison path. Called by the goroutine that set flushing.
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
		enc := m.enc
		for _, call := range batch {
			if call.typ != msgOpen {
				continue
			}
			start := len(enc)
			enc, call.claimed = m.c.appendOpen(enc, m.l, call.path, call.claimed)
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
		m.enc = keepBuf(m.enc, enc)
		m.recycleBatch(batch)
		if err != nil {
			// The next pass finds the connection broken and stops.
			m.poison(m.transportErr(err))
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

// transportErr wraps a read or write error of the connection, naming a
// passed deadline as the request timeout.
func (m *muxConn) transportErr(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return fmt.Errorf("%w: %w after %v", ErrConnBroken, errTimedOut, m.l.timeout)
	}
	return fmt.Errorf("%w: %v", ErrConnBroken, err)
}

// await returns call's reply. A call behind the head first waits for the
// read role, or for the error that poisoned the connection; the head then
// reads and decodes its reply (read) and only then hands the read role
// on. Any read, framing or decoding error — including Close of the
// underlying connection and the head's deadline passing — poisons the
// mux, which fails all in-flight calls.
func (m *muxConn) await(call *muxCall, head bool) (muxResult, error) {
	if !head {
		if err := <-call.done; err != nil {
			return muxResult{}, err
		}
		m.arm(call)
	}
	if call.idle {
		// One byte of the reply shows the connection outlived its idle
		// spell; until then a failure may be the server's idle close.
		if _, err := m.r.Peek(1); err != nil {
			return muxResult{}, m.poison(m.transportErr(err))
		}
		call.idle = false
	}
	res, err := m.read(call)
	if errors.Is(err, errDesync) {
		// The calls behind this one were not answered: they fail with an
		// error that lets them be sent again.
		m.poison(fmt.Errorf("%w: desynchronized reply stream", ErrConnBroken))
		return muxResult{}, err
	}
	if err != nil {
		return muxResult{}, m.poison(err)
	}
	return m.retire(call, res)
}

// read reads frames into the connection's reply buffer until call's reply
// is complete, and decodes it: a streamed group is installed in the
// client's cache (Client.install), in the order the server sent its
// replies — a reply may vouch for a member an earlier one delivered — and
// any other reply is decoded into the result. A frame for another request
// is a protocol error.
func (m *muxConn) read(call *muxCall) (muxResult, error) {
	buf, ends := m.rbuf[:0], m.ends[:0]
	for {
		n := len(buf)
		typ, id, grown, err := readFrameID(m.r, buf)
		if err != nil {
			return muxResult{}, m.transportErr(err)
		}
		buf = grown
		payload := buf[n:]
		if id == 0 && typ == msgViewHint {
			// Unsolicited epoch announcement from the server's reply
			// batches; request IDs start at 1, so ID 0 never matches a
			// call. A client routing by a ring re-pulls the view before
			// its next miss when the epoch is newer.
			epoch, _, derr := decodeViewMsg(payload)
			if derr != nil {
				return muxResult{}, fmt.Errorf("%w: %v", ErrConnBroken, derr)
			}
			m.c.noteViewHint(m.l, epoch)
			buf = buf[:n]
			continue
		}
		if id != call.id {
			return muxResult{}, fmt.Errorf("%w: reply for request %d out of request order", ErrConnBroken, id)
		}
		if typ == msgMemberChunk {
			if len(ends) == maxGroup {
				return muxResult{}, fmt.Errorf("%w: streamed group exceeds %d members", ErrConnBroken, maxGroup)
			}
			if ends = append(ends, len(buf)); len(ends) == 1 && !call.start.IsZero() {
				m.observeTTFB(call)
			}
			continue
		}
		var res muxResult
		switch {
		case typ == msgGroupEnd:
			var count int
			count, err = decodeGroupEnd(payload)
			switch {
			case err != nil:
			case count != len(ends):
				// decodeGroupEnd rejects a count of zero, so a group end
				// with no chunks before it lands here too.
				err = fmt.Errorf("group end declares %d members, got %d", count, len(ends))
			case call.typ != msgOpen:
				err = fmt.Errorf("group reply to request type %d", call.typ)
			default:
				res.data, err = m.c.install(m, call.path, buf[:n], ends)
			}
		case len(ends) > 0:
			// A single-frame reply to a call that has already read member
			// chunks cuts a streamed group short.
			err = fmt.Errorf("reply type %d inside the streamed group of request %d", typ, id)
		default:
			if !call.start.IsZero() {
				m.observeTTFB(call)
			}
			if res, err = decodeReply(call.typ, typ, payload); err != nil {
				err = fmt.Errorf("%w: %v", errDesync, err)
			} else if call.typ == msgOpen {
				m.c.answered(m)
			}
		}
		m.rbuf, m.ends = keepBuf(m.rbuf, buf), ends[:0]
		if err != nil {
			return muxResult{}, fmt.Errorf("%w: %w", ErrConnBroken, err)
		}
		return res, nil
	}
}

// decodeReply decodes a single-frame reply to a request of type reqType.
// An error is a reply the request cannot have: the stream is
// desynchronized.
func decodeReply(reqType, typ uint8, payload []byte) (res muxResult, err error) {
	switch {
	case typ == msgError:
		var e errorResponse
		if e, err = decodeErrorResponse(payload); err == nil {
			res.refused = e.err()
		}
	case typ == msgWriteOK && reqType == msgWrite:
		res.tag, err = decodeWriteOK(payload)
	case typ == msgHandoffOK && reqType == msgHandoff:
	case typ == msgViewPush && reqType == msgViewPull:
		res.epoch, res.sender, res.members, err = decodeViewPush(payload)
	case typ == msgViewHint && reqType == msgViewPush:
		res.epoch, _, err = decodeViewMsg(payload)
	default:
		err = fmt.Errorf("unexpected reply type %d to request type %d", typ, reqType)
	}
	return res, err
}

// retire takes the head call, which has its reply, off the queue onto the
// free list and hands the read role to the next call. A connection
// poisoned meanwhile fails the call with the rest: the poison already
// restored its claimed history.
//
// The call is free for reuse: the flush that sent it is done with it, it
// consumed everything ever sent to its done channel, and the server
// consumed the history it claimed, whose array it keeps, emptied.
func (m *muxConn) retire(call *muxCall, res muxResult) (muxResult, error) {
	m.mu.Lock()
	if m.broken {
		err := m.err
		m.mu.Unlock()
		return muxResult{}, err
	}
	next := call.next
	m.head = next
	if next == nil {
		m.tail = nil
	}
	clear(call.claimed)
	*call = muxCall{claimed: call.claimed[:0], next: m.free, done: call.done}
	m.free = call
	m.mu.Unlock()
	if next != nil {
		next.done <- nil
	}
	return res, nil
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
// with err, front of the queue to back; the head, reading, finds the
// closed connection. Idempotent: only the first error wins, and poison
// returns it.
func (m *muxConn) poison(err error) error {
	m.mu.Lock()
	if m.broken {
		err = m.err
		m.mu.Unlock()
		return err
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
		call.done <- err
		call = next
	}
	return err
}
