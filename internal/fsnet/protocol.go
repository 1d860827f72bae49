// Package fsnet realizes the paper's Figure-2 architecture as a real
// networked system: a file server that maintains relationship metadata and
// answers every open request with a *group* of files, and a client-side
// cache manager that installs the group per the aggregating-cache rules
// and piggybacks its access statistics onto subsequent requests (§3).
//
// The wire protocol is a length-prefixed binary framing over TCP, built
// only on the standard library. A connection opens with one handshake —
// msgHello answered by msgHelloOK, both in bare frames — and then carries
// request-ID frames: pipelined requests one way, and the other way group
// replies streamed as per-member msgMemberChunk frames closed by
// msgGroupEnd, out of order across requests (DESIGN.md §10).
package fsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Message types.
const (
	// msgOpen is a client->server open request: the demanded path plus
	// the piggybacked list of paths the client accessed (hit or miss)
	// since its previous request, in order.
	msgOpen = uint8(iota + 1)
	// Type 2 is reserved: it was the contiguous group reply of the retired
	// protocol versions 1 and 2. Nothing sends it and no reader accepts it.
	_
	// msgError is the server->client failure reply.
	msgError
	// msgWrite is a client->server whole-file write (write-through).
	msgWrite
	// msgWriteOK acknowledges a write, carrying the stored contents' tag.
	msgWriteOK
	// msgHello is the client's protocol-version offer plus the capacity of
	// the cache it asks the server to shadow, the first frame of every
	// connection. A server answers an offer below protocolVersion — or any
	// other first frame — with one msgError and closes.
	msgHello
	// msgHelloOK is the server's handshake reply carrying the version the
	// connection speaks. Every later frame carries a request ID and replies
	// may return out of order.
	msgHelloOK
	// msgHandoff is a peer->peer drain transfer: one group a departing
	// cluster node owned — the anchor path plus its learned members in
	// group order — for the receiver to install into its successor
	// metadata and cache, so it serves the moved paths warm.
	msgHandoff
	// msgHandoffOK acknowledges a handoff install.
	msgHandoffOK
	// msgMemberChunk is one member of a streamed group reply: the path,
	// content tag and contents of a single file — or, for a member the
	// client already holds at that tag, the path and tag alone. The
	// demanded file is always the first chunk of its request ID and always
	// complete; chunks of different requests may interleave on the wire,
	// but chunks of one request arrive in group order.
	msgMemberChunk
	// msgGroupEnd terminates a streamed group reply, carrying the member
	// count so the client can verify it saw the whole group.
	msgGroupEnd
	// msgViewHint is an advisory membership-epoch announcement: the
	// sender's advertised cluster address plus its installed view epoch.
	// It piggybacks unsolicited under request ID 0, deduplicated per epoch
	// per connection, and also serves as the "not newer than you" reply to
	// msgViewPull and the ack to msgViewPush. Advisory only: a receiver
	// without a view source ignores it.
	msgViewHint
	// msgViewPull asks the receiver for its membership view. The payload
	// carries the puller's own address and epoch so the responder can
	// pull back symmetrically if the puller is the newer side. Answered
	// with msgViewPush (responder newer) or msgViewHint (responder not
	// newer).
	msgViewPull
	// msgViewPush carries a full membership view — epoch, sender address,
	// and the peer list — for the receiver to validate and install.
	// Acked with msgViewHint carrying the receiver's resulting epoch.
	msgViewPush
	// msgTraceCtx is the distributed-tracing piggyback: an unsolicited
	// frame under request ID 0 announcing the trace context (128-bit
	// trace ID, parent span ID, flags) of the request frame that follows
	// it in the same batch, matched by the annotated request ID it
	// carries. Sent only for head-sampled requests; a receiver without a
	// tracer skips it.
	msgTraceCtx
)

// protocolVersion is the one protocol version this package speaks: the
// hello exchange carrying the client's cache capacity, request-ID framing,
// and streamed group replies whose member chunks carry a content tag and
// may be header-only (DESIGN.md §10). The number is a wire value — earlier
// ones were the lock-step, assembled-reply and untagged-stream generations
// it replaced — and the handshake exists to turn a peer built before or
// after it away with a typed error instead of a desynchronised stream.
const protocolVersion = 4

// Protocol limits; violations terminate the connection.
const (
	maxFrame     = 16 << 20
	maxPath      = 4096
	maxStatPaths = 1024
	maxGroup     = 64
	maxFileSize  = 8 << 20
)

// connBufSize sizes the per-connection bufio reader and writer on both
// ends. A convoy reply for a whole group runs tens of KB; with the
// 4 KiB bufio default that is a dozen read/write syscalls per fetch,
// and syscall time dominates the loopback CPU profile. 64 KiB moves a
// convoy in one or two.
const connBufSize = 64 << 10

// Error codes carried by msgError.
const (
	// CodeNotFound reports that the demanded path does not exist.
	CodeNotFound = uint32(iota + 1)
	// CodeBadRequest reports a malformed or limit-violating request.
	CodeBadRequest
	// CodeBusy reports that the server is at its connection limit; the
	// connection is closed after this reply. Clients with retry
	// configured back off and redial.
	CodeBusy
	// CodeInternal reports a handler failure (recovered panic); the
	// connection is closed after this reply.
	CodeInternal
)

// ErrNotFound is returned by Client.Open for missing files.
var ErrNotFound = errors.New("fsnet: file not found")

// fileData is one file in a group reply; the serving path's name for
// GroupFile, so routed and locally staged groups reach the reply writer
// as the same slice type.
type fileData = GroupFile

// GroupFile is one file of a group, as exposed to code embedding the
// client or server — the cluster peer tier (internal/cluster) routes
// whole groups of these between nodes. The demanded file always leads a
// group; the rest are its opportunistically fetched members.
type GroupFile struct {
	Path string
	Data []byte
	// Tag is the validator of Data: a 64-bit tag of the contents, computed
	// once by the store that holds them and carried unchanged by every hop
	// (DESIGN.md §11). Equal non-zero tags of one path mean equal contents;
	// zero means "no validator", and such a member is always sent in full.
	Tag uint64
}

// HandoffGroup is one group being drained from a departing cluster node
// to the peer that owns it next: the anchor path plus its learned
// members in group order, metadata only — the stores are replicated, so
// the bytes are already at the receiver.
type HandoffGroup struct {
	Anchor  string
	Members []string
}

// errorResponse is the payload of msgError.
type errorResponse struct {
	Code    uint32
	Message string
}

// Bare frames — u32 length (type + payload), u8 type, payload — are the
// handshake envelope: the hello, its answer, and a refusal sent before
// any handshake. Everything after msgHelloOK is request-ID framed.

// writeFrame writes one bare frame to w in a single Write.
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("fsnet: frame of %d bytes exceeds limit", len(payload)+1)
	}
	b := binary.BigEndian.AppendUint32(getEncodeBuf(), uint32(len(payload)+1))
	b = append(append(b, typ), payload...)
	_, err := w.Write(b)
	putFrameBuf(b)
	return err
}

// peekN returns n buffered bytes without consuming them, with
// io.ReadFull's error semantics (ErrUnexpectedEOF on a partial header).
// Peeking instead of reading into a local array keeps the header bytes
// inside bufio's buffer: a stack array handed to io.ReadFull escapes
// through the io.Reader interface and costs a heap allocation per frame.
func peekN(r *bufio.Reader, n int) ([]byte, error) {
	b, err := r.Peek(n)
	if err != nil {
		if len(b) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return b, nil
}

// readFrame reads one bare frame, returning its type and payload. The
// header is read separately from the payload so the returned payload
// slice spans its pooled buffer from offset zero: recycling it preserves
// the buffer's full capacity. (Slicing the type byte off a combined read
// would shave a byte of capacity per cycle until every buffer cap-missed.)
func readFrame(r *bufio.Reader) (uint8, []byte, error) {
	hdr, err := peekN(r, 4)
	if err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 || n > maxFrame {
		// Validated before the type byte is demanded: a hostile
		// zero-length header must error now, not block waiting for bytes
		// the peer never promised.
		return 0, nil, fmt.Errorf("fsnet: frame length %d out of range", n)
	}
	_, _ = r.Discard(4)
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	payload := getFrameBuf(int(n) - 1)
	if _, err := io.ReadFull(r, payload); err != nil {
		putFrameBuf(payload)
		return 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	return typ, payload, nil
}

// Request-ID framing: u32 length (type + id + payload), u8 type, u64
// request ID, payload. The request ID ties a reply to its request so a
// pipelined connection may return replies out of order. (The constant is
// named for the protocol version that introduced the header; the
// wire-format pin test, which must not change, spells it this way.)
const v2HdrLen = 1 + 8 // type + request ID, inside the length prefix

// putFrameID buffers one request-ID frame without flushing. The header is
// built in the writer's own spare capacity: a local array handed to Write
// escapes through bufio's io.Writer and costs an allocation per frame.
func putFrameID(w *bufio.Writer, typ uint8, id uint64, payload []byte) error {
	if len(payload)+v2HdrLen > maxFrame {
		return fmt.Errorf("fsnet: frame of %d bytes exceeds limit", len(payload)+v2HdrLen)
	}
	if w.Available() < 4+v2HdrLen {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	hdr := binary.BigEndian.AppendUint32(w.AvailableBuffer(), uint32(len(payload)+v2HdrLen))
	hdr = append(hdr, typ)
	hdr = binary.BigEndian.AppendUint64(hdr, id)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameID reads one request-ID frame, returning its type, request ID,
// and payload. The payload aliases a pooled buffer; hand it back via
// putFrameBuf once fully decoded. As in readFrame, the frame header is
// read separately so the recycled payload keeps its full capacity.
func readFrameID(r *bufio.Reader) (uint8, uint64, []byte, error) {
	lenb, err := peekN(r, 4)
	if err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(lenb)
	if n < v2HdrLen || n > maxFrame {
		// As in readFrame: reject the length before demanding the inner
		// header, so a runt frame errors instead of blocking.
		return 0, 0, nil, fmt.Errorf("fsnet: frame length %d out of range", n)
	}
	_, _ = r.Discard(4)
	hdr, err := peekN(r, v2HdrLen)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	typ, id := hdr[0], binary.BigEndian.Uint64(hdr[1:])
	_, _ = r.Discard(v2HdrLen)
	payload := getFrameBuf(int(n) - v2HdrLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		putFrameBuf(payload)
		return 0, 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	return typ, id, payload, nil
}

// frameBufPool recycles frame bodies across requests. Decoders copy every
// string and blob they keep, so a frame buffer is free for reuse as soon
// as its payload has been decoded; the hot open path then performs no
// per-frame allocation beyond the decoded file contents themselves.
//
// The pool stores *[]byte, not []byte: putting a bare slice into a
// sync.Pool boxes its header on every Put (one hidden allocation per
// recycled frame — measured as a top allocator before this change). The
// pointer boxes themselves cycle through boxPool, so steady-state
// get/put pairs allocate nothing at all.
var frameBufPool = sync.Pool{New: func() interface{} {
	b := make([]byte, 0, 4096)
	return &b
}}

// boxPool recycles the empty *[]byte headers frameBufPool threads its
// buffers through.
var boxPool = sync.Pool{New: func() interface{} { return new([]byte) }}

func getFrameBuf(n int) []byte {
	bp := frameBufPool.Get().(*[]byte)
	b := *bp
	*bp = nil
	boxPool.Put(bp)
	if cap(b) < n {
		putFrameBuf(b) // keep the small one for small frames
		return make([]byte, n)
	}
	return b[:n]
}

// putFrameBuf returns a frame payload (or body) to the pool. Accepts the
// payload sub-slice handed out by readFrame/readFrameID; the lost header
// bytes of capacity are irrelevant to reuse.
func putFrameBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxFrame {
		return
	}
	bp := boxPool.Get().(*[]byte)
	*bp = b[:0]
	frameBufPool.Put(bp)
}

// getEncodeBuf returns a zero-length pooled buffer for append-style
// encoding; hand the grown result back via putFrameBuf once written.
func getEncodeBuf() []byte {
	return getFrameBuf(0)
}

// writeHello frames a msgHello or msgHelloOK: the protocol version, then
// a client cache capacity in whole files. In a msgHello it is the size of
// the (empty) cache the client asks the server to shadow so that members
// it already holds can be validated instead of re-sent; zero asks for no
// validation. In a msgHelloOK it is what the server agreed to shadow — the
// offer, or zero.
func writeHello(w io.Writer, typ uint8, version int, capacity uint64) error {
	var v [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(v[:], uint64(version))
	n += binary.PutUvarint(v[n:], capacity)
	return writeFrame(w, typ, v[:n])
}

// decodeHello accepts a hello that ends after the version (capacity zero):
// that is what the generations before the capacity field sent, and they
// must reach the version check to be refused by number.
func decodeHello(payload []byte) (version int, capacity uint64, err error) {
	d := decoder{buf: payload}
	v, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if v == 0 || v > 1<<16 {
		return 0, 0, fmt.Errorf("fsnet: protocol version %d out of range", v)
	}
	if len(d.buf) > 0 {
		if capacity, err = d.uvarint(); err != nil {
			return 0, 0, err
		}
	}
	if err := d.done(); err != nil {
		return 0, 0, err
	}
	return int(v), capacity, nil
}

// Payload encoding helpers: strings and byte blobs are uvarint length +
// bytes; counts are uvarints.

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, data []byte) []byte {
	b = appendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

// decoder consumes a payload buffer.
type decoder struct {
	buf []byte
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errors.New("fsnet: truncated varint")
	}
	d.buf = d.buf[n:]
	return v, nil
}

// span consumes the next length-prefixed run of bytes — what names it in
// errors — as a view aliasing the payload buffer: no copy, valid only
// while the buffer is.
func (d *decoder) span(limit int, what string) ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(limit) {
		return nil, fmt.Errorf("fsnet: %s of %d bytes exceeds limit %d", what, n, limit)
	}
	if uint64(len(d.buf)) < n {
		return nil, errors.New("fsnet: truncated " + what)
	}
	v := d.buf[:n]
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) str(limit int) (string, error) {
	v, err := d.span(limit, "string")
	return string(v), err
}

// view is str without the copy: the string's bytes where they lie.
func (d *decoder) view(limit int) ([]byte, error) { return d.span(limit, "string") }

// blobView is bytes without the copy.
func (d *decoder) blobView(limit int) ([]byte, error) { return d.span(limit, "blob") }

func (d *decoder) done() error {
	if len(d.buf) != 0 {
		return fmt.Errorf("fsnet: %d trailing payload bytes", len(d.buf))
	}
	return nil
}

// openUnvalidated is the one msgOpen flag: the client's cache is no longer
// what a replay of this connection's requests and replies would make it —
// it shed history, found a header-only chunk it could not honour, or is
// not caching these replies at all — so the server must stop validating
// for the rest of the connection's life.
const openUnvalidated = 0x01

// appendOpenRequest appends a msgOpen payload to dst: the demanded path,
// then the piggybacked list of paths the client accessed (hit or miss)
// since its previous request, oldest first. The list excludes the
// demanded path itself, which the server appends to the learned stream on
// arrival. One flags byte may follow the list; it is omitted when zero, so
// the sender appends it itself.
func appendOpenRequest(dst []byte, path string, accessed []string) []byte {
	dst = appendString(dst, path)
	dst = appendUvarint(dst, uint64(len(accessed)))
	for _, p := range accessed {
		dst = appendString(dst, p)
	}
	return dst
}

// parseOpenRequest validates a msgOpen payload and returns the demanded
// path plus the piggybacked paths appended to accessed, all as views
// aliasing payload — no copies, valid only while the payload buffer is —
// and the flags byte (zero when the payload ends without one). Empty
// piggybacked paths carry no access and are dropped.
func parseOpenRequest(payload []byte, accessed [][]byte) (path []byte, _ [][]byte, flags uint8, err error) {
	d := decoder{buf: payload}
	if path, err = d.view(maxPath); err != nil {
		return nil, accessed, 0, err
	}
	if len(path) == 0 {
		return nil, accessed, 0, errors.New("fsnet: empty path")
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, accessed, 0, err
	}
	if n > maxStatPaths {
		return nil, accessed, 0, fmt.Errorf("fsnet: %d piggybacked paths exceed limit %d", n, maxStatPaths)
	}
	for i := uint64(0); i < n; i++ {
		p, err := d.view(maxPath)
		if err != nil {
			return nil, accessed, 0, err
		}
		if len(p) != 0 {
			accessed = append(accessed, p)
		}
	}
	if len(d.buf) == 1 {
		if flags, d.buf = d.buf[0], nil; flags&^openUnvalidated != 0 {
			return nil, accessed, 0, fmt.Errorf("fsnet: unknown open flags %#x", flags)
		}
	}
	return path, accessed, flags, d.done()
}

// handoffRequest is the payload of msgHandoff: one drained group's
// anchor path plus learned members, successor order preserved.
type handoffRequest struct {
	Anchor  string
	Members []string
}

func encodeHandoffRequest(req handoffRequest) []byte {
	b := appendString(nil, req.Anchor)
	b = appendUvarint(b, uint64(len(req.Members)))
	for _, p := range req.Members {
		b = appendString(b, p)
	}
	return b
}

func decodeHandoffRequest(payload []byte) (handoffRequest, error) {
	d := decoder{buf: payload}
	var req handoffRequest
	var err error
	if req.Anchor, err = d.str(maxPath); err != nil {
		return req, err
	}
	if req.Anchor == "" {
		return req, errors.New("fsnet: empty anchor path")
	}
	n, err := d.uvarint()
	if err != nil {
		return req, err
	}
	if n == 0 || n > maxGroup {
		return req, fmt.Errorf("fsnet: handoff of %d members out of range", n)
	}
	req.Members = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		p, err := d.str(maxPath)
		if err != nil {
			return req, err
		}
		if p == "" {
			return req, errors.New("fsnet: empty handoff member path")
		}
		req.Members = append(req.Members, p)
	}
	if err := d.done(); err != nil {
		return req, err
	}
	return req, nil
}

// writeRequest is the payload of msgWrite.
type writeRequest struct {
	Path string
	Data []byte
}

func encodeWriteRequest(req writeRequest) []byte {
	b := make([]byte, 0, len(req.Path)+len(req.Data)+2*binary.MaxVarintLen32)
	b = appendString(b, req.Path)
	return appendBytes(b, req.Data)
}

// parseWriteRequest validates a msgWrite payload and returns its path and
// contents as views into it — the store copies what it keeps — so the
// frame outlives both.
func parseWriteRequest(payload []byte) (path, data []byte, err error) {
	d := decoder{buf: payload}
	if path, err = d.view(maxPath); err != nil {
		return nil, nil, err
	}
	if len(path) == 0 {
		return nil, nil, errors.New("fsnet: empty path")
	}
	if data, err = d.blobView(maxFileSize); err != nil {
		return nil, nil, err
	}
	return path, data, d.done()
}

// A msgWriteOK carries the tag the store gave the written contents, so
// the writer's cached copy keeps a validator it never has to compute.
func appendWriteOK(dst []byte, tag uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, tag)
}

func decodeWriteOK(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("fsnet: write ack of %d bytes, want 8", len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}

func appendErrorResponse(dst []byte, resp errorResponse) []byte {
	dst = appendUvarint(dst, uint64(resp.Code))
	return appendString(dst, resp.Message)
}

func decodeErrorResponse(payload []byte) (errorResponse, error) {
	d := decoder{buf: payload}
	var resp errorResponse
	code, err := d.uvarint()
	if err != nil {
		return resp, err
	}
	resp.Code = uint32(code)
	if resp.Message, err = d.str(maxPath); err != nil {
		return resp, err
	}
	if err := d.done(); err != nil {
		return resp, err
	}
	return resp, nil
}

// Streamed group replies. A group reply is n msgMemberChunk frames —
// each carrying one file's path, content tag and contents — closed by one
// msgGroupEnd frame carrying the member count. All are request-ID framed,
// so chunks of different pipelined requests may interleave; within one
// request ID, chunks arrive in group order with the demanded file first.
//
// A member the server knows the client holds unchanged (DESIGN.md §11)
// crosses as a header-only chunk: path and tag, flagged chunkHeld, no
// contents. The demanded file never does.
//
// The server never materializes a chunk frame as one contiguous buffer:
// appendMemberChunkHdr builds everything up to the file contents in a
// pooled scratch slice, and the contents ride as their own element of a
// net.Buffers scatter-gather write, straight from the store's slice.

// chunkHeld flags a header-only member chunk.
const chunkHeld = 0x01

// appendMemberChunkHdr appends a member chunk's frame header and metadata
// to dst: u32 length, type, request ID, uvarint path length, path bytes,
// flags byte, u64 tag, and — unless held — the uvarint data length, after
// which the file contents (dataLen bytes) must follow on the wire
// immediately. A held chunk ends with its tag.
func appendMemberChunkHdr(dst []byte, id uint64, path string, tag uint64, dataLen int, held bool) []byte {
	meta := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length, patched below
	dst = append(dst, msgMemberChunk)
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = appendString(dst, path)
	if held {
		dst, dataLen = append(dst, chunkHeld), 0
		dst = binary.BigEndian.AppendUint64(dst, tag)
	} else {
		dst = binary.BigEndian.AppendUint64(append(dst, 0), tag)
		dst = appendUvarint(dst, uint64(dataLen))
	}
	payloadLen := len(dst) - meta - 4 + dataLen
	binary.BigEndian.PutUint32(dst[meta:meta+4], uint32(payloadLen))
	return dst
}

// appendFrameID appends one complete request-ID frame (header plus
// payload) to dst; the scatter-gather reply path uses it for the small
// frames (group end, write/handoff acks, errors) that share a batch with
// streamed chunks.
func appendFrameID(dst []byte, typ uint8, id uint64, payload []byte) []byte {
	dst = append(dst, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(dst[len(dst)-4:], uint32(len(payload)+v2HdrLen))
	dst = append(dst, typ)
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, payload...)
}

// memberChunkView decodes a msgMemberChunk payload into views aliasing
// the payload buffer — no copies; the caller owns the buffer until it is
// done with both views. A held chunk has nil data.
func memberChunkView(payload []byte) (path, data []byte, tag uint64, held bool, err error) {
	d := decoder{buf: payload}
	n, err := d.uvarint()
	if err != nil {
		return nil, nil, 0, false, err
	}
	if n == 0 || n > maxPath {
		return nil, nil, 0, false, fmt.Errorf("fsnet: chunk path of %d bytes out of range", n)
	}
	if uint64(len(d.buf)) < n {
		return nil, nil, 0, false, errors.New("fsnet: truncated chunk path")
	}
	path, d.buf = d.buf[:n], d.buf[n:]
	if len(d.buf) < 1+8 {
		return nil, nil, 0, false, errors.New("fsnet: truncated chunk tag")
	}
	flags := d.buf[0]
	tag, d.buf = binary.BigEndian.Uint64(d.buf[1:]), d.buf[1+8:]
	switch flags {
	case chunkHeld:
		return path, nil, tag, true, d.done()
	case 0:
	default:
		return nil, nil, 0, false, fmt.Errorf("fsnet: unknown chunk flags %#x", flags)
	}
	n, err = d.uvarint()
	if err != nil {
		return nil, nil, 0, false, err
	}
	if n > maxFileSize {
		return nil, nil, 0, false, fmt.Errorf("fsnet: chunk of %d bytes exceeds limit %d", n, maxFileSize)
	}
	if uint64(len(d.buf)) != n {
		return nil, nil, 0, false, fmt.Errorf("fsnet: chunk data length %d, frame carries %d", n, len(d.buf))
	}
	return path, d.buf, tag, false, nil
}

// appendGroupEnd appends a msgGroupEnd payload (the member count) to dst.
func appendGroupEnd(dst []byte, count int) []byte {
	return appendUvarint(dst, uint64(count))
}

func decodeGroupEnd(payload []byte) (int, error) {
	d := decoder{buf: payload}
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n == 0 || n > maxGroup {
		return 0, fmt.Errorf("fsnet: group of %d files out of range", n)
	}
	if err := d.done(); err != nil {
		return 0, err
	}
	return int(n), nil
}
