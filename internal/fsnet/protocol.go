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
// msgGroupEnd, in request order (DESIGN.md §4).
package fsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Message types.
const (
	// msgOpen is a client->server open request: the demanded path plus
	// the piggybacked list of paths the client accessed (hit or miss)
	// since its previous request to this server, in order, flagged when
	// older entries were shed before it.
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
	// msgHello is the client's protocol-version offer, the first frame of
	// every connection. A server answers an offer below protocolVersion —
	// or any other first frame — with one msgError and closes.
	msgHello
	// msgHelloOK is the server's handshake reply carrying the version the
	// connection speaks and the epoch of the server's membership view (0:
	// the server is in no ring). Every later frame carries a request ID, and
	// the server answers each connection's requests in request order.
	msgHelloOK
	// Types 8 and 9 are reserved: they were a drain's group transfer and
	// its ack in protocol version 6. Nothing sends them and no reader
	// accepts them.
	_
	_
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
	// A server piggybacks it unsolicited under request ID 0 ahead of its
	// reply batches, deduplicated per epoch per connection, and it is the
	// ack to msgViewPush. Only servers send it.
	msgViewHint
	// msgViewPull asks the receiver for its membership view. The payload
	// has viewMsg's layout; a client sends epoch 0 and no address, and
	// the receiver ignores both. Answered with msgViewPush carrying the
	// receiver's full view.
	msgViewPull
	// msgViewPush carries a full membership view — epoch, sender address,
	// and the peer list — for the receiver to validate and install. A
	// client leaves the sender empty; the receiver ignores it. Acked with
	// msgViewHint carrying the receiver's resulting epoch.
	msgViewPush
	// msgTraceCtx is the distributed-tracing piggyback: an unsolicited
	// frame under request ID 0 announcing the trace context (128-bit
	// trace ID, parent span ID, flags) of the request frame that follows
	// it in the same batch, matched by the annotated request ID it
	// carries. Sent only for head-sampled requests; a receiver without a
	// tracer skips it.
	msgTraceCtx
	// msgPeerHint is a node->node stage hint: paths the sender's deep
	// build predicted, best first, which the receiver owns. The receiver
	// stages those it owns under its own view and answers msgPeerHintOK,
	// an empty ack. Clients never send or see one.
	msgPeerHint
	msgPeerHintOK
)

// protocolVersion is the one protocol version this package speaks: the
// hello exchange carrying the server's view epoch, request-ID framing with
// each connection's replies in request order, opens that carry the
// client's residency report and a gap flag on their history, streamed
// group replies whose member chunks carry a content tag and may be
// header-only, and the nodes' stage hints (DESIGN.md §4). The number is a
// wire value — earlier ones were the lock-step, assembled-reply,
// untagged-stream, replayed-shadow and any-order-reply generations it
// replaced, the one whose drains sent group transfers (types 8 and 9), and
// version 7, whose opens had no gap flag and whose nodes sent no hints —
// and the handshake exists to turn a peer built before or after it away
// with a typed error instead of a desynchronised stream.
const protocolVersion = 8

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

// GroupFile is one file of a group, as exposed to code embedding the
// client or server — the cluster peer tier (internal/cluster) routes
// whole groups of these between nodes. The demanded file always leads a
// group; the rest are its opportunistically fetched members.
type GroupFile struct {
	Path string
	Data []byte
	// Tag is the validator of Data: a 64-bit tag of the contents, computed
	// once by the store that holds them and carried unchanged by every hop
	// (DESIGN.md §4). Equal non-zero tags of one path mean equal contents;
	// zero means "no validator", and such a member is always sent in full.
	Tag uint64
}

// errorResponse is the payload of msgError.
type errorResponse struct {
	Code    uint32
	Message string
}

// err is the error a client's call fails with on this answer:
// CodeNotFound is ErrNotFound.
func (e errorResponse) err() error {
	if e.Code == CodeNotFound {
		return fmt.Errorf("%w: %s", ErrNotFound, e.Message)
	}
	return fmt.Errorf("fsnet: server error %d: %s", e.Code, e.Message)
}

// Bare frames — u32 length (type + payload), u8 type, payload — are the
// handshake envelope: the hello, its answer, and a refusal sent before
// any handshake. Everything after msgHelloOK is request-ID framed.

// writeFrame writes one bare frame to w in a single Write. It runs once
// a connection, so its buffer is its own.
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("fsnet: frame of %d bytes exceeds limit", len(payload)+1)
	}
	b := binary.BigEndian.AppendUint32(make([]byte, 0, 5+len(payload)), uint32(len(payload)+1))
	b = append(append(b, typ), payload...)
	_, err := w.Write(b)
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

// readFrame reads one bare frame, returning its type and a payload of its
// own: a handshake reads one.
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
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	return typ, payload, nil
}

// Request-ID framing: u32 length (type + id + payload), u8 type, u64
// request ID, payload. The request ID ties a reply to its request: a
// pipelined connection's replies come back in request order, so each must
// carry the ID of the oldest request still unanswered. (The constant is
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

// readFrameID reads one request-ID frame and appends its payload to buf,
// returning its type, its request ID and the grown buffer; the payload is
// the grown buffer past len(buf). A frame's bytes belong to the connection
// that reads them and stay valid until its next read into the same buffer:
// what a reader keeps it copies or decodes before then (DESIGN.md §4).
func readFrameID(r *bufio.Reader, buf []byte) (uint8, uint64, []byte, error) {
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
	start := len(buf)
	buf = slices.Grow(buf, int(n)-v2HdrLen)[:start+int(n)-v2HdrLen]
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		return 0, 0, nil, fmt.Errorf("fsnet: short frame: %w", err)
	}
	return typ, id, buf, nil
}

// maxKeptBuf bounds the buffers a connection keeps between frames: its
// request buffer and reply arena on a server, its request batch and reply
// buffer on a client. A buffer that grew past it for one large frame — a
// big write, a group with a big member — is dropped after that frame, and
// the connection goes on with the buffer it had, so one large file does
// not pin its size on every connection that once carried it. 1 MiB holds
// more than ten of the benchmark's groups of five 16 KiB files; frames
// over it are unmeasured (DESIGN.md §4).
const maxKeptBuf = 1 << 20

// keepBuf returns the buffer a connection keeps after a frame: grown,
// emptied, unless it grew past maxKeptBuf; then the one it kept before.
func keepBuf(kept, grown []byte) []byte {
	if cap(grown) > maxKeptBuf {
		return kept[:0]
	}
	return grown[:0]
}

// writeHello frames a msgHello or msgHelloOK: the protocol version, then
// in a msgHelloOK the server's view epoch. A msgHello has no second field.
func writeHello(w io.Writer, typ uint8, version int, epoch uint64) error {
	var v [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(v[:], uint64(version))
	if typ == msgHelloOK {
		n += binary.PutUvarint(v[n:], epoch)
	}
	return writeFrame(w, typ, v[:n])
}

// decodeHello accepts a hello that ends after the version (epoch zero),
// and one with a second field: the generation before this one declared a
// cache capacity there, and it must reach the version check to be refused
// by number.
func decodeHello(payload []byte) (version int, epoch uint64, err error) {
	d := decoder{buf: payload}
	v, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if v == 0 || v > 1<<16 {
		return 0, 0, fmt.Errorf("fsnet: protocol version %d out of range", v)
	}
	if len(d.buf) > 0 {
		if epoch, err = d.uvarint(); err != nil {
			return 0, 0, err
		}
	}
	if err := d.done(); err != nil {
		return 0, 0, err
	}
	return int(v), epoch, nil
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

// appendOpenRequest appends a msgOpen payload to dst: the demanded path,
// then the piggybacked list of paths the client accessed (hit or miss)
// since its previous request to this server, oldest first, its count
// sent as uvarint 2 × count + gap. The list excludes the demanded path
// itself, which the server appends to the learned stream on arrival. gap
// says entries older than the list were shed: the server forgets the
// connection's last access before it learns the list, so it never learns
// a succession across the gap. A residency report (appendReport) may
// follow; a payload that ends after the list reports nothing.
func appendOpenRequest(dst []byte, path string, accessed []string, gap bool) []byte {
	dst = appendString(dst, path)
	n := uint64(len(accessed)) << 1
	if gap {
		n |= 1
	}
	dst = appendUvarint(dst, n)
	for _, p := range accessed {
		dst = appendString(dst, p)
	}
	return dst
}

// reportEntry is one line of a residency report: a file whose state at
// the client the connection's server does not know yet — the tag the
// client now holds it at, or 0 for a file it no longer holds.
type reportEntry struct {
	path []byte
	tag  uint64
}

// maxReport bounds a report's entries; what does not fit rides the next
// request.
const maxReport = maxStatPaths

// appendReportHdr and appendReportEntry append a residency report to a
// msgOpen payload: a uvarint count, then each entry as its path and a u64
// tag (DESIGN.md §4).
func appendReportHdr(dst []byte, n int) []byte { return appendUvarint(dst, uint64(n)) }

func appendReportEntry(dst []byte, path string, tag uint64) []byte {
	return binary.BigEndian.AppendUint64(appendString(dst, path), tag)
}

// parseOpenRequest validates a msgOpen payload and returns the demanded
// path, the piggybacked paths appended to accessed, the history's gap flag
// and the report entries appended to report, all as views aliasing
// payload — no copies, valid only while the payload buffer is. Empty
// piggybacked paths carry no access and are dropped.
func parseOpenRequest(payload []byte, accessed [][]byte, report []reportEntry) (path []byte, _ [][]byte, gap bool, _ []reportEntry, err error) {
	d := decoder{buf: payload}
	if path, err = d.view(maxPath); err != nil {
		return nil, accessed, false, report, err
	}
	if len(path) == 0 {
		return nil, accessed, false, report, errors.New("fsnet: empty path")
	}
	n, err := d.uvarint()
	if err != nil {
		return nil, accessed, false, report, err
	}
	gap, n = n&1 != 0, n>>1
	if n > maxStatPaths {
		return nil, accessed, false, report, fmt.Errorf("fsnet: %d piggybacked paths exceed limit %d", n, maxStatPaths)
	}
	for i := uint64(0); i < n; i++ {
		p, err := d.view(maxPath)
		if err != nil {
			return nil, accessed, false, report, err
		}
		if len(p) != 0 {
			accessed = append(accessed, p)
		}
	}
	if len(d.buf) == 0 {
		return path, accessed, gap, report, nil
	}
	if n, err = d.uvarint(); err != nil {
		return nil, accessed, false, report, err
	}
	if n == 0 || n > maxReport {
		return nil, accessed, false, report, fmt.Errorf("fsnet: report of %d entries out of range [1,%d]", n, maxReport)
	}
	for i := uint64(0); i < n; i++ {
		p, err := d.view(maxPath)
		if err != nil {
			return nil, accessed, false, report, err
		}
		if len(p) == 0 || len(d.buf) < 8 {
			return nil, accessed, false, report, errors.New("fsnet: malformed report entry")
		}
		report = append(report, reportEntry{path: p, tag: binary.BigEndian.Uint64(d.buf)})
		d.buf = d.buf[8:]
	}
	return path, accessed, gap, report, d.done()
}

// appendPeerHint appends a msgPeerHint payload to dst: a uvarint count,
// then the paths, best prediction first. Its ack, msgPeerHintOK, is empty.
func appendPeerHint(dst []byte, paths []string) []byte {
	dst = appendUvarint(dst, uint64(len(paths)))
	for _, p := range paths {
		dst = appendString(dst, p)
	}
	return dst
}

// parsePeerHint validates a msgPeerHint payload and appends its paths to
// paths as views aliasing payload. Empty paths name nothing and are
// dropped.
func parsePeerHint(payload []byte, paths [][]byte) ([][]byte, error) {
	d := decoder{buf: payload}
	n, err := d.uvarint()
	if err != nil {
		return paths, err
	}
	if n > maxStatPaths {
		return paths, fmt.Errorf("fsnet: stage hint of %d paths exceeds limit %d", n, maxStatPaths)
	}
	for i := uint64(0); i < n; i++ {
		p, err := d.view(maxPath)
		if err != nil {
			return paths, err
		}
		if len(p) != 0 {
			paths = append(paths, p)
		}
	}
	return paths, d.done()
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
// A member the server knows the client holds unchanged (DESIGN.md §4)
// crosses as a header-only chunk: path and tag, flagged chunkHeld, no
// contents. The demanded file never does.
//
// The server never materializes a chunk frame as one contiguous buffer:
// appendMemberChunkHdr builds everything up to the file contents in the
// connection's reply arena, and the contents ride as their own element of a
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

// startFrameID appends a request-ID frame header to dst with its length
// left open; endFrameID closes it once the payload follows. The reply
// writer encodes its small frames (group end, write acks, view
// answers, errors) this way, in place in its arena, beside the streamed
// chunks of the same batch.
func startFrameID(dst []byte, typ uint8, id uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, typ)
	return binary.BigEndian.AppendUint64(dst, id)
}

// endFrameID patches the length of frame, which startFrameID began.
func endFrameID(frame []byte) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
}

// memberChunkView decodes a msgMemberChunk payload into views aliasing
// the payload buffer — no copies, valid until the connection's next read
// into it. A held chunk has nil data.
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
