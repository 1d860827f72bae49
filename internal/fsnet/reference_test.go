package fsnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"testing"
)

// Reference codecs and raw-wire helpers for the tests. The encoders and
// decoders here are the historical, allocate-per-field forms the serving
// path no longer runs: tests keep them as the independent implementation
// the production codecs are compared against (the differential fuzz of
// parseOpenRequest, the reply-hash pin).

// openRequest is a decoded msgOpen payload.
type openRequest struct {
	Path     string
	Accessed []string
	Flags    uint8
}

func encodeOpenRequest(req openRequest) []byte {
	b := appendOpenRequest(nil, req.Path, req.Accessed)
	if req.Flags != 0 {
		b = append(b, req.Flags)
	}
	return b
}

// decodeOpenRequest is the reference decoder for parseOpenRequest: same
// accept/reject contract, but every path copied into a string and empty
// piggybacked paths kept.
func decodeOpenRequest(payload []byte) (openRequest, error) {
	d := decoder{buf: payload}
	var req openRequest
	var err error
	if req.Path, err = d.str(maxPath); err != nil {
		return req, err
	}
	if req.Path == "" {
		return req, errors.New("fsnet: empty path")
	}
	n, err := d.uvarint()
	if err != nil {
		return req, err
	}
	if n > maxStatPaths {
		return req, fmt.Errorf("fsnet: %d piggybacked paths exceed limit %d", n, maxStatPaths)
	}
	req.Accessed = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		p, err := d.str(maxPath)
		if err != nil {
			return req, err
		}
		req.Accessed = append(req.Accessed, p)
	}
	if len(d.buf) == 1 {
		if req.Flags, d.buf = d.buf[0], nil; req.Flags&^openUnvalidated != 0 {
			return req, fmt.Errorf("fsnet: unknown open flags %#x", req.Flags)
		}
	}
	return req, d.done()
}

// msgGroupV1 is the reserved type number of the retired contiguous group
// reply, and appendGroupResponse its payload encoder: together they are
// the form the reply-hash pin was captured in.
const msgGroupV1 = uint8(2)

func appendGroupResponse(dst []byte, files []fileData) []byte {
	dst = appendUvarint(dst, uint64(len(files)))
	for _, f := range files {
		dst = appendString(dst, f.Path)
		dst = appendBytes(dst, f.Data)
	}
	return dst
}

// rawConn is an unmanaged connection past the handshake, for crafting
// request-ID frames by hand.
type rawConn struct {
	net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

// rawHello completes the client side of the handshake on conn, asking for
// no validation: every reply arrives in full.
func rawHello(t testing.TB, conn net.Conn) *rawConn { return rawHelloCap(t, conn, 0) }

// rawHelloCap is rawHello declaring a client cache of capacity files for
// the server to shadow, which the server must agree to.
func rawHelloCap(t testing.TB, conn net.Conn, capacity uint64) *rawConn {
	t.Helper()
	rc := &rawConn{Conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := writeHello(conn, msgHello, protocolVersion, capacity); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(rc.r)
	if err != nil || typ != msgHelloOK {
		t.Fatalf("handshake reply = type %d, %v; want msgHelloOK", typ, err)
	}
	if ver, shadowed, err := decodeHello(payload); err != nil || ver != protocolVersion || shadowed != capacity {
		t.Fatalf("handshake reply = version %d, capacity %d, %v; want %d, %d", ver, shadowed, err, protocolVersion, capacity)
	}
	putFrameBuf(payload)
	return rc
}

// send writes one request-ID frame and flushes it.
func (rc *rawConn) send(t testing.TB, typ uint8, id uint64, payload []byte) {
	t.Helper()
	err := putFrameID(rc.w, typ, id, payload)
	if err == nil {
		err = rc.w.Flush()
	}
	if err != nil {
		t.Fatalf("send type %d id %d: %v", typ, id, err)
	}
}

// recvError reads one frame and requires it to be the msgError for id.
func (rc *rawConn) recvError(t testing.TB, id uint64) errorResponse {
	t.Helper()
	typ, gotID, payload, err := readFrameID(rc.r)
	if err != nil {
		t.Fatalf("no reply to request %d: %v", id, err)
	}
	if typ != msgError || gotID != id {
		t.Fatalf("reply = type %d id %d, want msgError for %d", typ, gotID, id)
	}
	e, err := decodeErrorResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
