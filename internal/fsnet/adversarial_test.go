package fsnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// Adversarial server tests: hostile or broken peers must get a typed
// msgError or a clean departure — with ServerStats.Errors advancing —
// and must never disturb service to healthy clients.

// rawDial opens an unmanaged connection for crafting hostile frames.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// waitServerErrors polls until the server error counter reaches want (or
// times out), absorbing handler-goroutine scheduling delay.
func waitServerErrors(t *testing.T, srv *Server, want uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := srv.Stats().Errors; got >= want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertHealthy proves the server still serves a well-behaved client.
func assertHealthy(t *testing.T, addr string) {
	t.Helper()
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("healthy dial: %v", err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Errorf("healthy client failed: %v", err)
	}
}

// idFrameHdr is a hand-built request-ID frame header claiming n bytes
// after the length prefix.
func idFrameHdr(n uint32, typ uint8, id uint64) []byte {
	hdr := binary.BigEndian.AppendUint32(nil, n)
	return binary.BigEndian.AppendUint64(append(hdr, typ), id)
}

// TestAdversarialBrokenFrames: a frame the reader cannot even delimit —
// oversized, shorter than its own header, or cut off mid-payload — counts
// one error and costs the peer its connection, before the handshake and
// after it alike.
func TestAdversarialBrokenFrames(t *testing.T) {
	for _, tc := range []struct {
		name         string
		bare, framed []byte // the same fault in the hello envelope and in request-ID framing
		hangUp       bool
	}{
		{name: "oversized",
			bare:   binary.BigEndian.AppendUint32(nil, maxFrame+1),
			framed: idFrameHdr(maxFrame+1, msgOpen, 1)},
		{name: "zero-length",
			bare:   []byte{0, 0, 0, 0},
			framed: []byte{0, 0, 0, 0}},
		{name: "truncated-mid-payload", hangUp: true,
			bare:   append(binary.BigEndian.AppendUint32(nil, 101), make([]byte, 11)...),
			framed: append(idFrameHdr(v2HdrLen+100, msgOpen, 1), make([]byte, 10)...)},
	} {
		for _, stage := range []string{"before-hello", "after-hello"} {
			t.Run(tc.name+"/"+stage, func(t *testing.T) {
				srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
				conn := rawDial(t, addr)
				frame := tc.bare
				if stage == "after-hello" {
					rawHello(t, conn)
					frame = tc.framed
				}
				if _, err := conn.Write(frame); err != nil {
					t.Fatal(err)
				}
				if tc.hangUp {
					_ = conn.Close()
				} else {
					// The connection is gone: the next read sees EOF/reset.
					_ = conn.SetReadDeadline(time.Now().Add(time.Second))
					if _, err := conn.Read(make([]byte, 1)); err == nil {
						t.Error("server kept the connection after a broken frame")
					}
				}
				if got := waitServerErrors(t, srv, 1); got != 1 {
					t.Errorf("ServerStats.Errors = %d after a broken frame, want 1", got)
				}
				assertHealthy(t, addr)
			})
		}
	}
}

// TestAdversarialBadRequests: a request that frames correctly but cannot
// be served — an unknown message type, a reserved one, an open whose
// payload is garbage — fails alone with a typed msgError; the stream is
// intact, so the connection keeps serving.
func TestAdversarialBadRequests(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	rc := rawHello(t, rawDial(t, addr))
	_ = rc.SetReadDeadline(time.Now().Add(2 * time.Second))
	rc.send(t, 0x7f, 1, nil) // no such message type
	if e := rc.recvError(t, 1); e.Code != CodeBadRequest {
		t.Errorf("unknown type: error code = %d, want CodeBadRequest", e.Code)
	}
	rc.send(t, msgOpen, 2, []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	if e := rc.recvError(t, 2); e.Code != CodeBadRequest {
		t.Errorf("malformed open: error code = %d, want CodeBadRequest", e.Code)
	}
	// Type 8 was version 6's drain group transfer; it is reserved now.
	rc.send(t, 8, 3, appendString(nil, "/data/f000"))
	if e := rc.recvError(t, 3); e.Code != CodeBadRequest {
		t.Errorf("reserved type: error code = %d, want CodeBadRequest", e.Code)
	}
	rc.send(t, msgOpen, 4, appendOpenRequest(nil, "/data/f000", nil, false))
	if typ, id, _, err := readFrameID(rc.r, nil); err != nil || typ != msgMemberChunk || id != 4 {
		t.Fatalf("open after three bad requests = type %d id %d, %v; want its first chunk", typ, id, err)
	}
	if st := srv.Stats(); st.Errors != 3 || st.Requests != 1 {
		t.Errorf("server stats = %+v, want three errors and the one served open", st)
	}
}

// TestPiggybackedMissingPathsAreNotInterned: history naming files the
// store never held must not grow the server's ID space (nor, through it,
// the saved metadata), on an unrouted server and on a routed one alike;
// history naming real files still arrives.
func TestPiggybackedMissingPathsAreNotInterned(t *testing.T) {
	for name, router := range map[string]OpenRouter{"unrouted": nil, "routed": newPeerRouter()} {
		t.Run(name, func(t *testing.T) {
			srv, addr := startServer(t, seededStore(t, 4), ServerConfig{Router: router})
			rc := rawHello(t, rawDial(t, addr))
			_ = rc.SetReadDeadline(time.Now().Add(10 * time.Second))
			open := func(id uint64, accessed []string) {
				t.Helper()
				rc.send(t, msgOpen, id, appendOpenRequest(nil, "/data/f000", accessed, false))
				for {
					typ, gotID, _, err := readFrameID(rc.r, nil)
					if err != nil || gotID != id || (typ != msgMemberChunk && typ != msgGroupEnd) {
						t.Fatalf("open %d: reply type %d id %d, %v; want its group stream", id, typ, gotID, err)
					}
					if typ == msgGroupEnd {
						return
					}
				}
			}
			open(1, []string{"/data/f001", "/data/f002"})
			known := srv.ids.Len()
			if known != 3 {
				t.Fatalf("after one open with two real piggybacked paths the server knows %d paths, want 3", known)
			}
			const opens, perOpen = 10, 1000
			for o := 0; o < opens; o++ {
				bogus := make([]string, perOpen)
				for i := range bogus {
					bogus[i] = fmt.Sprintf("/missing/%d/%d", o, i)
				}
				open(uint64(2+o), bogus)
			}
			if got := srv.ids.Len(); got != known {
				t.Errorf("after %d missing piggybacked paths the server knows %d paths, was %d", opens*perOpen, got, known)
			}
			if st := srv.Stats(); st.Errors != 0 || st.Requests != 1+opens {
				t.Errorf("server stats = %+v, want %d clean opens", st, 1+opens)
			}
		})
	}
}

// TestAdversarialSilentClientDepartsCleanly: a connection that never
// writes must be dropped by the IdleTimeout path without counting as a
// protocol error.
func TestAdversarialSilentClientDepartsCleanly(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{IdleTimeout: 60 * time.Millisecond})
	conn := rawDial(t, addr)
	// Never write; wait for the idle deadline to fire.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); !errors.Is(err, io.EOF) {
		// The server closes without writing, so EOF is the clean signal.
		t.Fatalf("idle departure read = %v, want EOF", err)
	}
	if got := srv.Stats().Errors; got != 0 {
		t.Errorf("idle departure advanced Errors to %d; want clean departure", got)
	}
	assertHealthy(t, addr)
}

// TestServerMaxConnsRejectsGracefully: the accept limit turns excess
// connections away with CodeBusy instead of hanging or crashing them.
func TestServerMaxConnsRejectsGracefully(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 4), ServerConfig{MaxConns: 2})
	// Two live clients occupy both slots.
	c1, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c1.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Open("/data/f001"); err != nil {
		t.Fatal(err)
	}

	// The third connection gets a CodeBusy error frame, then close.
	conn := rawDial(t, addr)
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	typ, payload, err := readFrame(r)
	if err != nil {
		t.Fatalf("no rejection frame: %v", err)
	}
	if typ != msgError {
		t.Fatalf("rejection type = %d, want msgError", typ)
	}
	e, err := decodeErrorResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if e.Code != CodeBusy {
		t.Errorf("rejection code = %d, want CodeBusy", e.Code)
	}
	if got := srv.Stats().Rejected; got != 1 {
		t.Errorf("Rejected = %d, want 1", got)
	}
	// Both admitted clients still work.
	if _, err := c1.Open("/data/f002"); err != nil {
		t.Errorf("admitted client failed after rejection: %v", err)
	}

	// Freeing a slot readmits new connections.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		c3, err := Dial(addr, ClientConfig{})
		if err == nil {
			_, err = c3.Open("/data/f003")
			_ = c3.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after client close")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerWriteTimeoutUnwedgesStalledReader: a peer that requests a
// large group and then never reads must not pin its handler forever; the
// write deadline fires and the connection is dropped (Disconnects
// advances).
func TestServerWriteTimeoutUnwedgesStalledReader(t *testing.T) {
	store := NewStore()
	// One big file so the reply overwhelms kernel socket buffers.
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := store.Put("/big", big); err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, store, ServerConfig{WriteTimeout: 150 * time.Millisecond})

	rc := rawHello(t, rawDial(t, addr))
	rc.send(t, msgOpen, 1, appendOpenRequest(nil, "/big", nil, false))
	// Never read the multi-megabyte reply. The handler must give up on
	// its own (not because we closed).
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().Disconnects == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled reader never disconnected; handler wedged")
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertHealthyPath(t, addr, "/big", big)
}

// assertHealthyPath checks a full round trip for an explicit path.
func assertHealthyPath(t *testing.T, addr, path string, want []byte) {
	t.Helper()
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("healthy dial: %v", err)
	}
	defer client.Close()
	data, err := client.Open(path)
	if err != nil {
		t.Fatalf("healthy open: %v", err)
	}
	if len(data) != len(want) {
		t.Errorf("healthy open returned %d bytes, want %d", len(data), len(want))
	}
}

// TestServerPanicRecovery: a handler panic must be converted into a
// msgError (CodeInternal) reply for its own request, a panic in the
// connection's read loop must cost only that connection, both must be
// counted, and neither may take the process or the accept loop down.
func TestServerPanicRecovery(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{Router: panicRouter{}})

	rc := rawHello(t, rawDial(t, addr))
	_ = rc.SetReadDeadline(time.Now().Add(2 * time.Second))
	rc.send(t, msgOpen, 1, appendOpenRequest(nil, "/panic", nil, false))
	if e := rc.recvError(t, 1); e.Code != CodeInternal {
		t.Errorf("recovery code = %d, want CodeInternal", e.Code)
	}
	// The connection survives its handler's panic.
	rc.send(t, msgOpen, 2, appendOpenRequest(nil, "/data/f000", nil, false))
	if typ, id, _, err := readFrameID(rc.r, nil); err != nil || typ != msgMemberChunk || id != 2 {
		t.Fatalf("open after the panic = type %d id %d, %v; want its first chunk", typ, id, err)
	}

	// Drive handleConn directly over a pipe whose second Read panics: the
	// hello is served, the read of the first request blows up.
	srvConn, clientConn := net.Pipe()
	defer clientConn.Close()
	go func() {
		defer srvConn.Close()
		srv.handleConn(&panicConn{Conn: srvConn, panicAt: 2}, 999)
	}()
	_ = clientConn.SetDeadline(time.Now().Add(2 * time.Second))
	pc := rawHello(t, clientConn)
	pc.send(t, msgOpen, 1, appendOpenRequest(nil, "/data/f000", nil, false))
	if _, _, _, err := readFrameID(pc.r, nil); err == nil {
		t.Error("connection outlived a read-loop panic")
	}
	if got := srv.Stats().Panics; got != 2 {
		t.Errorf("Panics = %d, want the handler's and the read loop's", got)
	}
	// The server proper is unharmed.
	assertHealthy(t, addr)
}

// panicRouter blows up on one path and declines the rest.
type panicRouter struct{}

func (panicRouter) RouteOpen(path string, _ []string) ([]GroupFile, bool, error) {
	if path == "/panic" {
		panic("injected handler panic")
	}
	return nil, false, nil
}

// panicConn panics on the panicAt-th Read call, simulating a connection
// whose read loop blows up. With net.Pipe and whole-frame writes, each
// frame arrives as exactly one Read.
type panicConn struct {
	net.Conn
	reads   int
	panicAt int
}

func (p *panicConn) Read(b []byte) (int, error) {
	n, err := p.Conn.Read(b)
	p.reads++
	if p.reads == p.panicAt {
		// Consume the frame first (net.Pipe writes block until read), then
		// blow up while "handling" it.
		panic("injected read-loop panic")
	}
	return n, err
}
