package fsnet

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// This suite pins the streamed-group protocol (the file is named for the
// version that introduced it; the bytes are version 4's): the exact wire
// bytes, the version check at both ends of the handshake, and the
// poisoning contract when a member stream is cut or corrupted mid-flight.

// TestPinChunkWireFormat pins the exact wire bytes: a member chunk frame
// in full and header-only, and the closing group end, hex-encoded. A
// codec change that breaks this test breaks deployed peers.
func TestPinChunkWireFormat(t *testing.T) {
	// Frame: len | msgMemberChunk | id=0x0102 | pathlen=2 "/a" | flags=0 |
	// tag | datalen=3, then "xyz".
	const tag = 0x1122334455667788
	hdr := appendMemberChunkHdr(nil, 0x0102, "/a", tag, 3, false)
	frame := append(append([]byte{}, hdr...), []byte("xyz")...)
	const wantChunk = "00000019" + // length: 25 bytes after the prefix
		"0a" + // msgMemberChunk
		"0000000000000102" + // request ID
		"022f61" + // path "/a"
		"00" + // flags: contents follow
		"1122334455667788" + // content tag
		"03" + // data length
		"78797a" // "xyz"
	if got := hex.EncodeToString(frame); got != wantChunk {
		t.Errorf("member chunk wire bytes:\n got %s\nwant %s", got, wantChunk)
	}
	// The same member held by the client: the data length the caller
	// passes is what stays off the wire.
	const wantHeld = "00000015" + "0a" + "0000000000000102" + "022f61" +
		"01" + // flags: chunkHeld
		"1122334455667788" // the chunk ends with its tag
	if got := hex.EncodeToString(appendMemberChunkHdr(nil, 0x0102, "/a", tag, 3, true)); got != wantHeld {
		t.Errorf("header-only chunk wire bytes:\n got %s\nwant %s", got, wantHeld)
	}
	if path, data, gotTag, held, err := memberChunkView(mustHex(t, wantHeld)[4+v2HdrLen:]); err != nil ||
		string(path) != "/a" || data != nil || gotTag != tag || !held {
		t.Errorf("memberChunkView(header-only) = %q, %q, %#x, %v, %v", path, data, gotTag, held, err)
	}
	end := appendFrameID(nil, msgGroupEnd, 0x0102, appendGroupEnd(nil, 2))
	const wantEnd = "0000000a" + "0b" + "0000000000000102" + "02"
	if got := hex.EncodeToString(end); got != wantEnd {
		t.Errorf("group end wire bytes:\n got %s\nwant %s", got, wantEnd)
	}

	// Round trip: the views decode back to exactly what was encoded.
	payload := frame[4+v2HdrLen:]
	path, data, gotTag, held, err := memberChunkView(payload)
	if err != nil {
		t.Fatal(err)
	}
	if string(path) != "/a" || string(data) != "xyz" || gotTag != tag || held {
		t.Errorf("memberChunkView = %q, %q, %#x, %v", path, data, gotTag, held)
	}
	n, err := decodeGroupEnd(end[4+v2HdrLen:])
	if err != nil || n != 2 {
		t.Errorf("decodeGroupEnd = %d, %v; want 2, nil", n, err)
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fakeV3Server accepts connections, completes the handshake — agreeing to
// shadow whatever cache the hello declares, as a real server would — and
// hands each request frame to serve, which writes the reply directly — the
// harness for wire-level fault scripts the real server cannot be coaxed
// into. Piggybacked frames under request ID 0 (view hints, trace
// contexts) are advisory and dropped. serve returning false, or a failed
// flush after it, ends the connection.
func fakeV3Server(t *testing.T, serve func(conn net.Conn, w *bufio.Writer, typ uint8, id uint64, payload []byte) bool) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := bufio.NewReader(conn)
				w := bufio.NewWriter(conn)
				typ, payload, err := readFrame(r)
				if err != nil || typ != msgHello {
					return
				}
				_, _, err = decodeHello(payload)
				if err != nil || writeHello(conn, msgHelloOK, protocolVersion, 0) != nil {
					return
				}
				for {
					typ, id, payload, err := readFrameID(r, nil)
					if err != nil {
						return
					}
					ok := id == 0 || serve(conn, w, typ, id, payload)
					if !ok || w.Flush() != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return l.Addr().String()
}

// serveOpens adapts a script that only answers opens to fakeV3Server;
// any other request ends the connection.
func serveOpens(serve func(w *bufio.Writer, id uint64, req openRequest) bool) func(net.Conn, *bufio.Writer, uint8, uint64, []byte) bool {
	return func(_ net.Conn, w *bufio.Writer, typ uint8, id uint64, payload []byte) bool {
		req, err := decodeOpenRequest(payload)
		return typ == msgOpen && err == nil && serve(w, id, req)
	}
}

// writeChunk writes one member chunk frame for id, in full and tagged as
// a store would tag it.
func writeChunk(w *bufio.Writer, id uint64, path string, data []byte) error {
	hdr := appendMemberChunkHdr(nil, id, path, contentTag(data), len(data), false)
	_, err := w.Write(append(hdr, data...))
	return err
}

// writeHeldChunk writes one header-only member chunk for id.
func writeHeldChunk(w *bufio.Writer, id uint64, path string, tag uint64) error {
	_, err := w.Write(appendMemberChunkHdr(nil, id, path, tag, 0, true))
	return err
}

// TestMidStreamCutFailsOnlyThatCall scripts a server that serves the
// first open as a complete member stream, then cuts the connection after
// the first chunk of the second. The second call must fail with the
// typed transport error; the first call's result and a post-cut third
// call (on the redialed connection) must be untouched.
func TestMidStreamCutFailsOnlyThatCall(t *testing.T) {
	var opens atomic.Int32
	addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		switch opens.Add(1) {
		case 2:
			// Half a stream, then a hard cut: one chunk, no group end.
			_ = writeChunk(w, id, req.Path, []byte("truncated"))
			_ = w.Flush()
			time.Sleep(10 * time.Millisecond) // let the chunk land before the RST
			return false
		default:
			if err := writeChunk(w, id, req.Path, []byte("whole "+req.Path)); err != nil {
				return false
			}
			if err := writeChunk(w, id, req.Path+".member", []byte("rider")); err != nil {
				return false
			}
			return putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 2)) == nil
		}
	}))

	client, err := Dial(addr, ClientConfig{CacheCapacity: 8, MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Call 1: a clean streamed group.
	data, err := client.Open("/s/one")
	if err != nil {
		t.Fatalf("open 1: %v", err)
	}
	if want := "whole /s/one"; string(data) != want {
		t.Errorf("open 1 = %q, want %q", data, want)
	}

	// Call 2: the stream is cut after its first chunk. With retries
	// disabled the typed error surfaces to this call and no other.
	if _, err := client.Open("/s/two"); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("open 2 err = %v, want ErrConnBroken", err)
	}

	// Call 1's cached result is intact — the poison touched in-flight
	// calls only.
	data, err = client.Open("/s/one")
	if err != nil {
		t.Fatalf("open 1 (cached) after cut: %v", err)
	}
	if want := "whole /s/one"; string(data) != want {
		t.Errorf("open 1 (cached) = %q, want %q", data, want)
	}

	// Call 3: a fresh path redials and streams cleanly.
	data, err = client.Open("/s/three")
	if err != nil {
		t.Fatalf("open 3 (post-cut redial): %v", err)
	}
	if want := "whole /s/three"; string(data) != want {
		t.Errorf("open 3 = %q, want %q", data, want)
	}
	st := client.Stats()
	if st.BrokenConns != 1 {
		t.Errorf("BrokenConns = %d, want exactly the scripted cut", st.BrokenConns)
	}
}

// TestRepliesOutOfOrderPoison: a server answers each connection's
// requests in request order, so a reply for any call but the oldest in
// flight is a protocol error. The scripted server holds the first of two
// pipelined opens and answers the second first: both calls fail with the
// typed transport error, the connection counts as broken once, and the
// next open succeeds on a fresh connection.
func TestRepliesOutOfOrderPoison(t *testing.T) {
	held := make(chan struct{})
	var opens atomic.Int32
	var heldID uint64 // the first open's request: read and written by one connection's goroutine
	var heldPath string
	addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		reply := func(id uint64, path string) bool {
			return writeChunk(w, id, path, []byte("whole "+path)) == nil &&
				putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 1)) == nil
		}
		switch opens.Add(1) {
		case 1:
			heldID, heldPath = id, req.Path
			close(held)
			return true
		case 2:
			return reply(id, req.Path) && reply(heldID, heldPath)
		default:
			return reply(id, req.Path)
		}
	}))
	client, err := Dial(addr, ClientConfig{CacheCapacity: 8, MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	errs := make(chan error, 2)
	open := func(path string) {
		go func() {
			_, err := client.Open(path)
			errs <- err
		}()
	}
	open("/s/one")
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("the first open never reached the server")
	}
	open("/s/two")
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrConnBroken) {
			t.Errorf("pipelined open err = %v, want ErrConnBroken", err)
		}
	}
	if st := client.Stats(); st.BrokenConns != 1 {
		t.Errorf("BrokenConns = %d, want 1", st.BrokenConns)
	}
	data, err := client.Open("/s/three")
	if err != nil {
		t.Fatalf("open on a fresh connection: %v", err)
	}
	if want := "whole /s/three"; string(data) != want {
		t.Errorf("open 3 = %q, want %q", data, want)
	}
}

// TestStreamFaultsPoison scripts replies that violate the streaming
// contract after a well-formed start. Each must fail the open with the
// typed transport error and poison the connection — never surface a short
// group, a misdelivered one, or a clean server error for a request whose
// group was already half delivered.
func TestStreamFaultsPoison(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func(w *bufio.Writer, id uint64, path string)
	}{
		{"count-mismatch", func(w *bufio.Writer, id uint64, path string) {
			_ = writeChunk(w, id, path, []byte("lonely"))
			_ = putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 3))
		}},
		{"wrong-first-chunk", func(w *bufio.Writer, id uint64, path string) {
			_ = writeChunk(w, id, "/not/"+path, []byte("imposter"))
			_ = putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 1))
		}},
		{"error-mid-stream", func(w *bufio.Writer, id uint64, path string) {
			_ = writeChunk(w, id, path, []byte("half a group"))
			_ = putFrameID(w, msgError, id, appendErrorResponse(nil, errorResponse{Code: CodeNotFound, Message: path}))
		}},
		{"ack-mid-stream", func(w *bufio.Writer, id uint64, path string) {
			_ = writeChunk(w, id, path, []byte("half a group"))
			_ = putFrameID(w, msgWriteOK, id, appendWriteOK(nil, 1))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
				tc.reply(w, id, req.Path)
				return true // the harness flushes; the client poisons and closes
			}))
			client, err := Dial(addr, ClientConfig{CacheCapacity: 8, MaxRetries: 0})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.Open("/s/fault"); !errors.Is(err, ErrConnBroken) {
				t.Fatalf("open err = %v, want ErrConnBroken", err)
			}
			if st := client.Stats(); st.BrokenConns != 1 || client.Connected() {
				t.Errorf("stats = %+v, connected = %v; want the connection poisoned", st, client.Connected())
			}
		})
	}
}

// TestGarbageReplyPoisonsEveryVerb answers each of the four request verbs
// with a reply it cannot use — a msgError whose payload does not decode,
// and a frame type no verb expects. Both mean the reply stream is
// desynchronized: the call fails with the typed transport error and the
// connection is poisoned rather than left installed for the next caller.
// The reply arrived, so the server may have applied the request: with
// retries configured it is still sent exactly once.
func TestGarbageReplyPoisonsEveryVerb(t *testing.T) {
	verbs := []struct {
		name string
		call func(c *Client) error
	}{
		{"open", func(c *Client) error { _, err := c.Open("/g/x"); return err }},
		{"write", func(c *Client) error { return c.Write("/g/x", []byte("data")) }},
		{"view-pull", func(c *Client) error { _, _, err := c.ViewPull(); return err }},
		{"view-push", func(c *Client) error { _, err := c.ViewPush(2, []string{"a:1"}); return err }},
	}
	garbage := []struct {
		name    string
		typ     uint8
		payload []byte
	}{
		{"undecodable-error", msgError, []byte{0xff}},
		{"unexpected-type", msgHelloOK, nil},
	}
	for _, v := range verbs {
		for _, g := range garbage {
			t.Run(v.name+"/"+g.name, func(t *testing.T) {
				for _, retries := range []int{0, 2} {
					t.Run(fmt.Sprintf("retries-%d", retries), func(t *testing.T) {
						var served atomic.Int32
						addr := fakeV3Server(t, func(_ net.Conn, w *bufio.Writer, _ uint8, id uint64, _ []byte) bool {
							served.Add(1)
							return putFrameID(w, g.typ, id, g.payload) == nil
						})
						client, err := Dial(addr, ClientConfig{MaxRetries: retries, Backoff: Backoff{Base: time.Millisecond, Max: time.Millisecond, Multiplier: 1}})
						if err != nil {
							t.Fatal(err)
						}
						defer client.Close()
						if err := v.call(client); !errors.Is(err, ErrConnBroken) {
							t.Fatalf("err = %v, want ErrConnBroken", err)
						}
						if st := client.Stats(); st.BrokenConns != 1 || st.Retries != 0 || client.Connected() {
							t.Errorf("stats = %+v, connected = %v; want the connection poisoned and no retry", st, client.Connected())
						}
						if n := served.Load(); n != 1 {
							t.Errorf("server answered %d requests, want 1: a garbled reply is not retried", n)
						}
					})
				}
			})
		}
	}
}

// TestVersionRejection pins the one place protocol versions still matter:
// the handshake. A server turns anything but a hello offering its version
// away with one typed, bare-framed msgError and closes; a client whose
// hello is refused, or answered with another version, fails with
// ErrProtocolVersion on the spot instead of burning retries on redials
// that would meet the same peer.
func TestVersionRejection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		first func(conn net.Conn) error
	}{
		{"open-first", func(conn net.Conn) error {
			return writeFrame(conn, msgOpen, appendOpenRequest(nil, "/data/f000", nil, false))
		}},
		// The retired generations' hellos ended after the version.
		{"hello-1", func(conn net.Conn) error { return writeFrame(conn, msgHello, appendUvarint(nil, 1)) }},
		{"hello-2", func(conn net.Conn) error { return writeFrame(conn, msgHello, appendUvarint(nil, 2)) }},
		{"hello-3", func(conn net.Conn) error { return writeFrame(conn, msgHello, appendUvarint(nil, 3)) }},
		// Version 5 replied in any order; its hello had today's layout.
		{"hello-5", func(conn net.Conn) error { return writeHello(conn, msgHello, 5, 0) }},
		// Version 6 could send a drain's group transfer (types 8 and 9).
		{"hello-6", func(conn net.Conn) error { return writeHello(conn, msgHello, 6, 0) }},
		// Version 7's opens had no gap flag and its nodes sent no hints.
		{"hello-7", func(conn net.Conn) error { return writeHello(conn, msgHello, 7, 0) }},
	} {
		t.Run("server/"+tc.name, func(t *testing.T) {
			srv, addr := startServer(t, seededStore(t, 2), ServerConfig{})
			conn := rawDial(t, addr)
			if err := tc.first(conn); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			r := bufio.NewReader(conn)
			typ, payload, err := readFrame(r)
			if err != nil || typ != msgError {
				t.Fatalf("refusal = type %d, %v; want one msgError", typ, err)
			}
			if e, err := decodeErrorResponse(payload); err != nil || e.Code != CodeBadRequest {
				t.Errorf("refusal = %+v, %v; want CodeBadRequest", e, err)
			}
			if _, err := r.ReadByte(); !errors.Is(err, io.EOF) {
				t.Errorf("after the refusal: %v, want EOF", err)
			}
			if st := srv.Stats(); st.Errors != 1 || st.Panics != 0 || st.Requests != 0 {
				t.Errorf("server stats = %+v, want exactly one counted error", st)
			}
			assertHealthy(t, addr)
		})
	}

	for _, tc := range []struct {
		name   string
		answer func(conn net.Conn) error
	}{
		{"hello-ok-2", func(conn net.Conn) error { return writeHello(conn, msgHelloOK, 2, 0) }},
		{"hello-ok-3", func(conn net.Conn) error { return writeFrame(conn, msgHelloOK, appendUvarint(nil, 3)) }},
		{"hello-ok-5", func(conn net.Conn) error { return writeHello(conn, msgHelloOK, 5, 0) }},
		{"hello-ok-6", func(conn net.Conn) error { return writeHello(conn, msgHelloOK, 6, 0) }},
		{"hello-ok-7", func(conn net.Conn) error { return writeHello(conn, msgHelloOK, 7, 0) }},
		{"unknown-type", func(conn net.Conn) error {
			return writeFrame(conn, msgError, appendErrorResponse(nil, errorResponse{
				Code: CodeBadRequest, Message: "unknown message type 6",
			}))
		}},
	} {
		t.Run("client/"+tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					if _, _, err := readFrame(bufio.NewReader(conn)); err == nil {
						_ = tc.answer(conn)
					}
					_ = conn.Close()
				}
			}()
			var dials atomic.Int32
			client, err := Dial(l.Addr().String(), ClientConfig{
				MaxRetries: 3,
				Backoff:    Backoff{Base: time.Millisecond, Max: time.Millisecond},
				Dialer: func() (net.Conn, error) {
					dials.Add(1)
					return net.Dial("tcp", l.Addr().String())
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.Open("/x"); !errors.Is(err, ErrProtocolVersion) {
				t.Fatalf("open err = %v, want ErrProtocolVersion", err)
			}
			st := client.Stats()
			if dials.Load() != 1 || st.Retries != 0 || st.Reconnects != 0 {
				t.Errorf("dials = %d, stats = %+v; want one dial and no retry", dials.Load(), st)
			}
		})
	}
}
