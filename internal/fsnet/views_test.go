package fsnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The view suite pins the gossip wire extension: codec bounds, the
// pull/push exchange against a real server, the mid-stream-cut poisoning
// contract, and the server's hint piggyback riding ordinary replies.

// testViews is a scripted ViewSource: a mutable epoch+members pair with
// highest-epoch-wins ApplyView semantics.
type testViews struct {
	self string

	mu      sync.Mutex
	epoch   uint64
	members []string
	// hints, when set, takes every stage hint the server hands over;
	// nil drops them.
	hints func(owner string, paths []string, keep int)
}

func newTestViews(self string, epoch uint64, members ...string) *testViews {
	return &testViews{self: self, epoch: epoch, members: members}
}

func (v *testViews) Self() string { return v.self }

func (v *testViews) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch
}

func (v *testViews) ViewSnapshot() (uint64, []string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.epoch, append([]string(nil), v.members...)
}

func (v *testViews) PeerHints(owner string, paths []string, keep int) {
	v.mu.Lock()
	hints := v.hints
	v.mu.Unlock()
	if hints != nil {
		hints(owner, paths, keep)
	}
}

func (v *testViews) ApplyView(epoch uint64, members []string) (bool, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if epoch <= v.epoch {
		return false, nil
	}
	v.epoch = epoch
	v.members = append([]string(nil), members...)
	return true, nil
}

func TestViewCodecRoundTrip(t *testing.T) {
	epoch, sender, err := decodeViewMsg(appendViewMsg(nil, 42, "10.0.0.1:7070"))
	if err != nil || epoch != 42 || sender != "10.0.0.1:7070" {
		t.Fatalf("viewMsg round trip = (%d, %q, %v)", epoch, sender, err)
	}

	members := []string{"a:1", "b:2", "c:3"}
	e, s, m, err := decodeViewPush(appendViewPush(nil, 7, "self:9", members))
	if err != nil || e != 7 || s != "self:9" || len(m) != 3 || m[0] != "a:1" || m[2] != "c:3" {
		t.Fatalf("viewPush round trip = (%d, %q, %v, %v)", e, s, m, err)
	}

	// An empty member list is legal (a goodbye view shrinking past us).
	if _, _, m, err := decodeViewPush(appendViewPush(nil, 3, "x:1", nil)); err != nil || len(m) != 0 {
		t.Fatalf("empty viewPush = (%v, %v), want legal empty", m, err)
	}

	// Hostile frames: a member count beyond the cap, an empty member
	// address, and trailing garbage must all be rejected.
	bad := appendUvarint(nil, 1)
	bad = appendString(bad, "x:1")
	bad = appendUvarint(bad, maxViewMembers+1)
	if _, _, _, err := decodeViewPush(bad); err == nil {
		t.Error("oversized member count decoded")
	}
	if _, _, _, err := decodeViewPush(appendViewPush(nil, 1, "x:1", []string{""})); err == nil {
		t.Error("empty member address decoded")
	}
	if _, _, err := decodeViewMsg(append(appendViewMsg(nil, 1, "x:1"), 0xff)); err == nil {
		t.Error("trailing bytes decoded")
	}
}

// TestViewPullPushExchange drives the full exchange against a real
// server: a pull answered with the full view, push installing a view,
// a pull answered with the full view even when the server is not newer,
// and a stale push acked with the server's higher epoch.
func TestViewPullPushExchange(t *testing.T) {
	sv := newTestViews("server:1", 5, "server:1", "peer:2")
	store := seededStore(t, 4)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 2, CacheCapacity: 8, Views: sv})

	client, err := Dial(addr, ClientConfig{CacheCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// The pull answers with the full view.
	epoch, members, err := client.ViewPull()
	if err != nil {
		t.Fatalf("ViewPull: %v", err)
	}
	if epoch != 5 || len(members) != 2 || members[0] != "server:1" {
		t.Fatalf("ViewPull = (%d, %v), want (5, [server:1 peer:2])", epoch, members)
	}

	// Push installs on the server and the ack echoes the new epoch.
	remote, err := client.ViewPush(9, []string{"client:1", "other:3"})
	if err != nil {
		t.Fatalf("ViewPush: %v", err)
	}
	if remote != 9 || sv.Epoch() != 9 {
		t.Fatalf("ViewPush installed epoch %d (ack %d), want 9", sv.Epoch(), remote)
	}

	// A pull still answers with the full view, now the pushed one.
	epoch, members, err = client.ViewPull()
	if err != nil || epoch != 9 || len(members) != 2 || members[1] != "other:3" {
		t.Fatalf("ViewPull after push = (%d, %v, %v), want (9, [client:1 other:3])", epoch, members, err)
	}

	// A stale push is not an error: the ack carries the server's higher
	// epoch so the pusher learns it lost.
	remote, err = client.ViewPush(2, []string{"client:1"})
	if err != nil {
		t.Fatalf("stale ViewPush: %v", err)
	}
	if remote != 9 || sv.Epoch() != 9 {
		t.Fatalf("stale ViewPush: server %d, ack %d, want 9/9", sv.Epoch(), remote)
	}

	// View frames must not count as requests: the stats contract ties
	// Requests to opens/stats/writes only.
	if st := srv.Stats(); st.Requests != 0 || st.Errors != 0 {
		t.Errorf("view exchanges counted: requests=%d errors=%d, want 0/0", st.Requests, st.Errors)
	}
}

// TestViewExchangeAgainstUnconfiguredServer: a server without Views
// refuses the exchange with a typed server error, and the refusal does
// not poison the connection.
func TestViewExchangeAgainstUnconfiguredServer(t *testing.T) {
	store := seededStore(t, 2)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 2, CacheCapacity: 8})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, _, err := client.ViewPull(); err == nil {
		t.Fatal("ViewPull against a viewless server succeeded")
	}
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatalf("open after refused pull: %v", err)
	}
	if st := client.Stats(); st.BrokenConns != 0 {
		t.Errorf("refused pull broke the connection: %+v", st)
	}
}

// TestViewPushMidStreamCutPoisonsOnlyInFlight mirrors the v3 streaming
// cut test for the view exchange: a server that dies mid-frame while
// answering a pull fails that call with the typed transport error, and
// nothing else — the next call redials and completes.
func TestViewPushMidStreamCutPoisonsOnlyInFlight(t *testing.T) {
	var pulls atomic.Int32
	addr := fakeV3Server(t, func(conn net.Conn, w *bufio.Writer, typ uint8, id uint64, payload []byte) bool {
		switch typ {
		case msgOpen:
			req, derr := decodeOpenRequest(payload)
			return derr == nil &&
				writeChunk(w, id, req.Path, []byte("whole "+req.Path)) == nil &&
				putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 1)) == nil
		case msgViewPull:
			reply := appendFrameID(nil, msgViewPush, id,
				appendViewPush(nil, 9, "srv:1", []string{"srv:1", "other:2"}))
			if pulls.Add(1) == 1 {
				// Half the push frame, then a hard cut.
				_, _ = conn.Write(reply[:len(reply)-4])
				time.Sleep(10 * time.Millisecond) // let the bytes land before the RST
				return false
			}
			_, err := conn.Write(reply)
			return err == nil
		}
		return false
	})

	client, err := Dial(addr, ClientConfig{CacheCapacity: 4, MaxRetries: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Call 1: a clean open proves the session up.
	if data, err := client.Open("/v/one"); err != nil || string(data) != "whole /v/one" {
		t.Fatalf("open 1 = (%q, %v)", data, err)
	}
	// Call 2: the pull's reply is cut mid-frame; the typed error lands
	// on this call.
	if _, _, err := client.ViewPull(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("cut ViewPull = %v, want ErrConnBroken", err)
	}
	// Call 3: a fresh open redials; the poison touched in-flight calls
	// only.
	if data, err := client.Open("/v/three"); err != nil || string(data) != "whole /v/three" {
		t.Fatalf("open 3 (post-cut) = (%q, %v)", data, err)
	}
	// Call 4: the retried pull on the new connection completes and
	// hands back the newer view (installing it is the cluster layer's
	// job, not the transport's).
	epoch, members, err := client.ViewPull()
	if err != nil || epoch != 9 || len(members) != 2 {
		t.Fatalf("ViewPull retry = (%d, %v, %v)", epoch, members, err)
	}
	if st := client.Stats(); st.BrokenConns != 1 {
		t.Errorf("BrokenConns = %d, want exactly the scripted cut", st.BrokenConns)
	}
}

// TestHintPiggybackBothDirections: one ordinary open is enough for a
// client to learn the server's epoch — the server's hint leads its first
// reply batch, and a client routing by a ring re-pulls the view, on a
// newer one, before its next miss. No extra request of the client's own,
// no background loop. Peers no longer send hints the other way: a
// client's frames carry no epoch.
func TestHintPiggybackBothDirections(t *testing.T) {
	sv := newTestViews("server:1", 5, "server:1")
	store := seededStore(t, 3)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 2, CacheCapacity: 8, Views: sv})

	client, err := Dial(addr, ClientConfig{CacheCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if got := client.viewEpoch.Load(); got != 5 {
		t.Fatalf("client routes by epoch %d, want the server's 5", got)
	}
	// The server moves on; the hint leading the next reply batch is noted,
	// and the miss after it pulls the view before it is routed.
	if _, err := sv.ApplyView(6, []string{"server:1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open("/data/f001"); err != nil {
		t.Fatal(err)
	}
	if got := client.viewEpoch.Load(); got != 5 {
		t.Fatalf("client routes by epoch %d before its next miss, want 5: nothing pulls in the background", got)
	}
	if _, err := client.Open("/data/f002"); err != nil {
		t.Fatal(err)
	}
	if got := client.viewEpoch.Load(); got != 6 {
		t.Fatalf("client routes by epoch %d after the miss that followed the server's hint of 6", got)
	}
}

// TestHintDedupPerEpoch: the server's hint is per-connection state,
// re-sent only when the epoch moves — a steady stream of opens pays for
// exactly one hint, and an epoch bump pays for exactly one more. Read
// off a raw connection, so every frame the server sends is counted.
func TestHintDedupPerEpoch(t *testing.T) {
	sv := newTestViews("server:1", 1, "server:1")
	store := seededStore(t, 8)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 2, CacheCapacity: 8, Views: sv})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeHello(conn, msgHello, protocolVersion, 0); err != nil {
		t.Fatal(err)
	}
	rc := &rawConn{Conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if typ, payload, err := readFrame(rc.r); err != nil || typ != msgHelloOK {
		t.Fatalf("handshake reply = type %d, %v; want msgHelloOK", typ, err)
	} else if _, epoch, err := decodeHello(payload); err != nil || epoch != 1 {
		t.Fatalf("hello epoch = %d, %v; want 1", epoch, err)
	}
	// opens sends one open per path, each in lock step, and returns the
	// epochs of the hints that came with the replies.
	opens := func(from, to int) []uint64 {
		var hints []uint64
		for i := from; i < to; i++ {
			id := uint64(i + 1)
			rc.send(t, msgOpen, id, encodeOpenRequest(openRequest{Path: fmt.Sprintf("/data/f%03d", i)}))
			for done := false; !done; {
				typ, gotID, payload, err := readFrameID(rc.r, nil)
				if err != nil {
					t.Fatalf("open %d reply: %v", i, err)
				}
				switch {
				case gotID == 0 && typ == msgViewHint:
					epoch, sender, err := decodeViewMsg(payload)
					if err != nil || sender != "server:1" {
						t.Fatalf("hint = (%d, %q, %v)", epoch, sender, err)
					}
					hints = append(hints, epoch)
				case gotID != id:
					t.Fatalf("open %d: frame type %d for id %d", i, typ, gotID)
				case typ == msgGroupEnd:
					done = true
				case typ != msgMemberChunk:
					t.Fatalf("open %d: frame type %d", i, typ)
				}
			}
		}
		return hints
	}
	if got := opens(0, 4); len(got) != 1 || got[0] != 1 {
		t.Fatalf("hints over the first four opens = %v, want [1]", got)
	}
	if _, err := sv.ApplyView(7, []string{"server:1"}); err != nil {
		t.Fatal(err)
	}
	if got := opens(4, 8); len(got) != 1 || got[0] != 7 {
		t.Fatalf("hints after the bump = %v, want [7]", got)
	}
}
