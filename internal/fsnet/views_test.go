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
// contract, and the hint piggyback riding ordinary opens in both
// directions.

// testViews is a scripted ViewSource: a mutable epoch+members pair with
// highest-epoch-wins ApplyView semantics and a log of every hint noted.
type testViews struct {
	self string

	mu      sync.Mutex
	epoch   uint64
	members []string
	noted   map[string]uint64 // latest hinted epoch per sender
}

func newTestViews(self string, epoch uint64, members ...string) *testViews {
	return &testViews{self: self, epoch: epoch, members: members, noted: make(map[string]uint64)}
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

func (v *testViews) NoteViewEpoch(addr string, epoch uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if epoch > v.noted[addr] {
		v.noted[addr] = epoch
	}
}

func (v *testViews) notedEpoch(addr string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.noted[addr]
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
// server: pull when the server is newer (full view comes back), pull
// when it is older (bare epoch hint comes back, and the server learns
// our epoch), push installing a view, and a stale push acked with the
// server's higher epoch.
func TestViewPullPushExchange(t *testing.T) {
	sv := newTestViews("server:1", 5, "server:1", "peer:2")
	store := seededStore(t, 4)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 2, CacheCapacity: 8, Views: sv})

	cv := newTestViews("client:1", 1, "client:1")
	client, err := Dial(addr, ClientConfig{CacheCapacity: 4, Views: cv})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Server newer: the pull answers with the full view.
	epoch, members, err := client.ViewPull()
	if err != nil {
		t.Fatalf("ViewPull: %v", err)
	}
	if epoch != 5 || len(members) != 2 || members[0] != "server:1" {
		t.Fatalf("ViewPull = (%d, %v), want (5, [server:1 peer:2])", epoch, members)
	}
	// The pull itself carried our epoch; the server noted it for a
	// symmetric pull-back decision.
	if got := sv.notedEpoch("client:1"); got != 1 {
		t.Errorf("server noted client epoch %d, want 1", got)
	}

	// Client newer: the pull answers with a bare epoch hint (nil
	// members), never a full view.
	if _, err := cv.ApplyView(9, []string{"client:1", "other:3"}); err != nil {
		t.Fatal(err)
	}
	epoch, members, err = client.ViewPull()
	if err != nil {
		t.Fatalf("ViewPull (client newer): %v", err)
	}
	if members != nil || epoch != 5 {
		t.Fatalf("ViewPull (client newer) = (%d, %v), want (5, nil)", epoch, members)
	}

	// Push installs on the server and the ack echoes the new epoch.
	remote, err := client.ViewPush(9, []string{"client:1", "other:3"})
	if err != nil {
		t.Fatalf("ViewPush: %v", err)
	}
	if remote != 9 || sv.Epoch() != 9 {
		t.Fatalf("ViewPush installed epoch %d (ack %d), want 9", sv.Epoch(), remote)
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
	cv := newTestViews("client:1", 3, "client:1")
	client, err := Dial(addr, ClientConfig{CacheCapacity: 4, Views: cv})
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

	cv := newTestViews("client:1", 1, "client:1")
	client, err := Dial(addr, ClientConfig{CacheCapacity: 4, Views: cv, MaxRetries: 0})
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

// TestHintPiggybackBothDirections: one ordinary open is enough for both
// sides to learn each other's epoch — the client's hint leads its first
// request batch, the server's hint leads its first reply batch. No
// extra round trips, no background loop.
func TestHintPiggybackBothDirections(t *testing.T) {
	sv := newTestViews("server:1", 5, "server:1")
	store := seededStore(t, 2)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 2, CacheCapacity: 8, Views: sv})

	cv := newTestViews("client:1", 3, "client:1")
	client, err := Dial(addr, ClientConfig{CacheCapacity: 4, Views: cv})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	// The hints frame their batches, so by the time the open returned,
	// both notes had already been processed in order.
	if got := sv.notedEpoch("client:1"); got != 3 {
		t.Errorf("server noted client epoch %d, want 3", got)
	}
	if got := cv.notedEpoch("server:1"); got != 5 {
		t.Errorf("client noted server epoch %d, want 5", got)
	}
}

// TestHintDedupPerEpoch: the hint is per-connection state, re-sent only
// when the epoch moves — a steady stream of opens pays for exactly one
// hint, and an epoch bump pays for exactly one more.
func TestHintDedupPerEpoch(t *testing.T) {
	sv := newTestViews("server:1", 1, "server:1")
	store := seededStore(t, 8)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 2, CacheCapacity: 8, Views: sv})

	cv := newTestViews("client:1", 2, "client:1")
	client, err := Dial(addr, ClientConfig{CacheCapacity: 0, Views: cv})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 4; i++ {
		if _, err := client.Open(fmt.Sprintf("/data/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sv.notedEpoch("client:1"); got != 2 {
		t.Fatalf("server noted epoch %d, want 2", got)
	}
	if _, err := cv.ApplyView(7, []string{"client:1"}); err != nil {
		t.Fatal(err)
	}
	for i := 4; i < 8; i++ {
		if _, err := client.Open(fmt.Sprintf("/data/f%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := sv.notedEpoch("client:1"); got != 7 {
		t.Fatalf("server noted epoch %d after bump, want 7", got)
	}
}
