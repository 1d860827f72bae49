package fsnet

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"aggcache/internal/faultnet"
	"aggcache/internal/obs"
)

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestGroupReferenceCounting pins the count itself: the last Release, and
// only the last, recycles; a Release too many or a Retain through a dead
// pointer panics instead of corrupting whoever holds the group next. (A
// container taken back out of the pool meanwhile would hide the misuse —
// race builds never pool it, see TestReleasedGroupIsPoisoned.)
func TestGroupReferenceCounting(t *testing.T) {
	g := NewGroup()
	g.Files = append(g.Files, GroupFile{Path: "/a", Data: []byte("a")})
	g.Retain()
	g.Release()
	if len(g.Files) != 1 || g.Files[0].Path != "/a" {
		t.Fatalf("group emptied while a reference was held: %v", g.Files)
	}
	g.Release()
	if len(g.Files) != 0 {
		t.Errorf("last Release left %d files behind", len(g.Files))
	}
	mustPanic(t, "a second last Release", g.Release)
	g.refs.Store(0)
	mustPanic(t, "Retain of a released group", g.Retain)
	g.refs.Store(0)
}

// TestFetchGroupIsTheFramesRead: the group a fetch delivers to the
// install is not a copy. decodeChunks leaves every member's Data and path
// inside the frame buffer its chunk arrived in — header-only members
// included, with no Data — and an append through Data cannot write into
// the frame.
func TestFetchGroupIsTheFramesRead(t *testing.T) {
	g := NewGroup()
	defer g.Release()
	members := []struct {
		path string
		data string
		held bool
	}{{"/data/f000", "contents of /data/f000", false}, {"/data/f001", "", true}, {"/data/f002", "contents of /data/f002", false}}
	for _, m := range members {
		hdr := appendMemberChunkHdr(nil, 1, m.path, contentTag([]byte(m.path)), len(m.data), m.held)
		buf := append(getFrameBuf(0), hdr[4+v2HdrLen:]...)
		g.bufs = append(g.bufs, append(buf, m.data...))
	}
	if err := decodeChunks(g, "/data/f000"); err != nil {
		t.Fatal(err)
	}
	if g.held != 1<<1 {
		t.Errorf("held = %#b, want member 1 alone", g.held)
	}
	for i, f := range g.Files {
		m := members[i]
		if string(g.paths[i]) != m.path || string(f.Data) != m.data || f.Tag != contentTag([]byte(m.path)) {
			t.Errorf("member %d: %q holds %q, tag %#x", i, g.paths[i], f.Data, f.Tag)
		}
		buf := g.bufs[i]
		if inFrame, _, _, _, _ := memberChunkView(buf); &inFrame[0] != &g.paths[i][0] {
			t.Errorf("member %d: path is not a view into its chunk's frame buffer", i)
		}
		if m.held {
			continue
		}
		// A chunk's payload ends with the contents.
		if &f.Data[0] != &buf[len(buf)-len(f.Data)] {
			t.Errorf("member %d: Data is not a view into its chunk's frame buffer", i)
		}
		if cap(f.Data) != len(f.Data) {
			t.Errorf("member %d: cap %d > len %d, an append would write into the frame", i, cap(f.Data), len(f.Data))
		}
	}
}

// TestClientCloseMidGroup: a Close that lands while a group is half
// delivered — one chunk buffered on the call, no group end yet — fails
// the fetch and gives the buffered chunk back exactly once.
func TestClientCloseMidGroup(t *testing.T) {
	base, counted := liveGroups()
	addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		// One chunk, then silence.
		return writeChunk(w, id, req.Path, []byte("half a group")) == nil
	}))
	reg := obs.NewRegistry()
	ttfb := reg.Histogram("fsnet_client_ttfb_ns", "")
	client, err := Dial(addr, ClientConfig{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := client.Open("/s/half")
		done <- err
	}()
	for ttfb.Count() == 0 { // the chunk has reached the call
		time.Sleep(time.Millisecond)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrConnBroken) {
		t.Fatalf("fetch cut by Close: err = %v, want ErrConnBroken", err)
	}
	if now, _ := liveGroups(); counted && now != base {
		t.Errorf("%d groups still referenced after the cut fetch, want 0", now-base)
	}
}

// TestReplyDroppedUnwrittenReleasesGroup: a group reply that never
// reaches the wire gives its reference back all the same, once — whether
// its batch's write failed or it was queued on a writer already dead.
func TestReplyDroppedUnwrittenReleasesGroup(t *testing.T) {
	srv, err := NewServer(seededStore(t, 2), ServerConfig{WriteTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// The writer's connection parks every write until its deadline: a
	// client that stopped reading.
	var gate faultnet.Gate
	gate.Hold()
	defer gate.Resume()
	local, remote := net.Pipe()
	defer remote.Close()
	rw := &replyWriter{s: srv, conn: faultnet.Wrap(local, faultnet.Faults{Gate: &gate}, nil)}
	group := func(path string) *Group {
		g := NewGroup()
		g.Files = append(g.Files, GroupFile{Path: path, Data: []byte("contents of " + path)})
		g.Retain() // the reply's reference; the test keeps the first
		return g
	}

	a := group("/data/f000")
	rw.sendGroup(1, a)
	rw.flush() // the batch's write times out
	if st := srv.Stats(); st.Disconnects != 1 {
		t.Fatalf("Disconnects = %d after the held write timed out, want 1", st.Disconnects)
	}
	if n := a.refs.Load(); n != 1 {
		t.Errorf("reply a, in the failed batch: %d references left, want the test's 1", n)
	}
	// A reply queued after the failure is dropped at once, and nothing is
	// written or counted again.
	b := group("/data/f001")
	rw.sendGroup(2, b)
	if n := b.refs.Load(); n != 1 {
		t.Errorf("reply b, queued on the dead writer: %d references left, want the test's 1", n)
	}
	rw.flush()
	if st := srv.Stats(); st.Disconnects != 1 || gate.Waiting() != 0 {
		t.Errorf("Disconnects = %d, %d writes parked after the dead writer's flush; want 1 and 0", st.Disconnects, gate.Waiting())
	}
	a.Release()
	b.Release()
}
