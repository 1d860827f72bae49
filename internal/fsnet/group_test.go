package fsnet

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"aggcache/internal/faultnet"
	"aggcache/internal/obs"
	"aggcache/internal/obs/otrace"
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

// holdRouter forwards every /remote/ path: the open parks until the test
// sends on the path's channel, then answers with a one-file group the
// router itself keeps a second reference to, so the test can watch the
// server's reference come back.
type holdRouter struct {
	entered chan string
	release map[string]chan struct{}
	groups  map[string]*Group
}

func newHoldRouter(paths ...string) *holdRouter {
	r := &holdRouter{entered: make(chan string, len(paths)), release: map[string]chan struct{}{}, groups: map[string]*Group{}}
	for _, p := range paths {
		r.release[p] = make(chan struct{})
		g := NewGroup()
		g.Files = append(g.Files, GroupFile{Path: p, Data: []byte("forwarded " + p)})
		r.groups[p] = g
	}
	return r
}

func (r *holdRouter) RouteOpen(string, []string) ([]GroupFile, bool, error) {
	return nil, false, errors.New("holdRouter is an InlineRouter")
}

func (r *holdRouter) Route(path string, _ []string, _ otrace.Ctx, mayWait bool) (*Group, bool, bool, error) {
	g := r.groups[path]
	if g == nil {
		return nil, false, false, nil
	}
	if !mayWait {
		return nil, false, true, nil
	}
	r.entered <- path
	<-r.release[path]
	g.Retain() // the server's reference
	return g, true, false, nil
}

// TestReplyDroppedUnwrittenReleasesGroup: a group reply that never
// reaches the wire gives its reference back all the same, once — whether
// its batch's write failed or it was enqueued on a writer already dead.
func TestReplyDroppedUnwrittenReleasesGroup(t *testing.T) {
	router := newHoldRouter("/remote/a", "/remote/b")
	srv, err := NewServer(seededStore(t, 2), ServerConfig{Router: router})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var gate faultnet.Gate
	go func() { _ = srv.Serve(faultnet.WrapListener(l, faultnet.Faults{Gate: &gate})) }()
	defer srv.Close()

	client, err := Dial(l.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil { // handshake done, connection warm
		t.Fatal(err)
	}
	failed := make(chan error, 2)
	for _, p := range []string{"/remote/a", "/remote/b"} {
		go func() {
			_, err := client.Open(p)
			failed <- err
		}()
		<-router.entered // parked on its worker
	}

	// The server's side of the connection dies; the read loop, blocked in
	// its Read, does not notice. Reply a meets the dead socket: its batch
	// fails and the writer is marked dead.
	gate.SetDown(true)
	router.release["/remote/a"] <- struct{}{}
	for srv.Stats().Disconnects == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := router.groups["/remote/a"].refs.Load(); n != 1 {
		t.Errorf("reply a, written into a dead socket: %d references left, want the router's 1", n)
	}
	// Reply b is enqueued on the dead writer.
	router.release["/remote/b"] <- struct{}{}
	for deadline := time.Now().Add(5 * time.Second); router.groups["/remote/b"].refs.Load() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("reply b, enqueued on a dead writer: %d references left, want the router's 1", router.groups["/remote/b"].refs.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if err := <-failed; !errors.Is(err, ErrConnBroken) {
			t.Errorf("open on the killed connection: err = %v, want ErrConnBroken", err)
		}
	}
}
