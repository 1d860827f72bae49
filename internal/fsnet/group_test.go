package fsnet

import (
	"bufio"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"aggcache/internal/faultnet"
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

// TestFetchGroupIsTheFramesRead: the forward's group is not a copy. Every
// member's Data lies inside the frame buffer its chunk arrived in, the
// paths are the interner's strings, and what the group pins is at least
// what it carries.
func TestFetchGroupIsTheFramesRead(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 6), ServerConfig{GroupSize: 3, SuccessorCapacity: 2})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 4; i++ {
		for _, p := range []string{"/data/f000", "/data/f001", "/data/f002"} {
			if _, err := client.Open(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := client.FetchGroup("/data/f000", otrace.Ctx{})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	if len(g.Files) < 2 || len(g.Files) != len(g.bufs) {
		t.Fatalf("group of %d files in %d frames, want a trained group, one frame each", len(g.Files), len(g.bufs))
	}
	carried := 0
	for i, f := range g.Files {
		if string(f.Data) != "contents of "+f.Path {
			t.Errorf("member %d: %q holds %q", i, f.Path, f.Data)
		}
		// A chunk's payload ends with the contents.
		if buf := g.bufs[i]; len(f.Data) == 0 || &f.Data[0] != &buf[len(buf)-len(f.Data)] {
			t.Errorf("member %d: Data is not a view into its chunk's frame buffer", i)
		}
		if cap(f.Data) != len(f.Data) {
			t.Errorf("member %d: cap %d > len %d, an append would write into the frame", i, cap(f.Data), len(f.Data))
		}
		carried += len(f.Data)
	}
	if got := g.RetainedBytes(); got < carried {
		t.Errorf("RetainedBytes = %d, below the %d bytes carried", got, carried)
	}
	if st := client.Stats(); st.BytesReceived == 0 || client.Contains("/nope") {
		t.Errorf("stats not kept: %+v", st)
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
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		g, err := client.FetchGroup("/s/half", otrace.Ctx{})
		if err == nil {
			g.Release()
		}
		done <- err
	}()
	for client.TTFB().Count == 0 { // the chunk has reached the call
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

func (r *holdRouter) RouteOpenTraced(path string, _ []string, _ otrace.Ctx) (*Group, int, bool, error) {
	g := r.groups[path]
	if g == nil {
		return nil, 0, false, nil
	}
	r.entered <- path
	<-r.release[path]
	g.Retain() // the server's reference
	return g, 0, true, nil
}

func (r *holdRouter) TryRouteOpen(path string, _ []string, _ otrace.Ctx) (*Group, int, bool, bool) {
	return nil, 0, false, strings.HasPrefix(path, "/remote/")
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
