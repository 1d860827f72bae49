package fsnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The router suite covers the ServerConfig.Router open interception
// point and the whole group a client fetch brings back.

// scriptedRouter handles paths under /remote/ with a fixed two-file
// group and records every call; everything else falls through to the
// local serving path.
type scriptedRouter struct {
	calls       atomic.Uint64
	lastAccess  atomic.Value // []string
	notFound    bool
	empty       bool // a handled group with no files
	wrongHead   bool // a group led by a file other than the demanded one
	internalErr bool
}

func (r *scriptedRouter) RouteOpen(path string, accessed []string) ([]GroupFile, bool, error) {
	r.calls.Add(1)
	cp := make([]string, len(accessed))
	copy(cp, accessed)
	r.lastAccess.Store(cp)
	if !strings.HasPrefix(path, "/remote/") {
		return nil, false, nil
	}
	switch {
	case r.notFound:
		return nil, true, fmt.Errorf("%w: %s", ErrNotFound, path)
	case r.internalErr:
		return nil, true, errors.New("peer tier exploded")
	case r.empty:
		return nil, true, nil
	case r.wrongHead:
		// The demanded file follows, so only the head is wrong.
		return []GroupFile{{Path: "/wrong/head", Data: []byte("x")}, {Path: path, Data: []byte("routed " + path)}}, true, nil
	}
	return []GroupFile{
		{Path: path, Data: []byte("routed " + path)},
		{Path: path + ".member", Data: []byte("routed member")},
	}, true, nil
}

func TestClusterRouterHandlesOpen(t *testing.T) {
	store := seededStore(t, 4)
	router := &scriptedRouter{}
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 3, Router: router})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A routed path is served from the router even though the local
	// store has never heard of it.
	data, err := client.Open("/remote/hot")
	if err != nil {
		t.Fatalf("routed open: %v", err)
	}
	if string(data) != "routed /remote/hot" {
		t.Errorf("routed open = %q", data)
	}
	// The group member arrived alongside and is a local cache hit now.
	if !client.Contains("/remote/hot.member") {
		t.Error("group member of routed reply not installed")
	}

	// A local path falls through to the store.
	data, err = client.Open("/data/f001")
	if err != nil {
		t.Fatalf("local open: %v", err)
	}
	if string(data) != "contents of /data/f001" {
		t.Errorf("local open = %q", data)
	}

	st := srv.Stats()
	if st.RemoteOpens != 1 {
		t.Errorf("RemoteOpens = %d, want 1", st.RemoteOpens)
	}
	if st.Requests != 2 {
		t.Errorf("Requests = %d, want 2", st.Requests)
	}
	// The routed group must not have perturbed the local cache: only the
	// local open staged anything.
	if st.Cache.GroupFetches != 1 {
		t.Errorf("Cache.GroupFetches = %d, want 1 (router bypasses local cache)", st.Cache.GroupFetches)
	}
	if router.calls.Load() != 2 {
		t.Errorf("router consulted %d times, want 2", router.calls.Load())
	}
}

func TestClusterRouterNotFound(t *testing.T) {
	store := seededStore(t, 2)
	_, addr := startServer(t, store, ServerConfig{Router: &scriptedRouter{notFound: true}})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/remote/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("routed missing open err = %v, want ErrNotFound", err)
	}
}

// TestClusterRouterErrorsStayPerRequest: a router's error fails its own
// request with CodeInternal; the connection keeps serving.
func TestClusterRouterErrorsStayPerRequest(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 2), ServerConfig{Router: &scriptedRouter{internalErr: true}})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open("/remote/x"); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("server error %d:", CodeInternal)) {
		t.Errorf("routed open err = %v, want a CodeInternal server error", err)
	}
	// The error was a typed reply, not a poisoned stream: the same
	// connection keeps serving local paths.
	if _, err := client.Open("/data/f000"); err != nil {
		t.Errorf("local open after routed error: %v", err)
	}
	if st := client.Stats(); st.BrokenConns != 0 {
		t.Errorf("%d broken connections, want 0", st.BrokenConns)
	}
	client.Close()
	if st := srv.Stats(); st.RemoteOpens != 0 || st.Errors != 1 || st.Panics != 0 {
		t.Errorf("RemoteOpens %d Errors %d Panics %d, want 0, 1 and 0", st.RemoteOpens, st.Errors, st.Panics)
	}
}

// TestInlineRouterMalformedGroupStaysPerRequest: a group that does not
// lead with the demanded file — an empty one included — fails its own
// request with CodeInternal, by the server's check and not a recovered
// panic; the connection keeps serving the requests that follow.
func TestInlineRouterMalformedGroupStaysPerRequest(t *testing.T) {
	for name, router := range map[string]*scriptedRouter{
		"empty":      {empty: true},
		"wrong head": {wrongHead: true},
	} {
		srv, addr := startServer(t, seededStore(t, 2), ServerConfig{Router: router})
		rc := rawHello(t, rawDial(t, addr))
		_ = rc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for id := uint64(1); id <= 4; id += 2 {
			rc.send(t, msgOpen, id, appendOpenRequest(nil, "/remote/x", nil, false))
			if e := rc.recvError(t, id); e.Code != CodeInternal {
				t.Errorf("%s: malformed group: code %d, want CodeInternal", name, e.Code)
			}
			rc.send(t, msgOpen, id+1, appendOpenRequest(nil, "/data/f000", nil, false))
			for {
				typ, got, _, err := readFrameID(rc.r, nil)
				if err != nil || got != id+1 || (typ != msgMemberChunk && typ != msgGroupEnd) {
					t.Fatalf("%s: local open after the malformed group = type %d id %d, %v", name, typ, got, err)
				}
				if typ == msgGroupEnd {
					break
				}
			}
		}
		if st := srv.Stats(); st.RemoteOpens != 0 || st.Errors != 2 || st.Panics != 0 {
			t.Errorf("%s: RemoteOpens %d Errors %d Panics %d, want 0, 2 and 0", name, st.RemoteOpens, st.Errors, st.Panics)
		}
	}
}

// TestClusterRouterSeesPiggyback: the router receives the client's
// piggybacked history so it can relay it to the owning peer.
func TestClusterRouterSeesPiggyback(t *testing.T) {
	store := seededStore(t, 4)
	router := &scriptedRouter{}
	_, addr := startServer(t, store, ServerConfig{Router: router})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	// The second open is a cache hit; it rides the next fetch's piggyback.
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open("/remote/next"); err != nil {
		t.Fatal(err)
	}
	accessed, _ := router.lastAccess.Load().([]string)
	if len(accessed) != 1 || accessed[0] != "/data/f000" {
		t.Errorf("router saw accessed=%v, want [/data/f000]", accessed)
	}
}

// TestClusterOpenGroup: the whole group comes back, demanded file first,
// and repeated calls always refetch (they must observe group evolution).
func TestClusterOpenGroup(t *testing.T) {
	store := seededStore(t, 6)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 3, SuccessorCapacity: 2})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Train the server: f000 -> f001, repeatedly.
	for i := 0; i < 6; i++ {
		if _, err := client.Open("/data/f000"); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Open("/data/f001"); err != nil {
			t.Fatal(err)
		}
	}

	group, err := newRawFetcher(t, addr).fetch("/data/f000")
	if err != nil {
		t.Fatal(err)
	}
	if len(group) < 2 {
		t.Fatalf("group of %d files, want >= 2 after training", len(group))
	}
	if group[0].Path != "/data/f000" || string(group[0].Data) != "contents of /data/f000" {
		t.Errorf("group head = %q (%q)", group[0].Path, group[0].Data)
	}
	found := false
	for _, f := range group[1:] {
		if f.Path == "/data/f001" {
			found = true
			if string(f.Data) != "contents of /data/f001" {
				t.Errorf("member data = %q", f.Data)
			}
		}
	}
	if !found {
		t.Errorf("trained successor /data/f001 missing from group %v", groupPaths(group))
	}

	// The client's own copy of the group: a plain Open is a hit.
	hitsBefore := client.Stats().Hits
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if got := client.Stats().Hits; got != hitsBefore+1 {
		t.Errorf("Hits = %d after Open of grouped file, want %d", got, hitsBefore+1)
	}
}

// rawFetcher opens paths over one raw connection that caches nothing, for
// tests that inspect whole group replies: every open reaches the server,
// and each reports the members of the one before as dropped, so every
// member arrives in full.
type rawFetcher struct {
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	id      uint64
	dropped []reported
}

func newRawFetcher(t *testing.T, addr string) *rawFetcher {
	t.Helper()
	rc := rawHello(t, rawDial(t, addr))
	t.Cleanup(func() { _ = rc.Close() })
	return &rawFetcher{conn: rc.Conn, r: rc.r, w: rc.w}
}

// fetch opens path and returns its group reply, demanded file first; a
// msgError reply is returned as an error, ErrNotFound for CodeNotFound.
func (f *rawFetcher) fetch(path string) ([]GroupFile, error) {
	f.id++
	req := encodeOpenRequest(openRequest{Path: path, Report: f.dropped})
	f.dropped = nil
	if err := putFrameID(f.w, msgOpen, f.id, req); err != nil {
		return nil, err
	}
	if err := f.w.Flush(); err != nil {
		return nil, err
	}
	var files []GroupFile
	for {
		typ, id, payload, err := readFrameID(f.r, nil)
		if err != nil {
			return nil, err
		}
		if id != f.id {
			return nil, fmt.Errorf("reply to request %d, want %d", id, f.id)
		}
		switch typ {
		case msgMemberChunk:
			p, data, tag, held, err := memberChunkView(payload)
			if err != nil || held {
				return nil, fmt.Errorf("chunk: held %v, %v", held, err)
			}
			files = append(files, GroupFile{Path: string(p), Data: append([]byte(nil), data...), Tag: tag})
			f.dropped = append(f.dropped, reported{Path: string(p)})
		case msgGroupEnd:
			return files, nil
		case msgError:
			e, err := decodeErrorResponse(payload)
			if err != nil {
				return nil, err
			}
			if e.Code == CodeNotFound {
				return nil, fmt.Errorf("%w: %s", ErrNotFound, e.Message)
			}
			return nil, fmt.Errorf("server error %d: %s", e.Code, e.Message)
		default:
			return nil, fmt.Errorf("unexpected reply type %d", typ)
		}
	}
}

func groupPaths(files []GroupFile) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.Path
	}
	return out
}

// peerRouter stands in for a router that forwards: RouteOpen parks a
// path under /remote/ until released, then answers for it, and declines
// every other path to the local serving path without waiting.
type peerRouter struct {
	release chan struct{} // closed to let parked forwards return
}

func newPeerRouter() *peerRouter {
	return &peerRouter{release: make(chan struct{})}
}

func (r *peerRouter) RouteOpen(path string, accessed []string) ([]GroupFile, bool, error) {
	if !strings.HasPrefix(path, "/remote/") {
		return nil, false, nil
	}
	<-r.release
	return []GroupFile{{Path: path, Data: []byte("forwarded " + path)}}, true, nil
}
