package fsnet

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aggcache/internal/obs/otrace"
)

// The router suite covers the hooks the cluster peer tier composes from:
// the ServerConfig.Router open interception point, Client.FetchGroup's
// whole-group staging, and Client.NoteAccess's piggyback relay.

// scriptedRouter handles paths under /remote/ with a fixed two-file
// group and records every call; everything else falls through to the
// local serving path.
type scriptedRouter struct {
	calls       atomic.Uint64
	lastAccess  atomic.Value // []string
	notFound    bool
	malformed   bool
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
	case r.malformed:
		return []GroupFile{{Path: "/wrong/head", Data: []byte("x")}}, true, nil
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

func TestClusterRouterErrorsStayPerRequest(t *testing.T) {
	store := seededStore(t, 2)
	for name, router := range map[string]*scriptedRouter{
		"malformed": {malformed: true},
		"internal":  {internalErr: true},
	} {
		_, addr := startServer(t, store, ServerConfig{Router: router})
		client, err := Dial(addr, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Open("/remote/x"); err == nil {
			t.Errorf("%s: routed open succeeded", name)
		}
		// The error was a typed reply, not a poisoned stream: the same
		// connection keeps serving local paths.
		if _, err := client.Open("/data/f000"); err != nil {
			t.Errorf("%s: local open after routed error: %v", name, err)
		}
		client.Close()
	}
}

// badGroupRouter is an InlineRouter whose every /remote/ group is
// malformed: empty, or headed by a file other than the demanded one (the
// demanded file follows it, so only the head is wrong). With onWorker it
// refuses the read loop, so the open comes back on a worker; otherwise
// it answers inline.
type badGroupRouter struct {
	empty    bool
	onWorker bool
}

func (r badGroupRouter) RouteOpen(string, []string) ([]GroupFile, bool, error) {
	return nil, false, errors.New("badGroupRouter is an InlineRouter")
}

func (r badGroupRouter) Route(path string, _ []string, _ otrace.Ctx, mayWait bool) (*Group, bool, bool, error) {
	if !strings.HasPrefix(path, "/remote/") {
		return nil, false, false, nil
	}
	if r.onWorker && !mayWait {
		return nil, false, true, nil
	}
	g := NewGroup()
	if !r.empty {
		g.Files = append(g.Files,
			GroupFile{Path: "/wrong/head", Data: []byte("x")},
			GroupFile{Path: path, Data: []byte("routed " + path)})
	}
	return g, true, false, nil
}

// TestInlineRouterMalformedGroupStaysPerRequest: a group that does not
// lead with the demanded file — an empty one included — fails its own
// request with CodeInternal, inline or on a worker, and by the server's
// check, not a recovered panic; the connection keeps serving, and the
// server releases the rejected group (race builds count the balance).
func TestInlineRouterMalformedGroupStaysPerRequest(t *testing.T) {
	for _, r := range []badGroupRouter{{empty: true}, {}, {empty: true, onWorker: true}, {onWorker: true}} {
		name := fmt.Sprintf("empty=%v/onWorker=%v", r.empty, r.onWorker)
		base, counted := liveGroups()
		srv, addr := startServer(t, seededStore(t, 2), ServerConfig{Router: r})
		rc := rawHello(t, rawDial(t, addr))
		_ = rc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for id := uint64(1); id <= 4; id += 2 {
			rc.send(t, msgOpen, id, appendOpenRequest(nil, "/remote/x", nil))
			if e := rc.recvError(t, id); e.Code != CodeInternal {
				t.Errorf("%s: malformed group: code %d, want CodeInternal", name, e.Code)
			}
			rc.send(t, msgOpen, id+1, appendOpenRequest(nil, "/data/f000", nil))
			for {
				typ, got, _, err := readFrameID(rc.r)
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
		_ = srv.Close() // waits for the handlers: no reply is in flight
		if now, _ := liveGroups(); counted && now != base {
			t.Errorf("%s: %d groups still referenced, want 0", name, now-base)
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

	group, err := fetchGroup(client, "/data/f000")
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

	// FetchGroup bypasses the local cache: another call fetches again.
	before := client.Stats().Fetches
	if _, err := fetchGroup(client, "/data/f000"); err != nil {
		t.Fatal(err)
	}
	if got := client.Stats().Fetches; got != before+1 {
		t.Errorf("Fetches = %d after second FetchGroup, want %d", got, before+1)
	}
	// ... while plain Open is a cache hit.
	hitsBefore := client.Stats().Hits
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if got := client.Stats().Hits; got != hitsBefore+1 {
		t.Errorf("Hits = %d after Open of grouped file, want %d", got, hitsBefore+1)
	}
}

// fetchGroup is FetchGroup for a test that only inspects the reply: a
// private copy of the group, its reference released.
func fetchGroup(c *Client, path string) ([]GroupFile, error) {
	g, err := c.FetchGroup(path, c.cfg.Trace.Root())
	if err != nil {
		return nil, err
	}
	defer g.Release()
	files := make([]GroupFile, len(g.Files))
	for i, f := range g.Files {
		files[i] = GroupFile{Path: f.Path, Data: append([]byte(nil), f.Data...)}
	}
	return files, nil
}

func groupPaths(files []GroupFile) []string {
	out := make([]string, len(files))
	for i, f := range files {
		out[i] = f.Path
	}
	return out
}

// TestClusterNoteAccessRelay: externally noted accesses ride the next
// fetch's piggyback and reach the server's metadata, so a relaying node
// gives the owner the same learning stream a direct client would.
func TestClusterNoteAccessRelay(t *testing.T) {
	store := seededStore(t, 6)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 3, SuccessorCapacity: 2})
	relay, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	// Relay a history this client never opened itself: f002 -> f003,
	// several times, each followed by a fetch that carries it.
	for i := 0; i < 6; i++ {
		relay.NoteAccess("/data/f002", "/data/f003")
		if _, err := fetchGroup(relay, "/data/f003"); err != nil {
			t.Fatal(err)
		}
	}

	group, err := fetchGroup(relay, "/data/f002")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range group {
		if f.Path == "/data/f003" {
			found = true
		}
	}
	if !found {
		t.Errorf("relayed transition f002->f003 not learned; group = %v", groupPaths(group))
	}
}

// TestNoteAccessKeepsNewest: the relay backlog is bounded by the protocol's
// piggyback limit and sheds from the front, so what survives a flood — or
// an outage longer than the bound — is the newest history, unbroken and in
// order, and that is what the next fetch delivers.
func TestNoteAccessKeepsNewest(t *testing.T) {
	// The server drops history naming files it never held: note real ones.
	const notes, batchLen = 3 * maxStatPaths, 7
	router := &scriptedRouter{}
	_, addr := startServer(t, seededStore(t, notes+batchLen), ServerConfig{Router: router})
	relay, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()

	var noted []string
	for len(noted) < notes {
		batch := make([]string, batchLen)
		for i := range batch {
			batch[i] = fmt.Sprintf("/data/f%03d", len(noted)+i)
		}
		relay.NoteAccess(batch...)
		noted = append(noted, batch...)
	}
	kept := relay.Backlog()
	if kept == 0 || kept > maxStatPaths {
		t.Fatalf("Backlog = %d after %d notes, want within (0, %d]", kept, len(noted), maxStatPaths)
	}
	if _, err := fetchGroup(relay, "/data/f000"); err != nil {
		t.Fatal(err)
	}
	got, _ := router.lastAccess.Load().([]string)
	if want := noted[len(noted)-kept:]; !slices.Equal(got, want) {
		t.Errorf("the fetch delivered %d paths ending in %q; want the newest %d noted, %q … %q",
			len(got), got[max(len(got)-1, 0):], kept, want[0], want[kept-1])
	}
	if relay.Backlog() != 0 {
		t.Errorf("Backlog = %d after the fetch that carried it, want 0", relay.Backlog())
	}
}
