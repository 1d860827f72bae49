package fsnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aggcache/internal/alloctest"
	"aggcache/internal/faultnet"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// The validated-reply suite: a connection's server sends header-only
// exactly the members its client holds at the member's tag, because the
// client reports every change the server did not make itself.

// tappedMember is one member of a group reply as it crossed the wire.
type tappedMember struct {
	path string
	tag  uint64
	held bool
}

// replyTap is a client connection that keeps every byte it reads, so a
// test can see each group reply exactly as the server wrote it.
type replyTap struct {
	net.Conn
	mu     sync.Mutex
	buf    []byte
	hello  bool                      // the bare-framed hello answer is consumed
	open   map[uint64][]tappedMember // chunks of groups not yet ended
	groups [][]tappedMember          // ended groups not yet taken
}

func (t *replyTap) Read(p []byte) (int, error) {
	n, err := t.Conn.Read(p)
	t.mu.Lock()
	t.buf = append(t.buf, p[:n]...)
	t.mu.Unlock()
	return n, err
}

// take parses every whole frame read so far and returns the group replies
// that ended since the last call.
func (t *replyTap) take(tb testing.TB) [][]tappedMember {
	tb.Helper()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open == nil {
		t.open = make(map[uint64][]tappedMember)
	}
	for len(t.buf) >= 4 {
		n := int(binary.BigEndian.Uint32(t.buf))
		if len(t.buf) < 4+n {
			break
		}
		frame := t.buf[4 : 4+n]
		t.buf = t.buf[4+n:]
		if !t.hello {
			t.hello = true
			continue
		}
		typ, id, payload := frame[0], binary.BigEndian.Uint64(frame[1:]), frame[v2HdrLen:]
		switch typ {
		case msgMemberChunk:
			path, _, tag, held, err := memberChunkView(payload)
			if err != nil {
				tb.Fatalf("tapped chunk: %v", err)
			}
			t.open[id] = append(t.open[id], tappedMember{string(path), tag, held})
		case msgGroupEnd:
			t.groups = append(t.groups, t.open[id])
			delete(t.open, id)
		}
	}
	out := t.groups
	t.groups = nil
	return out
}

// holdings is what c caches, path to tag.
func holdings(c *Client) map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, c.lru.Len())
	for id := range c.data {
		if c.lru.Contains(trace.FileID(id)) {
			out[c.ids.Path(trace.FileID(id))] = c.tags[id]
		}
	}
	return out
}

// traceContent is what generation gen of a trace file holds: a function
// of path and generation whose length varies with both, so a stale or
// misplaced copy never passes for the right one.
func traceContent(path string, gen int) []byte {
	head := fmt.Sprintf("%s#%d|", path, gen)
	return append([]byte(head), bytes.Repeat([]byte{byte('a' + gen%26)}, (len(path)*7+gen*13)%160)...)
}

// replayFleet is one client and the one or three servers a trace replays
// through: a single server, or a ring of three whose client sends each
// miss to its owner. Every connection the client makes is tapped.
type replayFleet struct {
	client  *Client
	servers []*Server
	stores  []*Store
	mu      sync.Mutex
	taps    []*replyTap
}

func newReplayFleet(t *testing.T, tr *trace.Trace, nodes, capacity, g int) *replayFleet {
	t.Helper()
	f := &replayFleet{}
	addrs := make([]string, nodes)
	listeners := make([]net.Listener, nodes)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i], addrs[i] = l, l.Addr().String()
	}
	for i, l := range listeners {
		store := NewStore()
		for id := 0; id < tr.Paths.Len(); id++ {
			p := tr.Paths.Path(trace.FileID(id))
			if err := store.Put(p, traceContent(p, 0)); err != nil {
				t.Fatal(err)
			}
		}
		cfg := ServerConfig{GroupSize: g, CacheCapacity: 256}
		if nodes > 1 {
			cfg.Views = newTestViews(addrs[i], 1, addrs...)
		}
		srv, err := NewServer(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
		})
		f.servers, f.stores = append(f.servers, srv), append(f.stores, store)
	}
	tap := func(addr string) (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		rt := &replyTap{Conn: raw}
		f.mu.Lock()
		f.taps = append(f.taps, rt)
		f.mu.Unlock()
		return rt, nil
	}
	cl, err := Dial(addrs[0], ClientConfig{
		CacheCapacity: capacity,
		Dialer:        func() (net.Conn, error) { return tap(addrs[0]) },
		DialMember:    tap,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	f.client = cl
	return f
}

// take returns every group reply any connection delivered since the last
// call.
func (f *replayFleet) take(t *testing.T) [][]tappedMember {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out [][]tappedMember
	for _, rt := range f.taps {
		out = append(out, rt.take(t)...)
	}
	return out
}

// replayValidated drives every open and write of tr through one client in
// lock step, checking each open's bytes against the newest generation
// written, and each group reply against the client: the members sent
// header-only are exactly those the client held at the member's tag when
// it wrote the request. It returns the client's and the servers' stats.
func replayValidated(t *testing.T, tr *trace.Trace, nodes, capacity, g int) (ClientStats, ServerStats) {
	t.Helper()
	f := newReplayFleet(t, tr, nodes, capacity, g)
	cl := f.client
	gens := make([]int, tr.Paths.Len())
	for i, ev := range tr.Events {
		path := tr.Paths.Path(ev.File)
		switch ev.Op {
		case trace.OpOpen:
			held := holdings(cl)
			data, err := cl.Open(path)
			if err != nil {
				t.Fatalf("event %d: open %s: %v", i, path, err)
			}
			if want := traceContent(path, gens[ev.File]); !bytes.Equal(data, want) {
				t.Fatalf("event %d: open %s = %.40q (%d bytes), want generation %d, %.40q (%d bytes)",
					i, path, data, len(data), gens[ev.File], want, len(want))
			}
			for _, group := range f.take(t) {
				for k, m := range group {
					want := k > 0 && m.tag != 0 && held[m.path] == m.tag
					if m.held != want {
						t.Fatalf("event %d: open %s: member %d %s sent header-only = %v; the client held it at %#x, the member is %#x",
							i, path, k, m.path, m.held, held[m.path], m.tag)
					}
				}
			}
		case trace.OpWrite:
			// The write goes to the seed; the test puts it on the other
			// replicas itself, as a ring's writer must today.
			gens[ev.File]++
			data := traceContent(path, gens[ev.File])
			if err := cl.Write(path, data); err != nil {
				t.Fatalf("event %d: write %s: %v", i, path, err)
			}
			for _, store := range f.stores[1:] {
				if err := store.Put(path, data); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var ss ServerStats
	for _, srv := range f.servers {
		st := srv.Stats()
		ss.Requests += st.Requests
		ss.ValidatedMembers += st.ValidatedMembers
		ss.ValidatedBytesSaved += st.ValidatedBytesSaved
	}
	return cl.Stats(), ss
}

// TestShadowMatchesClient is the validation oracle, the client's side of
// it: every open and write of the four standard workloads runs through one
// client in lock step — against one server (cells) and against a ring of
// three the client reaches over three connections (ring) — and every
// group reply must send header-only exactly the members the client held at
// that very tag when it wrote the request. No header-only chunk may miss,
// and the client honours every one the servers sent.
func TestShadowMatchesClient(t *testing.T) {
	opens := 20000
	if raceBuild || testing.Short() {
		opens = 4000 // the per-open snapshot of the cache is slow under the detector
	}
	cells := []struct{ capacity, g int }{{32, 5}, {128, 3}, {8, 5}, {64, 1}, {512, 8}}
	var validated atomic.Uint64
	check := func(t *testing.T, cs ClientStats, ss ServerStats) {
		if cs.ValidationMisses != 0 || cs.HistoryDropped != 0 {
			t.Errorf("ValidationMisses = %d, HistoryDropped = %d; want none with one request in flight",
				cs.ValidationMisses, cs.HistoryDropped)
		}
		if cs.ValidatedFiles != ss.ValidatedMembers {
			t.Errorf("the client honoured %d header-only members, the servers sent %d", cs.ValidatedFiles, ss.ValidatedMembers)
		}
		if cs.Fetches != ss.Requests-cs.Writes {
			t.Errorf("%d fetches and %d writes reached the servers as %d requests", cs.Fetches, cs.Writes, ss.Requests)
		}
		validated.Add(cs.ValidatedFiles)
	}
	for _, fleet := range []struct {
		name  string
		nodes int
		cells []struct{ capacity, g int }
	}{{"cells", 1, cells}, {"ring", 3, cells[:2]}} {
		t.Run(fleet.name, func(t *testing.T) {
			for _, p := range workload.Profiles() {
				tr, err := workload.Standard(p, 1, opens)
				if err != nil {
					t.Fatal(err)
				}
				for _, cell := range fleet.cells {
					t.Run(fmt.Sprintf("%s/cap%d/g%d", p, cell.capacity, cell.g), func(t *testing.T) {
						t.Parallel() // each cell has its own stores, servers and client
						cs, ss := replayValidated(t, tr, fleet.nodes, cell.capacity, cell.g)
						check(t, cs, ss)
					})
				}
			}
		})
	}
	if validated.Load() == 0 {
		t.Error("no cell validated a single member: the oracle compared nothing")
	}
}

// TestPipelinedValidationStaysNearLockStep: with 2 to 8 requests in
// flight, a report can cross a reply, so a server may send a member in
// full that the client holds or header-only that it just dropped. Neither
// may cost a wrong byte, and validation must keep most of its lock-step
// effect: k walks run by k goroutines sharing one client validate a share
// of the group members they receive within 0.1 of the share the same k
// walks validate when one goroutine takes their opens in turn, and at
// most one header-only member in ten misses. (The client installs a
// connection's replies in the order they arrived, because a reply may
// vouch for a member the one before it delivered; installed in the order
// their callers woke, half of them missed.)
func TestPipelinedValidationStaysNearLockStep(t *testing.T) {
	const opens = 1200 // per walk
	share := func(walks int, pipelined bool) float64 {
		srv, addr := startServer(t, seededStore(t, 24), ServerConfig{GroupSize: 4})
		client, err := Dial(addr, ClientConfig{CacheCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		open := func(w, i int) bool {
			path := fmt.Sprintf("/data/f%03d", sharedWalk(i+13*w))
			if d, err := client.Open(path); err != nil || string(d) != "contents of "+path {
				t.Errorf("%d walks: open %s = %q, %v", walks, path, d, err)
				return false
			}
			return true
		}
		if pipelined {
			var wg sync.WaitGroup
			for w := 0; w < walks; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opens && open(w, i); i++ {
					}
				}(w)
			}
			wg.Wait()
		} else {
			for i := 0; i < opens; i++ {
				for w := 0; w < walks; w++ {
					open(w, i)
				}
			}
		}
		cs, ss := client.Stats(), srv.Stats()
		if cs.ValidatedFiles+cs.ValidationMisses != ss.ValidatedMembers || cs.BrokenConns != 0 {
			t.Errorf("%d walks: the server sent %d header-only members, the client accounts for %d + %d (%d broken)",
				walks, ss.ValidatedMembers, cs.ValidatedFiles, cs.ValidationMisses, cs.BrokenConns)
		}
		members := cs.FilesReceived - cs.Fetches
		if members == 0 {
			t.Fatalf("%d walks: no group carried a member", walks)
		}
		if 10*cs.ValidationMisses > cs.ValidatedFiles {
			t.Errorf("%d walks, pipelined %v: %d header-only members missed, %d matched", walks, pipelined, cs.ValidationMisses, cs.ValidatedFiles)
		}
		return float64(cs.ValidatedFiles) / float64(members)
	}
	for _, walks := range []int{2, 4, 8} {
		lockStep, got := share(walks, false), share(walks, true)
		t.Logf("%d walks: %.3f of members validated in flight, %.3f in lock step", walks, got, lockStep)
		if lockStep == 0 {
			t.Errorf("%d walks: the lock-step run validated nothing", walks)
		}
		if got < lockStep-0.1 {
			t.Errorf("%d in flight: %.3f of members validated, lock step %.3f", walks, got, lockStep)
		}
	}
}

// TestKeptFilesLetGoOnceAnswered: a pipelined client keeps the contents
// of a file an install evicts while opens written before the eviction are
// unanswered, and lets go of them as those opens are answered, so once
// the walks are done and every open is answered it keeps nothing. In lock
// step the reply being installed is the only open in flight, and it
// counts as answered before its install, so no eviction keeps anything.
func TestKeptFilesLetGoOnceAnswered(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 24), ServerConfig{GroupSize: 4})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	kept := func() (n int, inFlight bool) {
		client.mu.Lock()
		defer client.mu.Unlock()
		for _, l := range client.tracked {
			n += len(l.kept)
			inFlight = inFlight || l.written != l.answered
		}
		return n, inFlight
	}
	// Lock step first: the hook runs under client.mu, inside an install.
	evictions, keptInLockStep := 0, 0
	client.lru.OnEvict(func(id trace.FileID, speculative bool) {
		client.evicted(id, speculative)
		evictions++
		for _, l := range client.tracked {
			keptInLockStep += len(l.kept)
		}
	})
	for i := 0; i < 600; i++ {
		path := fmt.Sprintf("/data/f%03d", sharedWalk(i))
		if _, err := client.Open(path); err != nil {
			t.Fatalf("lock-step open %s: %v", path, err)
		}
	}
	client.mu.Lock()
	client.lru.OnEvict(client.evicted)
	client.mu.Unlock()
	if evictions == 0 || keptInLockStep != 0 {
		t.Fatalf("lock step: %d evictions kept %d files, want evictions and nothing kept", evictions, keptInLockStep)
	}
	var wg sync.WaitGroup
	var sawKept atomic.Bool
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 600; i++ {
				path := fmt.Sprintf("/data/f%03d", sharedWalk(i+13*w))
				if d, err := client.Open(path); err != nil || string(d) != "contents of "+path {
					t.Errorf("open %s = %q, %v", path, d, err)
					return
				}
				if n, _ := kept(); n > 0 {
					sawKept.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
	if !sawKept.Load() {
		t.Error("no install evicted a file while opens were in flight: nothing was kept")
	}
	if n, inFlight := kept(); n != 0 || inFlight {
		t.Errorf("with every open answered the client keeps %d files (opens unanswered: %v)", n, inFlight)
	}
}

// fixedRouter answers each path under routePrefix with a fixed group — the
// path, then the shared members — built once and tagged as a store would,
// so a test controls exactly which members a reply repeats.
type fixedRouter struct {
	groups map[string][]GroupFile
}

func newFixedRouter(leads []string, members ...string) *fixedRouter {
	r := &fixedRouter{groups: make(map[string][]GroupFile)}
	file := func(p string) GroupFile {
		d := []byte("fixed contents of " + p)
		return GroupFile{Path: p, Data: d, Tag: contentTag(d)}
	}
	for _, lead := range leads {
		g := []GroupFile{file(lead)}
		for _, m := range members {
			g = append(g, file(m))
		}
		r.groups[lead] = g
	}
	return r
}

func (r *fixedRouter) RouteOpen(path string, _ []string) ([]GroupFile, bool, error) {
	g, ok := r.groups[path]
	return g, ok, nil
}

// store holds the router's files too, so the server knows their paths the
// way a cluster node knows its replicas' (a path it has never stored costs
// it a string per open).
func (r *fixedRouter) store(t testing.TB) *Store {
	t.Helper()
	store := NewStore()
	for _, g := range r.groups {
		for _, f := range g {
			if err := store.Put(f.Path, f.Data); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store
}

var (
	fixedLeads   = []string{routePrefix + "a", routePrefix + "b"}
	fixedMembers = []string{routePrefix + "m1", routePrefix + "m2", routePrefix + "m3", routePrefix + "m4"}
)

// TestAllocBudgetValidatedFetch pins the fetch validation exists for: the
// demanded file is new, its four fellow members are all cached already and
// arrive as headers, and the client's one allocation — the slab — holds
// one file instead of five.
func TestAllocBudgetValidatedFetch(t *testing.T) {
	router := newFixedRouter(fixedLeads, fixedMembers...)
	srv, addr := startServer(t, router.store(t), ServerConfig{Router: router})
	// Five slots: the four members stay, the two leads evict each other.
	client, err := Dial(addr, ClientConfig{CacheCapacity: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	i := 0
	allocs := alloctest.PerOp(t, func() {
		lead := fixedLeads[i%2]
		i++
		data, err := client.Open(lead)
		if err != nil {
			t.Fatal(err)
		}
		if want := router.groups[lead][0].Data; !bytes.Equal(data, want) || cap(data) != len(want) {
			t.Fatalf("open %s = %q (cap %d), want %q in a slab of its own", lead, data, cap(data), want)
		}
	})
	if allocs != 1 {
		t.Errorf("a fetch with four validated members allocates %.0f objects, budget exactly 1", allocs)
	}
	cs, ss := client.Stats(), srv.Stats()
	if cs.Hits != 0 || cs.ValidationMisses != 0 || cs.ValidatedFiles < 4*400 || cs.ValidatedFiles != ss.ValidatedMembers {
		t.Errorf("client %+v, server validated %d: the pinned opens were not all fetches with four validated members", cs, ss.ValidatedMembers)
	}
	for _, m := range fixedMembers {
		if d, err := client.Open(m); err != nil || !bytes.Equal(d, router.groups[fixedLeads[0]][1+slices.Index(fixedMembers, m)].Data) {
			t.Errorf("member %s after %d header-only refreshes = %q, %v", m, cs.ValidatedFiles/4, d, err)
		}
	}
}

// TestAllocBudgetValidatedReply pins the server's side: on a warmed
// connection an open answered with four header-only members allocates
// exactly what the same open answered in full does — nothing. The client
// here is a raw connection that reads every frame into one buffer, so the
// whole process's allocations are the server's. To be answered in full it
// reports, with every open, that it dropped the other lead's group.
func TestAllocBudgetValidatedReply(t *testing.T) {
	router := newFixedRouter(fixedLeads, fixedMembers...)
	srv, addr := startServer(t, router.store(t), ServerConfig{Router: router})
	measure := func(drop bool) float64 {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rc := rawHello(t, conn)
		var req, buf []byte
		id := uint64(0)
		return alloctest.PerOp(t, func() {
			id++
			req = appendOpenRequest(req[:0], fixedLeads[id%2], nil, false)
			if drop {
				req = appendReportHdr(req, 1+len(fixedMembers))
				req = appendReportEntry(req, fixedLeads[(id+1)%2], 0)
				for _, m := range fixedMembers {
					req = appendReportEntry(req, m, 0)
				}
			}
			rc.send(t, msgOpen, id, req)
			for {
				typ, gotID, frame, err := readFrameID(rc.r, buf[:0])
				if err != nil || gotID != id || (typ != msgMemberChunk && typ != msgGroupEnd) {
					t.Fatalf("reply to open %d: type %d id %d, %v", id, typ, gotID, err)
				}
				buf = frame
				if typ == msgGroupEnd {
					return
				}
			}
		})
	}
	before := srv.Stats().ValidatedMembers
	full := measure(true)
	if sent := srv.Stats().ValidatedMembers - before; sent != 0 {
		t.Fatalf("the connection that reported every drop was sent %d header-only members", sent)
	}
	validated := measure(false)
	if sent := srv.Stats().ValidatedMembers - before; sent < 4*400 {
		t.Fatalf("the connection was sent %d header-only members, want four an open", sent)
	}
	if validated != full || full != 0 {
		t.Errorf("a validated open allocates %.0f objects at the server, a full one %.0f; want 0 and 0", validated, full)
	}
}

// TestValidationMissDropsMemberAndIsReported scripts a server that is
// wrong about the client: it sends a header-only chunk for a member the
// client never received, and one for a member the client holds under
// another tag. Neither may install anything or fail the open; each costs
// one prefetch, and the very next request reports the truth about both.
func TestValidationMissDropsMemberAndIsReported(t *testing.T) {
	var mu sync.Mutex
	var reports [][]reported
	addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		mu.Lock()
		reports = append(reports, req.Report)
		n := len(reports)
		mu.Unlock()
		ok := writeChunk(w, id, req.Path, []byte("whole "+req.Path)) == nil
		switch n {
		case 1: // an honest group: /v/held arrives in full
			ok = ok && writeChunk(w, id, "/v/held", []byte("held v1")) == nil
		case 2: // a member never sent, and one held under another tag
			ok = ok && writeHeldChunk(w, id, "/v/never", contentTag([]byte("never sent"))) == nil &&
				writeHeldChunk(w, id, "/v/held", contentTag([]byte("held v2"))) == nil
			return ok && putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 3)) == nil
		case 3: // the right tag this time
			ok = ok && writeHeldChunk(w, id, "/v/held", contentTag([]byte("held v1"))) == nil
		}
		return ok && putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 2)) == nil
	}))
	client, err := Dial(addr, ClientConfig{CacheCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i, p := range []string{"/v/a", "/v/b", "/v/c"} {
		if d, err := client.Open(p); err != nil || string(d) != "whole "+p {
			t.Fatalf("open %d %s = %q, %v", i, p, d, err)
		}
	}
	if client.Contains("/v/never") {
		t.Error("a header-only chunk for a file never received made it resident")
	}
	if d, err := client.Open("/v/held"); err != nil || string(d) != "held v1" {
		t.Errorf("open /v/held = %q, %v; want the bytes it arrived with, untouched by two header-only chunks", d, err)
	}
	st := client.Stats()
	if st.ValidationMisses != 2 || st.ValidatedFiles != 1 || st.FilesReceived != 7 || st.BrokenConns != 0 {
		t.Errorf("stats = %+v; want 2 misses, 1 validated file, 7 files received, no broken connection", st)
	}
	mu.Lock()
	defer mu.Unlock()
	want := [][]reported{nil, nil, {{"/v/never", 0}, {"/v/held", contentTag([]byte("held v1"))}}}
	if len(reports) != 3 || !slices.Equal(reports[0], want[0]) || !slices.Equal(reports[1], want[1]) || !slices.Equal(reports[2], want[2]) {
		t.Errorf("reports = %v, want %v: the request after the misses reports both", reports, want)
	}
}

// TestRepliesInstallInArrivalOrder: a server may send a member in full on
// one reply and vouch for it header-only on the next, because it sent
// them in that order. Two opens in flight on one connection get exactly
// that pair back to back; whichever caller wakes first, the client must
// install the replies in the order they arrived and honour the second.
func TestRepliesInstallInArrivalOrder(t *testing.T) {
	member := []byte("member bytes")
	for trial := 0; trial < 20; trial++ {
		var first uint64
		var firstPath string
		addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
			if first == 0 { // hold the first open until the second arrives
				first, firstPath = id, req.Path
				return true
			}
			return writeChunk(w, first, firstPath, []byte("lead "+firstPath)) == nil &&
				writeChunk(w, first, "/o/member", member) == nil &&
				putFrameID(w, msgGroupEnd, first, appendGroupEnd(nil, 2)) == nil &&
				writeChunk(w, id, req.Path, []byte("lead "+req.Path)) == nil &&
				writeHeldChunk(w, id, "/o/member", contentTag(member)) == nil &&
				putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 2)) == nil
		}))
		client, err := Dial(addr, ClientConfig{CacheCapacity: 8})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, p := range []string{"/o/a", "/o/b"} {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				if d, err := client.Open(p); err != nil || string(d) != "lead "+p {
					t.Errorf("open %s = %q, %v", p, d, err)
				}
			}(p)
		}
		wg.Wait()
		st := client.Stats()
		_ = client.Close()
		if st.ValidationMisses != 0 || st.ValidatedFiles != 1 {
			t.Fatalf("trial %d: %d validated, %d missed; want the second reply's member honoured", trial, st.ValidatedFiles, st.ValidationMisses)
		}
	}
}

// TestHeldChunkWithoutACache: a header-only chunk can only be made good
// from a cache, and the demanded file is one the client has just missed.
// One leading a reply is a desynchronised stream, not data.
func TestHeldChunkWithoutACache(t *testing.T) {
	addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		return writeHeldChunk(w, id, req.Path, 7) == nil &&
			putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 1)) == nil
	}))
	t.Run("held-lead", func(t *testing.T) {
		client, err := Dial(addr, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		if _, err := client.Open("/v/lead"); !errors.Is(err, ErrConnBroken) {
			t.Fatalf("err = %v, want ErrConnBroken", err)
		}
		if st := client.Stats(); st.BrokenConns != 1 || client.Connected() {
			t.Errorf("stats = %+v, connected = %v; want the connection poisoned", st, client.Connected())
		}
	})
}

// TestHistoryShedIsCounted: more hits than the protocol can piggyback
// separate two fetches. The fetch after them carries the newest the
// protocol allows, with the gap flag, so the server learns the newest
// hits, unbroken and in order; every entry it was never sent is counted;
// and since what the client holds is reported, not
// replayed from the history, validation goes on — every later open
// byte-correct, no header-only member missed.
func TestHistoryShedIsCounted(t *testing.T) {
	const files, hits = 40, 1500
	router := &scriptedRouter{}
	srv, addr := startServer(t, seededStore(t, files), ServerConfig{Router: router, GroupSize: 3})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	check := func(i int) {
		t.Helper()
		path := fmt.Sprintf("/data/f%03d", i)
		if d, err := client.Open(path); err != nil || string(d) != "contents of "+path {
			t.Fatalf("open %s = %q, %v", path, d, err)
		}
	}
	// Two rounds over eight files: the second is all hits. The fetch of
	// f008 then carries the history log's entries away.
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			check(i)
		}
	}
	check(8)
	var hit []string
	for i := 0; i < hits; i++ {
		check(i % 8)
		hit = append(hit, fmt.Sprintf("/data/f%03d", i%8))
	}
	if f := client.Stats().Fetches; f != 9 {
		t.Fatalf("Fetches = %d: the %d opens between the two fetches were not all hits", f, hits)
	}
	check(20)
	got, _ := router.lastAccess.Load().([]string)
	if len(got) < maxStatPaths*3/4 || len(got) > maxStatPaths || !slices.Equal(got, hit[hits-len(got):]) {
		t.Fatalf("the fetch delivered %d accesses ending in %q; want the newest %d..%d hits, in order",
			len(got), got[max(len(got)-1, 0):], maxStatPaths*3/4, maxStatPaths)
	}
	st := client.Stats()
	if want := uint64(hits - len(got)); st.HistoryDropped != want {
		t.Errorf("HistoryDropped = %d, want %d (%d hits, %d delivered)", st.HistoryDropped, want, hits, len(got))
	}
	validated := srv.Stats().ValidatedMembers
	for round := 0; round < 3; round++ {
		for i := 0; i < files; i++ {
			check(i)
		}
	}
	if now := srv.Stats().ValidatedMembers; now == validated {
		t.Errorf("ValidatedMembers stuck at %d after the shed", now)
	}
	if st := client.Stats(); st.ValidationMisses != 0 || st.ValidatedFiles != srv.Stats().ValidatedMembers {
		t.Errorf("client %+v, server validated %d; want every header-only member honoured", st, srv.Stats().ValidatedMembers)
	}
}

// TestValidatedReplyNeverStale: the skip compares tags, not residency.
// Client A holds b and c; client B overwrites b; the next group A fetches
// that names both carries c as a header and b in full, with B's bytes.
func TestValidatedReplyNeverStale(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 8), ServerConfig{GroupSize: 3})
	a, err := Dial(addr, ClientConfig{CacheCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	f := func(i int) string { return fmt.Sprintf("/data/f%03d", i) }
	open := func(i int) string {
		t.Helper()
		d, err := a.Open(f(i))
		if err != nil {
			t.Fatal(err)
		}
		return string(d)
	}
	// Teach the server f0 -> f1 -> f2, then leave A holding f1 and f2 but
	// not f0: f5 and f6 push the least recently used file, f0, out.
	for round := 0; round < 4; round++ {
		for i := 0; i < 3; i++ {
			open(i)
		}
	}
	open(5)
	open(6)
	if a.Contains(f(0)) || !a.Contains(f(1)) || !a.Contains(f(2)) {
		t.Fatalf("setup: resident f0=%v f1=%v f2=%v, want false true true", a.Contains(f(0)), a.Contains(f(1)), a.Contains(f(2)))
	}
	b, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Write(f(1), []byte("rewritten by B")); err != nil {
		t.Fatal(err)
	}
	before, sent := a.Stats(), srv.Stats()
	open(0)
	after := a.Stats()
	if after.FilesReceived-before.FilesReceived != 3 {
		t.Fatalf("the refetch of f0 carried %d files, want its group of 3", after.FilesReceived-before.FilesReceived)
	}
	if got := srv.Stats().ValidatedMembers - sent.ValidatedMembers; got != 1 || after.ValidatedFiles-before.ValidatedFiles != 1 {
		t.Errorf("header-only members: server sent %d, client honoured %d; want 1 (f2 alone — f1 changed)",
			got, after.ValidatedFiles-before.ValidatedFiles)
	}
	if got := open(1); got != "rewritten by B" {
		t.Errorf("A's f1 after the refetch = %q, want B's bytes", got)
	}
	if got := open(2); got != "contents of "+f(2) {
		t.Errorf("A's f2 after the refetch = %q", got)
	}
	if st := a.Stats(); st.ValidationMisses != 0 || st.Hits != after.Hits+2 {
		t.Errorf("stats = %+v: f1 and f2 should have been hits, with no validation miss", st)
	}
}

// TestPipelinedOpensStayCorrect: eight goroutines share one client, so
// requests overlap and the order the client installs replies in is not the
// order the server sent them. A report may cross a reply and a header-only
// chunk may miss — and every byte of every reply is still right, with no
// error and no broken connection.
func TestPipelinedOpensStayCorrect(t *testing.T) {
	const workers, opens, files = 8, 300, 48
	srv, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 5})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opens; i++ {
				// Overlapping walks: neighbours share most of their files.
				path := fmt.Sprintf("/data/f%03d", (w*5+i*(1+w%3))%files)
				if d, err := client.Open(path); err != nil || string(d) != "contents of "+path {
					t.Errorf("worker %d open %d %s = %q, %v", w, i, path, d, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	cs, ss := client.Stats(), srv.Stats()
	if cs.Opens != workers*opens || cs.BrokenConns != 0 || cs.Retries != 0 || ss.Errors != 0 {
		t.Errorf("client %+v, server errors %d; want %d clean opens", cs, ss.Errors, workers*opens)
	}
	if cs.ValidatedFiles+cs.ValidationMisses != ss.ValidatedMembers {
		t.Errorf("the server sent %d header-only members, the client accounts for %d + %d",
			ss.ValidatedMembers, cs.ValidatedFiles, cs.ValidationMisses)
	}
	t.Logf("validated %d, missed %d", cs.ValidatedFiles, cs.ValidationMisses)
}

// sharedWalk is the i-th file of a walk that makes replies repeat members
// the client still holds: ten runs of lead, f001, f002, tail, so every
// lead's group names the two files in the middle, which a cache of eight
// never lets go of.
func sharedWalk(i int) int {
	run := i / 4 % 10
	return [4]int{3 + 2*run, 1, 2, 4 + 2*run}[i%4]
}

// TestRedialedConnectionIsReported: a connection killed mid-stream is
// replaced by one whose server knows nothing of the client's cache. The
// client's first open on it reports everything it holds, so validation
// resumes — every reply complete and correct, no header-only member
// missed.
func TestRedialedConnectionIsReported(t *testing.T) {
	const files = 24
	srv, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 4})
	var gate faultnet.Gate
	dial, _ := faultnet.GatedDialer(addr, &gate)
	client, err := Dial(addr, ClientConfig{CacheCapacity: 8, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	round := func() {
		t.Helper()
		for i := 0; i < 3*40; i++ {
			path := fmt.Sprintf("/data/f%03d", sharedWalk(i))
			if d, err := client.Open(path); err != nil || string(d) != "contents of "+path {
				t.Fatalf("open %s = %q, %v", path, d, err)
			}
		}
	}
	round()
	before := srv.Stats().ValidatedMembers
	if before == 0 {
		t.Fatal("setup: the first connection validated nothing")
	}
	// Kill it under a fetch, then heal: the failed open is not retried
	// (MaxRetries 0), the next one redials.
	gate.SetDown(true)
	var killed error
	for i := 0; i < files && killed == nil; i++ {
		_, killed = client.Open(fmt.Sprintf("/data/f%03d", i))
	}
	if !errors.Is(killed, ErrConnBroken) {
		t.Fatalf("no open failed on the killed connection (last err %v)", killed)
	}
	gate.SetDown(false)
	round()
	cs := client.Stats()
	if cs.Reconnects != 1 {
		t.Errorf("Reconnects = %d, want one redial", cs.Reconnects)
	}
	if now := srv.Stats().ValidatedMembers; now == before {
		t.Errorf("ValidatedMembers stuck at %d after the redial", now)
	}
	if cs.ValidationMisses != 0 {
		t.Errorf("ValidationMisses = %d, want 0", cs.ValidationMisses)
	}
}

// TestReportSetsAndClearsEntries drives a connection's table by hand: a
// member sent in full is held from then on, a report of it dropped sends
// it in full again, a report of it held at its tag — for a file this
// connection never sent — sends it header-only, and a report naming a
// file the store does not hold changes nothing.
func TestReportSetsAndClearsEntries(t *testing.T) {
	store := seededStore(t, 8)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 3})
	rc := rawHello(t, rawDial(t, addr))
	f := func(i int) string { return fmt.Sprintf("/data/f%03d", i) }
	tag := func(i int) uint64 { return contentTag([]byte("contents of " + f(i))) }
	id := uint64(0)
	var openOn func(rc *rawConn, path string, accessed []string, report ...reported) []string
	open := func(path string, accessed []string, report ...reported) (held []string) {
		t.Helper()
		return openOn(rc, path, accessed, report...)
	}
	openOn = func(rc *rawConn, path string, accessed []string, report ...reported) (held []string) {
		t.Helper()
		id++
		rc.send(t, msgOpen, id, encodeOpenRequest(openRequest{Path: path, Accessed: accessed, Report: report}))
		for {
			typ, gotID, payload, err := readFrameID(rc.r, nil)
			if err != nil || gotID != id {
				t.Fatalf("reply to open %d: id %d, %v", id, gotID, err)
			}
			if typ == msgGroupEnd {
				return held
			}
			if p, _, _, h, err := memberChunkView(payload); err != nil {
				t.Fatal(err)
			} else if h {
				held = append(held, string(p))
			}
		}
	}
	// f0 -> f1 -> f2 learned on another connection, so this one has been
	// sent nothing.
	teacher := rawHello(t, rawDial(t, addr))
	for round := 0; round < 3; round++ {
		for i := 0; i < 3; i++ {
			var accessed []string
			if i > 0 {
				accessed = []string{f(i - 1)}
			}
			teacher.send(t, msgOpen, uint64(3*round+i+1), appendOpenRequest(nil, f(i), accessed, false))
			for typ := uint8(0); typ != msgGroupEnd; {
				var err error
				if typ, _, _, err = readFrameID(teacher.r, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// This connection walks the same chain, so its own opens keep f0's
	// group as it is.
	walk := []string{f(1), f(2)}
	if held := open(f(0), nil); len(held) != 0 {
		t.Fatalf("first group on a fresh connection sent %v header-only", held)
	}
	if held := open(f(0), walk); !slices.Equal(held, []string{f(1), f(2)}) {
		t.Errorf("repeat of a group sent in full: header-only %v, want [f1 f2]", held)
	}
	if held := open(f(0), walk, reported{f(1), 0}, reported{"/data/none", 9}); !slices.Equal(held, []string{f(2)}) {
		t.Errorf("after f1 was reported dropped: header-only %v, want [f2]", held)
	}
	if held := open(f(0), walk, reported{f(1), 0}, reported{f(2), tag(2) + 1}); len(held) != 0 {
		t.Errorf("after f1 dropped and f2 reported at another tag: header-only %v, want none", held)
	}
	fresh := rawHello(t, rawDial(t, addr))
	if held := openOn(fresh, f(0), walk, reported{f(1), tag(1)}, reported{f(2), tag(2)}); !slices.Equal(held, []string{f(1), f(2)}) {
		t.Errorf("a fresh connection whose first open reports f1 and f2 held: header-only %v, want [f1 f2]", held)
	}
}

func BenchmarkStorePut(b *testing.B) {
	for _, size := range []int{512, 4 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			store, data := NewStore(), bytes.Repeat([]byte{0xA5}, size)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := store.Put("/bench/put", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var tagSink uint64

// BenchmarkContentTag races the two standard-library candidates for the
// store's validator over the ruler's file sizes.
func BenchmarkContentTag(b *testing.B) {
	ecma := crc64.MakeTable(crc64.ECMA)
	for _, c := range []struct {
		name string
		tag  func([]byte) uint64
	}{
		{"crc32pair", contentTag},
		{"crc64ecma", func(d []byte) uint64 { return crc64.Checksum(d, ecma) }},
	} {
		for _, size := range []int{512, 4 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%s/%dB", c.name, size), func(b *testing.B) {
				data := bytes.Repeat([]byte{0xA5}, size)
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					tagSink += c.tag(data)
				}
			})
		}
	}
}
