package fsnet

import (
	"bufio"
	"bytes"
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

// Test-only views of the two caches the validated-reply protocol keeps in
// step: the client's and the server's shadow of it.

// serveShadowed serves srv on a fresh loopback listener the way
// Server.Serve does, except that the test keeps each validated
// connection's shadow: shadows delivers one per connection whose hello
// declared a cache.
func serveShadowed(t *testing.T, srv *Server) (addr string, shadows <-chan *shadow) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan *shadow, 4) // more than any caller's connections
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for src := uint64(1); ; src++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				r := bufio.NewReaderSize(conn, connBufSize)
				if capacity, ok := srv.handshake(conn, r); ok {
					sh := newShadow(capacity)
					if sh != nil {
						out <- sh
					}
					srv.serve(conn, r, src, sh)
				}
			}()
		}
	}()
	// Registered after the callers' own deferred Close of their clients,
	// so it runs once every connection has ended.
	t.Cleanup(func() {
		_ = l.Close()
		wg.Wait()
	})
	return l.Addr().String(), out
}

// requireShadowEqual fails unless the shadow's residency set and tags are
// exactly the client's: every file the client caches is shadow-resident
// under the same tag, and the two sets have the same size. The client side
// is scanned by slot (an evicted slot is nil), the shadow is asked by the
// server's ID for the same path. rehash also checks each client tag
// against the bytes it stands for.
func requireShadowEqual(t testing.TB, c *Client, srv *Server, sh *shadow, rehash bool, when string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.capacity == 0 {
		t.Fatalf("%s: the shadow was dropped", when)
	}
	resident := 0
	for id, d := range c.data {
		if d == nil {
			continue
		}
		resident++
		path := c.ids.Path(trace.FileID(id))
		if !c.lru.Contains(trace.FileID(id)) {
			t.Fatalf("%s: client slot %s holds bytes but is not resident", when, path)
		}
		sid, ok := srv.ids.Lookup(path)
		if !ok || sh.lru == nil || !sh.lru.Contains(sid) {
			t.Fatalf("%s: client holds %s, the shadow does not", when, path)
		}
		if sh.tags[sid] != c.tags[id] {
			t.Fatalf("%s: %s is tagged %#x at the client, %#x in the shadow", when, path, c.tags[id], sh.tags[sid])
		}
		if !rehash {
			continue
		}
		if want := contentTag(d); c.tags[id] != want {
			t.Fatalf("%s: client's tag for %s is %#x, its bytes hash to %#x", when, path, c.tags[id], want)
		}
	}
	if resident != c.lru.Len() {
		t.Fatalf("%s: %d client slots hold bytes, %d files are resident", when, resident, c.lru.Len())
	}
	if shadowed := 0; sh.lru != nil {
		if shadowed = sh.lru.Len(); shadowed != resident {
			t.Fatalf("%s: the client holds %d files, the shadow %d", when, resident, shadowed)
		}
	}
}

// traceContent is what generation gen of a trace file holds: a function
// of path and generation whose length varies with both, so a stale or
// misplaced copy never passes for the right one.
func traceContent(path string, gen int) []byte {
	head := fmt.Sprintf("%s#%d|", path, gen)
	return append([]byte(head), bytes.Repeat([]byte{byte('a' + gen%26)}, (len(path)*7+gen*13)%160)...)
}

// replayOutcome is what one replay of a trace through a live client left
// behind, for comparison between a validated and an unvalidated run.
type replayOutcome struct {
	hits   []bool // per open, in order
	client ClientStats
	server ServerStats
}

// replayTrace drives every open and write of tr through one client and one
// in-process server, checking each open's bytes against the newest
// generation written. With validate the hello declares the cache and the
// shadow is compared with the client after every operation; without, the
// client asks for no validation and is served the way a client was before
// replies could be validated.
func replayTrace(t *testing.T, tr *trace.Trace, capacity, g int, validate bool) replayOutcome {
	t.Helper()
	store := NewStore()
	for id := 0; id < tr.Paths.Len(); id++ {
		p := tr.Paths.Path(trace.FileID(id))
		if err := store.Put(p, traceContent(p, 0)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(store, ServerConfig{GroupSize: g, CacheCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	addr, shadows := serveShadowed(t, srv)
	cl, err := Dial(addr, ClientConfig{CacheCapacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Close() })
	cl.novalidate.Store(!validate)

	var out replayOutcome
	var sh *shadow
	gens := make([]int, tr.Paths.Len())
	for i, ev := range tr.Events {
		path := tr.Paths.Path(ev.File)
		switch ev.Op {
		case trace.OpOpen:
			before := cl.Stats().Hits
			data, err := cl.Open(path)
			if err != nil {
				t.Fatalf("event %d: open %s: %v", i, path, err)
			}
			if want := traceContent(path, gens[ev.File]); !bytes.Equal(data, want) {
				t.Fatalf("event %d: open %s = %.40q (%d bytes), want generation %d, %.40q (%d bytes)",
					i, path, data, len(data), gens[ev.File], want, len(want))
			}
			out.hits = append(out.hits, cl.Stats().Hits > before)
		case trace.OpWrite:
			gens[ev.File]++
			if err := cl.Write(path, traceContent(path, gens[ev.File])); err != nil {
				t.Fatalf("event %d: write %s: %v", i, path, err)
			}
		default:
			continue
		}
		if validate {
			if sh == nil {
				sh = <-shadows // the first operation shook hands
			}
			requireShadowEqual(t, cl, srv, sh, i%128 == 0, fmt.Sprintf("after event %d (%s %s)", i, ev.Op, path))
		}
	}
	out.client, out.server = cl.Stats(), srv.Stats()
	return out
}

// TestShadowMatchesClient is the shadow oracle: the server's replay of a
// connection's client cache is that cache. Every open and write of the
// four standard workloads runs through one client and one server, and
// after each the shadow's residency set and tags must equal the client's;
// no header-only chunk may miss and no shadow may be dropped. The same
// trace through a client that asks for no validation — the parent's
// serving path — must then see the same hit on the same open and end with
// the same counters: validated replies move bytes, never placement.
func TestShadowMatchesClient(t *testing.T) {
	opens := 20000
	if _, race := liveGroups(); race || testing.Short() {
		opens = 4000 // the per-operation comparison is quadratic under the detector
	}
	cells := []struct{ capacity, g int }{{32, 5}, {128, 3}, {8, 5}, {64, 1}, {512, 8}}
	var validated atomic.Uint64
	t.Run("cells", func(t *testing.T) {
		for _, p := range workload.Profiles() {
			tr, err := workload.Standard(p, 1, opens)
			if err != nil {
				t.Fatal(err)
			}
			for _, cell := range cells {
				t.Run(fmt.Sprintf("%s/cap%d/g%d", p, cell.capacity, cell.g), func(t *testing.T) {
					t.Parallel() // each cell has its own store, server and clients
					got := replayTrace(t, tr, cell.capacity, cell.g, true)
					want := replayTrace(t, tr, cell.capacity, cell.g, false)
					if !slices.Equal(got.hits, want.hits) {
						t.Fatalf("the validated run hit on different opens than the unvalidated one (first at open %d)",
							firstDifference(got.hits, want.hits))
					}
					gc, wc := got.client, want.client
					if gc.Hits != wc.Hits || gc.Fetches != wc.Fetches || gc.PrefetchHits != wc.PrefetchHits || gc.FilesReceived != wc.FilesReceived {
						t.Errorf("client stats validated %+v, unvalidated %+v", gc, wc)
					}
					if gc.ValidationMisses != 0 || got.server.ShadowResets != 0 || gc.HistoryDropped != 0 {
						t.Errorf("ValidationMisses = %d, ShadowResets = %d, HistoryDropped = %d; want none with one request in flight",
							gc.ValidationMisses, got.server.ShadowResets, gc.HistoryDropped)
					}
					if gc.ValidatedFiles != got.server.ValidatedMembers {
						t.Errorf("the client honoured %d header-only members, the server sent %d", gc.ValidatedFiles, got.server.ValidatedMembers)
					}
					if gc.BytesReceived+got.server.ValidatedBytesSaved != wc.BytesReceived {
						t.Errorf("%d bytes received + %d saved != the %d an unvalidated client receives",
							gc.BytesReceived, got.server.ValidatedBytesSaved, wc.BytesReceived)
					}
					if wc.ValidatedFiles != 0 || want.server.ValidatedMembers != 0 {
						t.Errorf("the unvalidated run saw %d/%d header-only members", wc.ValidatedFiles, want.server.ValidatedMembers)
					}
					if got.server.Cache != want.server.Cache || got.server.FilesSent != want.server.FilesSent {
						t.Errorf("server stats validated %+v, unvalidated %+v", got.server, want.server)
					}
					validated.Add(gc.ValidatedFiles)
				})
			}
		}
	})
	if validated.Load() == 0 {
		t.Error("no cell validated a single member: the oracle compared nothing")
	}
}

func firstDifference(a, b []bool) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
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
// here is a raw connection that recycles every frame, so the whole
// process's allocations are the server's.
func TestAllocBudgetValidatedReply(t *testing.T) {
	router := newFixedRouter(fixedLeads, fixedMembers...)
	srv, addr := startServer(t, router.store(t), ServerConfig{Router: router})
	measure := func(capacity uint64) float64 {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		rc := rawHelloCap(t, conn, capacity)
		var req []byte
		id := uint64(0)
		return alloctest.PerOp(t, func() {
			id++
			req = appendOpenRequest(req[:0], fixedLeads[id%2], nil)
			rc.send(t, msgOpen, id, req)
			for {
				typ, gotID, payload, err := readFrameID(rc.r)
				putFrameBuf(payload)
				if err != nil || gotID != id || (typ != msgMemberChunk && typ != msgGroupEnd) {
					t.Fatalf("reply to open %d: type %d id %d, %v", id, typ, gotID, err)
				}
				if typ == msgGroupEnd {
					return
				}
			}
		})
	}
	full := measure(0)
	before := srv.Stats().ValidatedMembers
	validated := measure(5)
	if sent := srv.Stats().ValidatedMembers - before; sent < 4*400 {
		t.Fatalf("the shadowed connection was sent %d header-only members, want four an open", sent)
	}
	if validated != full || full != 0 {
		t.Errorf("a validated open allocates %.0f objects at the server, an unvalidated one %.0f; want 0 and 0", validated, full)
	}
}

// TestValidationMissDropsMemberAndEndsValidation scripts a server whose
// shadow is wrong: it sends a header-only chunk for a member the client
// never received, and one for a member the client holds under another
// tag. Neither may install anything or fail the open; each costs one
// prefetch, and the very next request tells the server to stop.
func TestValidationMissDropsMemberAndEndsValidation(t *testing.T) {
	var mu sync.Mutex
	var flags []uint8
	addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		mu.Lock()
		flags = append(flags, req.Flags)
		n := len(flags)
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
	if !client.novalidate.Load() {
		t.Error("the client still believes its connection validated")
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []uint8{0, 0, openUnvalidated}; !slices.Equal(flags, want) {
		t.Errorf("request flags = %v, want %v: the request after the miss reports it", flags, want)
	}
}

// TestHeldChunkWithoutACache: a header-only chunk can only be made good
// from a cache. One leading a reply, or one answering FetchGroup — which
// caches nothing and says so — is a desynchronised stream, not data.
func TestHeldChunkWithoutACache(t *testing.T) {
	addr := fakeV3Server(t, serveOpens(func(w *bufio.Writer, id uint64, req openRequest) bool {
		if req.Path == "/v/lead" {
			return writeHeldChunk(w, id, req.Path, 7) == nil &&
				putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 1)) == nil
		}
		return writeChunk(w, id, req.Path, []byte("x")) == nil && writeHeldChunk(w, id, "/v/m", 7) == nil &&
			putFrameID(w, msgGroupEnd, id, appendGroupEnd(nil, 2)) == nil
	}))
	for _, tc := range []struct {
		name string
		call func(c *Client) error
	}{
		{"held-lead", func(c *Client) error { _, err := c.Open("/v/lead"); return err }},
		{"fetch-group", func(c *Client) error { _, err := fetchGroup(c, "/v/x"); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, err := Dial(addr, ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if err := tc.call(client); !errors.Is(err, ErrConnBroken) {
				t.Fatalf("err = %v, want ErrConnBroken", err)
			}
			if st := client.Stats(); st.BrokenConns != 1 || client.Connected() {
				t.Errorf("stats = %+v, connected = %v; want the connection poisoned", st, client.Connected())
			}
		})
	}
}

// TestHistoryShedIsCountedAndEndsValidation: more hits than the protocol
// can piggyback separate two fetches. The backlog sheds its oldest quarter
// at the bound, so the server learns the newest hits, unbroken and in
// order; every shed entry is counted; and because the server can no longer
// follow the cache, the connection stops validating — while every later
// open is still byte-correct.
func TestHistoryShedIsCountedAndEndsValidation(t *testing.T) {
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
	// Two rounds over eight files: the second is all hits, and something is
	// validated along the way. The fetch of f008 then carries the backlog
	// away.
	for round := 0; round < 2; round++ {
		for i := 0; i < 8; i++ {
			check(i)
		}
	}
	check(8)
	if client.novalidate.Load() {
		t.Fatal("validation ended before any history was shed")
	}
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
	if !client.novalidate.Load() {
		t.Error("the connection still validates after shedding history")
	}
	if resets := srv.Stats().ShadowResets; resets != 1 {
		t.Errorf("ShadowResets = %d, want the one the unvalidated flag caused", resets)
	}
	validated := srv.Stats().ValidatedMembers
	for round := 0; round < 3; round++ {
		for i := 0; i < files; i++ {
			check(i)
		}
	}
	if now := srv.Stats().ValidatedMembers; now != validated {
		t.Errorf("ValidatedMembers went %d -> %d on a connection that stopped validating", validated, now)
	}
	if st := client.Stats(); st.ValidationMisses != 0 {
		t.Errorf("ValidationMisses = %d, want 0", st.ValidationMisses)
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
// order the server sent them. The shadow may be wrong, the connection may
// end unvalidated, header-only chunks may miss — and every byte of every
// reply is still right, with no error and no broken connection.
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
	t.Logf("validated %d, missed %d, shadow resets %d, unvalidated at the end: %v",
		cs.ValidatedFiles, cs.ValidationMisses, ss.ShadowResets, client.novalidate.Load())
}

// sharedWalk is the i-th file of a walk that makes replies repeat members
// the client still holds: ten runs of lead, f001, f002, tail, so every
// lead's group names the two files in the middle, which a cache of eight
// never lets go of.
func sharedWalk(i int) int {
	run := i / 4 % 10
	return [4]int{3 + 2*run, 1, 2, 4 + 2*run}[i%4]
}

// TestRedialedConnectionIsUnvalidated: a connection killed mid-stream is
// replaced by one whose hello declares no cache — the client's is no
// longer empty — so the server shadows nothing and every reply on the new
// connection is complete and correct.
func TestRedialedConnectionIsUnvalidated(t *testing.T) {
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
	if before == 0 || client.novalidate.Load() {
		t.Fatalf("setup: %d members validated, novalidate = %v; the first connection should validate", before, client.novalidate.Load())
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
	if cs.Reconnects != 1 || !client.novalidate.Load() {
		t.Errorf("Reconnects = %d, novalidate = %v; want one redial onto an unvalidated connection", cs.Reconnects, client.novalidate.Load())
	}
	if now := srv.Stats().ValidatedMembers; now != before {
		t.Errorf("ValidatedMembers went %d -> %d after the redial", before, now)
	}
	if cs.ValidationMisses != 0 {
		t.Errorf("ValidationMisses = %d, want 0", cs.ValidationMisses)
	}
}

// TestShadowDroppedOnForeignHistory: a piggybacked access the shadow does
// not hold means the client is not what the server thinks it is. The
// shadow goes, for good, and replies are complete from then on.
func TestShadowDroppedOnForeignHistory(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 8), ServerConfig{GroupSize: 3})
	rc := rawHelloCap(t, rawDial(t, addr), 4)
	f := func(i int) string { return fmt.Sprintf("/data/f%03d", i) }
	id := uint64(0)
	open := func(path string, accessed ...string) (held int) {
		t.Helper()
		id++
		rc.send(t, msgOpen, id, appendOpenRequest(nil, path, accessed))
		for {
			typ, gotID, payload, err := readFrameID(rc.r)
			if err != nil || gotID != id {
				t.Fatalf("reply to open %d: id %d, %v", id, gotID, err)
			}
			if typ == msgGroupEnd {
				return held
			}
			if _, _, _, h, err := memberChunkView(payload); err != nil {
				t.Fatal(err)
			} else if h {
				held++
			}
		}
	}
	// f0 -> f1 -> f2 learned; the client "holds" all three after the first
	// full group, so a repeat of f0's open validates its members.
	for round := 0; round < 3; round++ {
		open(f(0))
		open(f(1), f(0))
		open(f(2), f(1))
	}
	if held := open(f(0), f(2)); held == 0 {
		t.Fatal("setup: a group whose members the shadow holds came back in full")
	}
	if resets := srv.Stats().ShadowResets; resets != 0 {
		t.Fatalf("ShadowResets = %d before any contradiction", resets)
	}
	// f7 was never sent on this connection.
	if held := open(f(0), f(7)); held != 0 {
		t.Errorf("%d header-only members in the reply that carried foreign history", held)
	}
	if held := open(f(0)); held != 0 {
		t.Errorf("%d header-only members after the shadow was dropped", held)
	}
	if resets := srv.Stats().ShadowResets; resets != 1 {
		t.Errorf("ShadowResets = %d, want 1", resets)
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
