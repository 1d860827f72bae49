package fsnet

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"aggcache/internal/faultnet"
)

// The pipeline suite covers the pipelined serving path: many goroutines
// multiplexed over one connection, a same-path herd, and the poisoning
// contract when a connection is cut with calls in flight.

// TestConcurrentPipelinedOpens shares one client — hence one connection —
// across many goroutines and checks every reply is matched to the right
// request (bytes correct) with consistent accounting on both ends.
func TestConcurrentPipelinedOpens(t *testing.T) {
	const (
		files      = 48
		goroutines = 16
		opensEach  = 60
	)
	store := seededStore(t, files)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 4, CacheCapacity: 64})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 24})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < opensEach; n++ {
				path := fmt.Sprintf("/data/f%03d", (g*7+n*13)%files)
				data, err := client.Open(path)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d open %s: %w", g, path, err)
					return
				}
				if want := "contents of " + path; string(data) != want {
					errs <- fmt.Errorf("goroutine %d open %s returned %q", g, path, data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	cst := client.Stats()
	if cst.Opens != goroutines*opensEach {
		t.Errorf("client opens = %d, want %d", cst.Opens, goroutines*opensEach)
	}
	if cst.Opens != cst.Hits+cst.Fetches {
		t.Errorf("inconsistent client stats: %+v", cst)
	}
	sst := srv.Stats()
	if sst.Requests != cst.Fetches {
		t.Errorf("server requests = %d, want %d (client fetches)", sst.Requests, cst.Fetches)
	}
	if sst.Errors != 0 || sst.Disconnects != 0 || sst.Panics != 0 {
		t.Errorf("server stats = %+v, want clean run", sst)
	}
	if sst.StreamedGroups != sst.Requests {
		t.Errorf("streamed %d of %d error-free opens, want every group reply counted", sst.StreamedGroups, sst.Requests)
	}
}

// TestChaosPipelineCutMidFlight launches a burst of pipelined opens and
// hard-resets the connection underneath them. The poisoning contract:
// every in-flight call completes promptly — success or a typed error —
// and the client recovers on a fresh connection afterwards.
func TestChaosPipelineCutMidFlight(t *testing.T) {
	const (
		files      = 32
		goroutines = 12
		opensEach  = 40
	)
	store := seededStore(t, files)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 3, CacheCapacity: 64})
	dialer, _ := faultnet.Dialer(addr, faultnet.Faults{
		Seed:      7,
		ResetProb: 0.02,
	})
	client, err := NewClient(nil, ClientConfig{
		CacheCapacity: 16,
		Dialer:        dialer,
		Timeout:       time.Second,
		MaxRetries:    10,
		Backoff:       Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond, Multiplier: 2, Jitter: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	type result struct {
		g, n int
		path string
		err  error
	}
	var wg sync.WaitGroup
	results := make(chan result, goroutines*opensEach)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < opensEach; n++ {
				path := fmt.Sprintf("/data/f%03d", (g*5+n*11)%files)
				data, err := client.Open(path)
				if err == nil {
					if want := "contents of " + path; string(data) != want {
						err = fmt.Errorf("wrong bytes %q", data)
					}
				}
				results <- result{g: g, n: n, path: path, err: err}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("pipelined calls did not complete after the cut: poisoning leaked a waiter")
	}
	close(results)

	completed, failed := 0, 0
	for r := range results {
		completed++
		if r.err != nil {
			failed++
			// Every failure must carry the typed transport error; random
			// wrong-bytes or unexplained errors mean reply misdelivery.
			if !errors.Is(r.err, ErrConnBroken) {
				t.Errorf("goroutine %d open %d (%s): untyped failure: %v", r.g, r.n, r.path, r.err)
			}
		}
	}
	if completed != goroutines*opensEach {
		t.Errorf("completed %d calls, want %d", completed, goroutines*opensEach)
	}
	st := client.Stats()
	if st.BrokenConns == 0 {
		t.Fatalf("stats = %+v, want at least one injected cut; chaos run was vacuous", st)
	}
	t.Logf("cut test: broken=%d reconnects=%d retries=%d failed-opens=%d",
		st.BrokenConns, st.Reconnects, st.Retries, failed)

	// Recovery: a fresh round of opens on the same client succeeds.
	if _, err := client.Open("/data/f000"); err != nil {
		// One residual cut can fail this open too; a second try must work.
		if _, err := client.Open("/data/f000"); err != nil {
			t.Errorf("client did not recover after cuts: %v", err)
		}
	}
}

// TestSamePathHerd: many clients open one cold path at the same instant.
// Every open stages the group from the store itself — nothing on the
// server deduplicates them — so every reply must carry the right bytes
// and each request must be exactly one cache hit or one group fetch.
func TestSamePathHerd(t *testing.T) {
	const herd = 16
	srv, addr := startServer(t, seededStore(t, 8), ServerConfig{GroupSize: 4})
	const path = "/data/f003"
	clients := make([]*Client, herd)
	for i := range clients {
		c, err := Dial(addr, ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	start := make(chan struct{})
	errs := make(chan error, herd)
	for _, c := range clients {
		go func(c *Client) {
			<-start
			data, err := c.Open(path)
			if err == nil && string(data) != "contents of "+path {
				err = fmt.Errorf("wrong bytes %q", data)
			}
			errs <- err
		}(c)
	}
	close(start)
	for i := 0; i < herd; i++ {
		if err := <-errs; err != nil {
			t.Errorf("herd open: %v", err)
		}
	}
	st := srv.Stats()
	if st.Requests != herd || st.Requests != st.Cache.Hits+st.Cache.GroupFetches {
		t.Errorf("Requests = %d, Hits %d + GroupFetches %d: want %d requests, each one hit or one fetch",
			st.Requests, st.Cache.Hits, st.Cache.GroupFetches, herd)
	}
	if st.StreamedGroups != herd || st.Errors != 0 {
		t.Errorf("StreamedGroups = %d, Errors = %d, want %d clean group replies", st.StreamedGroups, st.Errors, herd)
	}
}

// TestRequestsServedInRequestOrder: a connection's requests are served in
// the order they were sent, whatever their kind. A write and an open of
// the same path arrive in one TCP segment; the open's reply carries the
// written bytes under the tag the write's ack reported.
func TestRequestsServedInRequestOrder(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	rc := rawHello(t, rawDial(t, addr))
	_ = rc.SetReadDeadline(time.Now().Add(5 * time.Second))
	const path = "/data/f000"
	burst := appendFrameID(nil, msgWrite, 1, encodeWriteRequest(writeRequest{Path: path, Data: []byte("rewritten")}))
	burst = appendFrameID(burst, msgOpen, 2, appendOpenRequest(nil, path, nil))
	if _, err := rc.Write(burst); err != nil {
		t.Fatal(err)
	}
	typ, id, payload, err := readFrameID(rc.r, nil)
	if err != nil || typ != msgWriteOK || id != 1 {
		t.Fatalf("first reply = type %d id %d, %v; want the write's ack", typ, id, err)
	}
	tag, err := decodeWriteOK(payload)
	if err != nil {
		t.Fatal(err)
	}
	typ, id, payload, err = readFrameID(rc.r, nil)
	if err != nil || typ != msgMemberChunk || id != 2 {
		t.Fatalf("second reply = type %d id %d, %v; want the open's first member", typ, id, err)
	}
	p, data, got, held, err := memberChunkView(payload)
	if err != nil || held || string(p) != path || string(data) != "rewritten" || got != tag {
		t.Errorf("open after the write = %s %q tag %d (held %v, %v); want %s %q tag %d", p, data, got, held, err, path, "rewritten", tag)
	}
}

// TestOneGoroutinePerConnection: a connection is served by its read loop
// alone. While the server's reply side is held, 64 pipelined writes, a
// handoff and a view pull are read, served and queued, and the process
// has no goroutine more than it had with the connection idle; once the
// hold lifts, every reply arrives in request order.
func TestOneGoroutinePerConnection(t *testing.T) {
	srv, err := NewServer(seededStore(t, 3), ServerConfig{Views: newTestViews("server:1", 1, "server:1")})
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
	defer gate.Resume()

	conn := rawDial(t, l.Addr().String())
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rc := &rawConn{Conn: conn, r: bufio.NewReader(conn), w: bufio.NewWriter(conn)}
	if err := writeHello(conn, msgHello, protocolVersion, 0); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(rc.r); err != nil || typ != msgHelloOK {
		t.Fatalf("handshake reply = type %d, %v; want msgHelloOK", typ, err)
	}
	idle := runtime.NumGoroutine()

	const writes = 64
	gate.Hold()
	var burst []byte
	for id := uint64(1); id <= writes; id++ {
		burst = appendFrameID(burst, msgWrite, id, encodeWriteRequest(writeRequest{Path: "/data/f000", Data: []byte(fmt.Sprint(id))}))
	}
	burst = appendFrameID(burst, msgHandoff, writes+1, encodeHandoffRequest(handoffRequest{Anchor: "/data/f001", Members: []string{"/data/f002"}}))
	burst = appendFrameID(burst, msgViewPull, writes+2, appendViewMsg(nil, 0, "peer:1"))
	if _, err := rc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); gate.Waiting() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the server never wrote the replies")
		}
		time.Sleep(time.Millisecond)
	}
	// A goroutine some earlier test left winding down may still be
	// counted; one the server started would stay while the hold lasts.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > idle; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines with the replies held, %d with the connection idle", runtime.NumGoroutine(), idle)
		}
		time.Sleep(time.Millisecond)
	}

	gate.Resume()
	want := []uint8{msgViewHint}
	for id := 1; id <= writes; id++ {
		want = append(want, msgWriteOK)
	}
	want = append(want, msgHandoffOK, msgViewPush)
	for i, w := range want {
		typ, id, _, err := readFrameID(rc.r, nil)
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if typ != w || id != uint64(i) {
			t.Fatalf("reply %d = type %d id %d, want type %d id %d", i, typ, id, w, i)
		}
	}
	if st := srv.Stats(); st.Handoffs != 1 || st.Errors != 0 {
		t.Errorf("Handoffs %d Errors %d, want 1 and 0", st.Handoffs, st.Errors)
	}
}

// TestClientStartsNoGoroutine: a client starts no goroutine of its own —
// every call writes its request and reads its reply on the goroutine that
// made it — so Dial and 100 opens, most of them fetches, leave the process
// exactly one goroutine more than before: the server's read loop for the
// new connection.
func TestClientStartsNoGoroutine(t *testing.T) {
	const files = 8
	_, addr := startServer(t, seededStore(t, files), ServerConfig{})
	before := runtime.NumGoroutine()
	client, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := 0; i < 100; i++ {
		if _, err := client.Open(fmt.Sprintf("/data/f%03d", i%files)); err != nil {
			t.Fatal(err)
		}
	}
	if st := client.Stats(); st.Fetches < 50 {
		t.Fatalf("Fetches = %d, want most of the 100 opens to read a reply", st.Fetches)
	}
	// A goroutine some earlier test left winding down may still be
	// counted; one the client started would stay while it is open.
	const server = 1
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before+server; {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Dial and 100 opens, %d before plus %d of the server's:\n%s",
				runtime.NumGoroutine(), before, server, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelinedVerbsDecodeTheirOwnReplies: five verbs in flight at once on
// one connection — an open the server's cache holds, an open it misses, a
// Write, an open of a missing path and a ViewPull — each get their own
// answer: bytes, the write's tag, ErrNotFound and the view. The server's
// replies are held until all five are in flight, so they arrive back to
// back and each is read into the connection's one reply buffer; a call
// that handed the read role on before it decoded its reply would decode
// the bytes of the next one (under -race, a data race on the buffer).
func TestPipelinedVerbsDecodeTheirOwnReplies(t *testing.T) {
	srv, err := NewServer(seededStore(t, 4), ServerConfig{Views: newTestViews("server:1", 3, "server:1")})
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
	defer gate.Resume()
	addr := l.Addr().String()

	// Another client leaves /data/f000 in the server's cache.
	warm, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	_ = warm.Close()
	client, err := Dial(addr, ClientConfig{CacheCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// /data/f001 is resident, so the write's tag is kept with its bytes.
	if _, err := client.Open("/data/f001"); err != nil {
		t.Fatal(err)
	}
	inflight := func() int {
		client.mu.Lock()
		m := client.seed.mux
		client.mu.Unlock()
		if m == nil {
			return 0
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		n := 0
		for call := m.head; call != nil; call = call.next {
			n++
		}
		return n
	}
	before := srv.Stats().Cache

	written := []byte("written while four other verbs were in flight")
	var (
		hit, miss                                      []byte
		hitErr, missErr, writeErr, missingErr, pullErr error
		epoch                                          uint64
		members                                        []string
	)
	verbs := []func(){
		func() { hit, hitErr = client.Open("/data/f000") },
		func() { miss, missErr = client.Open("/data/f002") },
		func() { writeErr = client.Write("/data/f001", written) },
		func() { _, missingErr = client.Open("/data/missing") },
		func() { epoch, members, pullErr = client.ViewPull() },
	}
	gate.Hold()
	var wg sync.WaitGroup
	for _, verb := range verbs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			verb()
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); inflight() < len(verbs); {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d verbs in flight", inflight(), len(verbs))
		}
		time.Sleep(time.Millisecond)
	}
	gate.Resume()
	wg.Wait()

	if hitErr != nil || string(hit) != "contents of /data/f000" {
		t.Errorf("open of a server-cached file = %q, %v", hit, hitErr)
	}
	if missErr != nil || string(miss) != "contents of /data/f002" {
		t.Errorf("open of a file the server misses = %q, %v", miss, missErr)
	}
	if after := srv.Stats().Cache; after.Hits-before.Hits != 1 || after.Misses-before.Misses != 1 {
		t.Errorf("server cache hits +%d, misses +%d; want one of each", after.Hits-before.Hits, after.Misses-before.Misses)
	}
	if writeErr != nil {
		t.Errorf("write: %v", writeErr)
	}
	client.mu.Lock()
	id, _ := client.ids.Lookup("/data/f001")
	tag := client.tags[id]
	client.mu.Unlock()
	if tag != contentTag(written) {
		t.Errorf("the written file's tag = %#x, want the store's %#x", tag, contentTag(written))
	}
	if d, err := client.Open("/data/f001"); err != nil || !bytes.Equal(d, written) {
		t.Errorf("open after the write = %q, %v; want %q", d, err, written)
	}
	if !errors.Is(missingErr, ErrNotFound) {
		t.Errorf("open of a missing path: err = %v, want ErrNotFound", missingErr)
	}
	if pullErr != nil || epoch != 3 || len(members) != 1 || members[0] != "server:1" {
		t.Errorf("view pull = epoch %d, %q, %v; want epoch 3, [server:1]", epoch, members, pullErr)
	}
	if st := client.Stats(); st.BrokenConns != 0 {
		t.Errorf("BrokenConns = %d, want 0", st.BrokenConns)
	}
}

// readGroupPaths reads the group reply to request id off rc and returns
// its members' paths, demanded file first.
func readGroupPaths(t *testing.T, rc *rawConn, id uint64) []string {
	t.Helper()
	var paths []string
	for {
		typ, gotID, payload, err := readFrameID(rc.r, nil)
		if err != nil || gotID != id || (typ != msgMemberChunk && typ != msgGroupEnd) {
			t.Fatalf("reply to %d: type %d id %d, %v; want its group", id, typ, gotID, err)
		}
		if typ == msgGroupEnd {
			return paths
		}
		p, _, _, _, err := memberChunkView(payload)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, string(p))
	}
}

// successorPaths returns the successors srv has learned for path, best
// first.
func successorPaths(srv *Server, path string) []string {
	srv.aggMu.Lock()
	defer srv.aggMu.Unlock()
	var out []string
	if id, ok := srv.ids.Lookup(path); ok {
		for _, s := range srv.agg.Tracker().Successors(id) {
			out = append(out, srv.ids.Path(s))
		}
	}
	return out
}

// TestPipelinedOpensLearnInRequestOrder: a server learns an open's
// piggybacked history after it has built the reply, and a request
// pipelined behind it is still served as if that history had been
// learned first. The second open of the burst demands a file the first
// one's history taught a chain to, so its group must carry the chain.
func TestPipelinedOpensLearnInRequestOrder(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 8), ServerConfig{GroupSize: 3})
	rc := rawHello(t, rawDial(t, addr))
	_ = rc.SetReadDeadline(time.Now().Add(5 * time.Second))
	history := []string{"/data/f000", "/data/f001", "/data/f002"}
	// One write, so the server reads the second open before it flushes the
	// first one's reply, and so before the first one's history is learned.
	burst := appendFrameID(nil, msgOpen, 1, appendOpenRequest(nil, "/data/f005", history))
	burst = appendFrameID(burst, msgOpen, 2, appendOpenRequest(nil, "/data/f000", nil))
	if _, err := rc.Write(burst); err != nil {
		t.Fatal(err)
	}
	if got := readGroupPaths(t, rc, 1); !slices.Equal(got, []string{"/data/f005"}) {
		t.Errorf("first open's group = %v, want the demanded file alone: nothing is learned yet", got)
	}
	if got, want := readGroupPaths(t, rc, 2), history; !slices.Equal(got, want) {
		t.Errorf("second open's group = %v, want %v: the chain the first open's history taught", got, want)
	}
	_ = rc.Close()
	_ = srv.Close()
	for path, want := range map[string][]string{
		"/data/f000": {"/data/f001"},
		"/data/f002": {"/data/f005"},
		"/data/f005": {"/data/f000"},
	} {
		if got := successorPaths(srv, path); !slices.Equal(got, want) {
			t.Errorf("successors of %s = %v, want %v", path, got, want)
		}
	}
	srv.aggMu.Lock()
	observed := srv.agg.Tracker().Observed()
	srv.aggMu.Unlock()
	if observed != 5 {
		t.Errorf("server observed %d accesses, want 5: each learned once", observed)
	}
}

// TestClosedConnectionLearnsOwedHistory: a connection that ends with an
// open's history still to be learned has it learned before its source is
// forgotten, so the tracker keeps no predecessor for the source, and a
// snapshot taken afterwards holds the transitions. The connection ends
// either by its client closing right after the reply, or by a malformed
// frame pipelined behind the open, which ends the read loop before it
// flushes.
func TestClosedConnectionLearnsOwedHistory(t *testing.T) {
	history := []string{"/data/f000", "/data/f001", "/data/f002"}
	open := appendFrameID(nil, msgOpen, 1, appendOpenRequest(nil, "/data/f003", history))
	runt := []byte{0, 0, 0, 0} // a frame length below any header
	for name, burst := range map[string][]byte{
		"client-close":   open,
		"malformed-next": append(slices.Clone(open), runt...),
	} {
		t.Run(name, func(t *testing.T) {
			srv, addr := startServer(t, seededStore(t, 6), ServerConfig{GroupSize: 3})
			rc := rawHello(t, rawDial(t, addr))
			_ = rc.SetReadDeadline(time.Now().Add(5 * time.Second))
			if _, err := rc.Write(burst); err != nil {
				t.Fatal(err)
			}
			if got := readGroupPaths(t, rc, 1); !slices.Equal(got, []string{"/data/f003"}) {
				t.Errorf("group = %v, want the demanded file alone", got)
			}
			_ = rc.Close()
			_ = srv.Close() // waits for the connection's read loop
			srv.aggMu.Lock()
			last, kept := srv.agg.Tracker().Last(1)
			srv.aggMu.Unlock()
			if kept {
				t.Errorf("the closed connection's source keeps predecessor %d", last)
			}
			var snap bytes.Buffer
			if err := srv.SaveMetadata(&snap); err != nil {
				t.Fatal(err)
			}
			restored, err := NewServer(seededStore(t, 6), ServerConfig{GroupSize: 3})
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.LoadMetadata(&snap); err != nil {
				t.Fatal(err)
			}
			chain := append(slices.Clone(history), "/data/f003")
			for i := 0; i+1 < len(chain); i++ {
				if got := successorPaths(restored, chain[i]); !slices.Equal(got, chain[i+1:i+2]) {
					t.Errorf("snapshot: successors of %s = %v, want %v", chain[i], got, chain[i+1:i+2])
				}
			}
		})
	}
}

// TestClaimEndsAtTheOpensOwnEntry: an open claims the piggyback history
// through its own entry, the last one naming its path, and leaves the
// entries after it — opens made while it waited to be written — to the
// requests that carry them, so the server never learns a later open as a
// predecessor of an earlier one. With no entry of its own (history
// restored or shed) it claims everything.
func TestClaimEndsAtTheOpensOwnEntry(t *testing.T) {
	c := &Client{pending: []string{"/a", "/b", "/a", "/c", "/d"}}
	spare := make([]string, 0, 8)
	accessed, claimed := c.claimPending("/a", spare)
	if !slices.Equal(accessed, []string{"/a", "/b"}) || !slices.Equal(claimed, []string{"/a", "/b", "/a"}) || !slices.Equal(c.pending, []string{"/c", "/d"}) {
		t.Fatalf("claim of /a: accessed %q, claimed %q, left %q", accessed, claimed, c.pending)
	}
	if accessed, claimed = c.claimPending("/c", nil); len(accessed) != 0 || !slices.Equal(claimed, []string{"/c"}) || !slices.Equal(c.pending, []string{"/d"}) {
		t.Fatalf("claim of /c: accessed %q, claimed %q, left %q", accessed, claimed, c.pending)
	}
	if accessed, claimed = c.claimPending("/x", make([]string, 0, 4)); !slices.Equal(accessed, []string{"/d"}) || !slices.Equal(claimed, []string{"/d"}) || len(c.pending) != 0 {
		t.Fatalf("claim of /x: accessed %q, claimed %q, left %q", accessed, claimed, c.pending)
	}
}
