package fsnet

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"aggcache/internal/alloctest"
)

// The allocation budgets of the serving path, end to end over loopback:
// each is an equality, skipped under -race. A fetch is exactly one
// allocation — the client's slab — on every path, a Write two.

// fetchAllocs measures one fetching open end to end — client and server
// both — over a loopback connection whose client caches a single file, so
// every open is a fetch.
func fetchAllocs(t *testing.T, router OpenRouter) float64 {
	const files = 8
	_, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 3, Router: router})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/f%03d", i)
	}
	i := 0
	return alloctest.PerOp(t, func() {
		if _, err := client.Open(paths[i%files]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestAllocBudgetLocalFetch pins the plain fetch, no router configured:
// the client's slab for the fetched group — the cache's immutable storage
// — and nothing else. The server stages the group's members on the
// connection's reply writer, so its result slice (the second allocation
// of the old budget) is gone, and both ends read and encode frames in
// buffers their connection keeps.
func TestAllocBudgetLocalFetch(t *testing.T) {
	if allocs := fetchAllocs(t, nil); allocs != 1 {
		t.Errorf("local fetch allocates %.0f objects, budget exactly 1", allocs)
	}
}

// TestAllocBudgetFirstSightFetch pins a fetch of a path neither end has
// seen: the client's and the server's interners copy it into their path
// arenas, the server's tracker takes its successor list from a slab, and
// both caches are full so their nodes recycle — first sight costs the
// client's slab and nothing else (it cost about 4 while each of those was
// a heap object of its own). The dense per-file tables, the interners'
// maps and the arenas' chunks still grow now and then, amortised to
// nothing per open.
func TestAllocBudgetFirstSightFetch(t *testing.T) {
	const files = 1024 // more than the warm-up and the measured runs open
	_, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 3, CacheCapacity: 16})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/f%03d", i)
	}
	i := 0
	allocs := alloctest.PerOp(t, func() {
		if _, err := client.Open(paths[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 1 {
		t.Errorf("first-sight fetch allocates %.0f objects, budget exactly 1", allocs)
	}
	if st := client.Stats(); st.Hits != 0 || st.Fetches != uint64(i) {
		t.Errorf("Hits = %d, Fetches = %d after %d opens: the pinned opens were not all first-sight fetches", st.Hits, st.Fetches, i)
	}
}

// TestAllocBudgetRoutedLocalOpen pins the open a clustered node owns: the
// plain router is consulted on the read loop and declines, and from there
// the request costs what an unrouted one does. It used to decode into fresh strings and spawn a
// goroutine. The budget was 1 while Open had a variant that copied into a
// caller's reused buffer and the test measured through that; through Open
// itself the parent cost the same 2 (its copy-out is now the slab). A
// reused buffer's 0-alloc fetch is what immutable cache storage gives up.
// Now 1: the group is staged on the connection like every other reply,
// which leaves the client's slab.
func TestAllocBudgetRoutedLocalOpen(t *testing.T) {
	if allocs := fetchAllocs(t, newPeerRouter()); allocs != 1 {
		t.Errorf("routed-local open allocates %.0f objects, budget exactly 1", allocs)
	}
}

// TestAllocBudgetPipelinedOpens pins the fetch under pipelining: eight
// goroutines share one connection and each op is one flight of eight
// fetches. Batched writes, pipelined replies and the mux's queues cost
// nothing on top of eight single fetches, and neither does the history
// log: a claim is a range of it, not storage of its own, and the log's
// array is reused once its entries are answered, so a flight of eight
// costs eight client slabs.
func TestAllocBudgetPipelinedOpens(t *testing.T) {
	const (
		workers = 8
		files   = 64
	)
	_, addr := startServer(t, seededStore(t, files), ServerConfig{GroupSize: 3})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/f%03d", i)
	}
	next := make(chan string)
	done := make(chan error)
	for w := 0; w < workers; w++ {
		go func() {
			for p := range next {
				_, err := client.Open(p)
				done <- err
			}
		}()
	}
	defer close(next)
	i := 0
	allocs := alloctest.PerOp(t, func() {
		for w := 0; w < workers; w++ {
			next <- paths[i%files]
			i++
		}
		for w := 0; w < workers; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
	})
	if budget := float64(1 * workers); allocs != budget {
		t.Errorf("a flight of %d pipelined fetches allocates %.0f objects, budget exactly %.0f", workers, allocs, budget)
	}
	if st := client.Stats(); st.Hits != 0 {
		t.Errorf("Hits = %d: the pinned opens were not all fetches", st.Hits)
	}
}

// TestAllocBudgetClientHit pins the reason the client cache exists: an
// open of a resident path returns the cache's own bytes and allocates
// nothing.
func TestAllocBudgetClientHit(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	allocs := alloctest.PerOp(t, func() {
		if _, err := client.Open("/data/f000"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("client hit allocates %.0f objects, budget exactly 0", allocs)
	}
	if st := client.Stats(); st.Fetches != 1 {
		t.Errorf("Fetches = %d, want 1: the pinned opens were not all hits", st.Fetches)
	}
}

// TestAllocBudgetWrite pins a write-through Write end to end: the client's
// encoded request and the store's own copy of the contents. The server's
// path string (the third allocation of the old budget) is gone: the path
// is decoded as a view and the store is reached through the interner's
// string, so only the first write of a path nobody has opened allocates
// its key — /data/f000 here, during the warm-up. A path resident in the
// client cache costs the same: the local refresh points the slot at the
// tail of the encoded request, new storage that nothing overwrites, so a
// slice an earlier Open returned keeps the old bytes. That is also why the
// encoded request is not the connection's request batch: for a resident
// path its tail is the cache slot's new immutable storage, so reusing it
// would fork the write path on residency.
func TestAllocBudgetWrite(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	old, err := client.Open("/data/f001")
	if err != nil {
		t.Fatal(err)
	}
	was := string(old)
	data := make([]byte, 2048)
	for _, path := range []string{"/data/f000", "/data/f001"} {
		resident := client.Contains(path)
		if want := path == "/data/f001"; resident != want {
			t.Fatalf("%s resident = %v, want %v", path, resident, want)
		}
		allocs := alloctest.PerOp(t, func() {
			if err := client.Write(path, data); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 2 {
			t.Errorf("Write(%s, resident=%v) allocates %.0f objects, budget exactly 2", path, resident, allocs)
		}
	}
	if string(old) != was {
		t.Errorf("a slice Open returned before the Write changed: %q, was %q", old, was)
	}
	if fresh, err := client.Open("/data/f001"); err != nil || !bytes.Equal(fresh, data) {
		t.Errorf("Open after the Write = %d bytes, %v; want the %d written", len(fresh), err, len(data))
	}
}

// TestKeptBuffersStayUnderBound pins the retention bound on both ends of a
// connection: a write larger than maxKeptBuf, then a group whose member is
// larger, each leave every buffer the connection keeps — the server's
// request buffer, the client's request batch and reply buffer — as it was
// before, under the bound, and the reply arena is under it when the
// connection ends. Each large frame is read into a buffer of its own,
// dropped after it, so a round of the two and a fetch of a group the size
// of the repository benchmark's (five 16 KiB files) allocates those two
// buffers, the large write's and open's own objects, and for the fetch its
// slab alone: the kept buffers still fit it.
func TestKeptBuffersStayUnderBound(t *testing.T) {
	const (
		files    = 8
		fileSize = 16 << 10
	)
	store := NewStore()
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/data/f%03d", i)
		if err := store.Put(paths[i], bytes.Repeat([]byte{byte('a' + i)}, fileSize)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(store, ServerConfig{GroupSize: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The server end is served by hand, so the test sees the reply writer
	// that holds its buffers; a pipe orders what the test reads of them
	// after what the server wrote.
	local, remote := net.Pipe()
	rw := &replyWriter{s: srv, conn: local}
	served := make(chan struct{})
	go func() {
		defer close(served)
		r := bufio.NewReaderSize(local, connBufSize)
		if srv.handshake(local, r) {
			srv.serve(rw, r, 1)
		}
	}()
	client, err := NewClient(remote, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = client.Close()
		<-served
	}()
	i := 0
	fetch := func() {
		d, err := client.Open(paths[i%files])
		if err != nil || len(d) != fileSize || d[0] != byte('a'+i%files) {
			t.Fatalf("open %s = %d bytes, %v", paths[i%files], len(d), err)
		}
		i++
	}
	big := bytes.Repeat([]byte{'z'}, maxKeptBuf+64<<10)
	write := func() {
		if err := client.Write("/big", big); err != nil {
			t.Fatal(err)
		}
	}
	open := func() {
		if d, err := client.Open("/big"); err != nil || !bytes.Equal(d, big) {
			t.Fatalf("open /big = %d bytes, %v", len(d), err)
		}
	}
	// The server learns the cycle and every buffer grows to a group; then
	// a first round of large frames and the fetches after it have both
	// ends learn /big, so the counted fetch sees nothing for the first time.
	for i < 8*files {
		fetch()
	}
	write()
	open()
	for i < 16*files {
		fetch()
	}
	before := client.Stats()
	fetch()
	if st := client.Stats(); st.FilesReceived-before.FilesReceived != 5 || st.BytesReceived-before.BytesReceived != 5*fileSize {
		t.Fatalf("a fetch received %d files, %d bytes; want a group of five in full", st.FilesReceived-before.FilesReceived, st.BytesReceived-before.BytesReceived)
	}

	client.mu.Lock()
	m := client.seed.mux
	client.mu.Unlock()
	kept := func() [3]int { return [3]int{cap(rw.req), cap(m.enc), cap(m.rbuf)} }
	grown := kept()
	if grown[2] < 5*fileSize || grown[2] > maxKeptBuf {
		t.Fatalf("reply buffer of %d bytes after fetches of %d", grown[2], 5*fileSize)
	}
	write()
	if now := kept(); now != grown {
		t.Errorf("after a write larger than the bound, request buffer, request batch and reply buffer hold %v bytes; want %v, as before", now, grown)
	}
	open()
	if now := kept(); now != grown {
		t.Errorf("after a group with a member larger than the bound, request buffer, request batch and reply buffer hold %v bytes; want %v, as before", now, grown)
	}
	if !raceBuild { // allocation counts are pinned without the race detector
		// Collection is off because each round's large frames start about
		// one collection cycle, and a cycle now and then costs the runtime
		// allocations of its own that are not the connection's: the unique
		// package's cleanup and the channel waiters net.Pipe parks on. With
		// collection on a round counts 6, now and then 8. The connection's
		// calls and the history arrays they keep are pinned with collection
		// on by TestCallsSurviveCollection and
		// TestHistoryArraysSurviveCollection.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		round := func() {
			write()
			open()
			fetch()
		}
		if allocs := testing.AllocsPerRun(10, round); allocs != 6 {
			t.Errorf("a round of a large write, a large open and a fetch allocates %.0f objects, budget exactly 6: "+
				"the encoded write, the server's buffer for it, the store's copy, the client's buffer for the large reply, its slab and the fetch's slab", allocs)
		}
	}
	_ = client.Close()
	<-served
	if cap(rw.arena) > maxKeptBuf {
		t.Errorf("reply arena of %d bytes kept, bound %d", cap(rw.arena), maxKeptBuf)
	}
}

// TestHistoryArraysSurviveCollection: the client's history log keeps its
// array. Each fetch consumes what the log held, and the next append finds
// the array full of answered entries and moves the rest down instead of
// regrowing, so after collections the log is the array it was. Runs with
// collection on, under the race detector too.
func TestHistoryArraysSurviveCollection(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 4), ServerConfig{GroupSize: 1})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	open := func(i int) {
		if _, err := client.Open(fmt.Sprintf("/data/f%03d", i%4)); err != nil {
			t.Fatal(err)
		}
	}
	array := func() (*string, int) {
		client.mu.Lock()
		defer client.mu.Unlock()
		return unsafe.SliceData(client.log), cap(client.log)
	}
	// Each file is fetched, then hit: the hit is a log entry the next
	// fetch carries. Four such visits grow the array to its size.
	for i := 0; i < 4; i++ {
		open(i)
		open(i)
	}
	kept, size := array()
	for i := 4; i < 20; i++ {
		runtime.GC()
		runtime.GC()
		fetches := client.Stats().Fetches
		open(i)
		if got := client.Stats().Fetches - fetches; got != 1 {
			t.Fatalf("open %d made %d fetches, want 1", i, got)
		}
		open(i) // a hit, into that array
		if now, c := array(); now != kept || c != size {
			t.Fatalf("visit %d after two collections: the log is an array of %d at %p, want the one of %d at %p", i, c, now, size, kept)
		}
	}
}

// TestCallsSurviveCollection: a connection keeps the calls it has carried,
// so after a collection the next fetch reuses the very call object its
// connection answered the last one with. Runs with collection on, under
// the race detector too.
func TestCallsSurviveCollection(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 4), ServerConfig{GroupSize: 1})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	free := func() *muxCall {
		client.mu.Lock()
		m := client.seed.mux
		client.mu.Unlock()
		m.mu.Lock()
		defer m.mu.Unlock()
		if m.free == nil || m.free.next != nil {
			t.Fatalf("a serial client's connection keeps %v on its free list; want exactly one call", m.free)
		}
		return m.free
	}
	open := func(i int) {
		fetches := client.Stats().Fetches
		if _, err := client.Open(fmt.Sprintf("/data/f%03d", i%4)); err != nil {
			t.Fatal(err)
		}
		if got := client.Stats().Fetches - fetches; got != 1 {
			t.Fatalf("open %d made %d fetches, want 1", i, got)
		}
	}
	open(0)
	kept := free()
	for i := 1; i < 10; i++ {
		runtime.GC()
		runtime.GC()
		open(i)
		if now := free(); now != kept {
			t.Fatalf("fetch %d after two collections was carried by a new call %p, not the connection's %p", i, now, kept)
		}
	}
}
