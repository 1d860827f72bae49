package fsnet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aggcache/internal/alloctest"
	"aggcache/internal/obs/otrace"
)

// peerRouter stands in for the cluster tier: paths under /remote/ are
// another node's, so TryRouteOpen refuses them and RouteOpen "forwards" —
// it parks until released — while every other path is declined to the
// local serving path without waiting.
type peerRouter struct {
	entered chan string   // receives each path RouteOpen parks on
	release chan struct{} // closed to let parked forwards return
}

func newPeerRouter() *peerRouter {
	return &peerRouter{entered: make(chan string, 16), release: make(chan struct{})}
}

func (r *peerRouter) RouteOpen(path string, accessed []string) ([]GroupFile, bool, error) {
	if !strings.HasPrefix(path, "/remote/") {
		return nil, false, nil
	}
	r.entered <- path
	<-r.release
	return []GroupFile{{Path: path, Data: []byte("forwarded " + path)}}, true, nil
}

func (r *peerRouter) RouteOpenTraced(path string, accessed []string, _ otrace.Ctx) (*Group, int, bool, error) {
	files, handled, err := r.RouteOpen(path, accessed)
	if !handled {
		return nil, 0, false, err
	}
	g := NewGroup()
	g.Files = append(g.Files, files...)
	return g, 0, true, err
}

func (r *peerRouter) TryRouteOpen(path string, accessed []string, _ otrace.Ctx) (*Group, int, bool, bool) {
	return nil, 0, false, strings.HasPrefix(path, "/remote/")
}

// TestPipelinedLocalOpenOvertakesSlowForward: serving locally owned opens
// on the read loop must not serialise the connection behind a peer round
// trip — an open that needs one leaves the read loop for a worker, and a
// later local open on the same connection is answered while it waits.
func TestPipelinedLocalOpenOvertakesSlowForward(t *testing.T) {
	router := newPeerRouter()
	srv, addr := startServer(t, seededStore(t, 4), ServerConfig{Router: router})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	forwarded := make(chan error, 1)
	go func() {
		data, err := client.Open("/remote/slow")
		if err == nil && string(data) != "forwarded /remote/slow" {
			err = errors.New("forwarded open returned " + string(data))
		}
		forwarded <- err
	}()
	<-router.entered // the forward is parked on its worker

	local := make(chan error, 1)
	go func() {
		data, err := client.Open("/data/f001")
		if err == nil && string(data) != "contents of /data/f001" {
			err = errors.New("local open returned " + string(data))
		}
		local <- err
	}()
	select {
	case err := <-local:
		if err != nil {
			t.Fatalf("local open behind a slow forward: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("local open waited for the forward ahead of it on the connection")
	}
	select {
	case err := <-forwarded:
		t.Fatalf("forward returned (%v) before its peer answered", err)
	default:
	}
	close(router.release)
	if err := <-forwarded; err != nil {
		t.Fatalf("forwarded open: %v", err)
	}
	if st := srv.Stats(); st.Requests != 2 || st.RemoteOpens != 1 {
		t.Errorf("Requests = %d, RemoteOpens = %d, want 2 and 1 (a refused inline try counts nothing)", st.Requests, st.RemoteOpens)
	}
}

// TestClientWatchdogRearmsAfterIdle: the per-connection deadline watchdog
// goes idle when nothing is in flight and must come back for the next
// call — a request that stalls after a quiet spell still fails within its
// timeout, with the typed transport error.
func TestClientWatchdogRearmsAfterIdle(t *testing.T) {
	router := newPeerRouter()
	defer close(router.release)
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{Router: router})
	const timeout = 100 * time.Millisecond
	client, err := Dial(addr, ClientConfig{Timeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	// Long enough for the watchdog armed by that open to fire, find
	// nothing in flight, and stand down.
	time.Sleep(3 * timeout)
	start := time.Now()
	_, err = client.Open("/remote/never")
	if !errors.Is(err, ErrConnBroken) || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("stalled open err = %v, want a timed-out ErrConnBroken", err)
	}
	if elapsed := time.Since(start); elapsed < timeout || elapsed > 20*timeout {
		t.Errorf("stalled open failed after %v, want about %v", elapsed, timeout)
	}
	// The poisoned connection is replaced and serves again.
	if _, err := client.Open("/data/f001"); err != nil {
		t.Fatalf("open after the timed-out connection was replaced: %v", err)
	}
}

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
// — and nothing else. The server stages into a pooled Group the reply
// writer releases once written, so its result slice (the second
// allocation of the old budget) is gone.
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
// router is consulted and declines, and from there the request costs what
// an unrouted one does. It used to decode into fresh strings and spawn a
// goroutine. The budget was 1 while Open had a variant that copied into a
// caller's reused buffer and the test measured through that; through Open
// itself the parent cost the same 2 (its copy-out is now the slab). A
// reused buffer's 0-alloc fetch is what immutable cache storage gives up.
// Now 1: the staged group is pooled like every other reply, which leaves
// the client's slab.
func TestAllocBudgetRoutedLocalOpen(t *testing.T) {
	if allocs := fetchAllocs(t, newPeerRouter()); allocs != 1 {
		t.Errorf("routed-local open allocates %.0f objects, budget exactly 1", allocs)
	}
}

// TestAllocBudgetPipelinedOpens pins the fetch under pipelining: eight
// goroutines share one connection and each op is one flight of eight
// fetches. Batched writes, out-of-order replies and the mux's queues cost
// nothing on top of eight single fetches, and neither does the piggyback
// backlog any more: a claim in flight has taken its storage with it, and
// the client used to recycle one claim's worth, so a miss that landed
// meanwhile regrew the backlog (one allocation per open, 3 per fetch). It
// now stacks every consumed claim's array, as many as were ever in flight
// at once, so a flight of eight costs eight client slabs.
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
// encoded request is not pooled: for a resident path its tail is the cache
// slot's new immutable storage, so recycling it would fork the write path
// on residency.
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
