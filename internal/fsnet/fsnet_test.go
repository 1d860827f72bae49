package fsnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"

	"aggcache/internal/trace"
)

// startServer launches a server on a loopback listener and returns its
// address plus a cleanup-registered shutdown.
func startServer(t *testing.T, store *Store, cfg ServerConfig) (*Server, string) {
	t.Helper()
	srv, err := NewServer(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve returned: %v", err)
		}
	})
	return srv, l.Addr().String()
}

func seededStore(t *testing.T, n int) *Store {
	t.Helper()
	store := NewStore()
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/data/f%03d", i)
		if err := store.Put(path, []byte(fmt.Sprintf("contents of %s", path))); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if err := s.Put("/a", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("", []byte("x")); err == nil {
		t.Error("empty path accepted")
	}
	data, ok := s.Get("/a")
	if !ok || string(data) != "x" {
		t.Errorf("Get = %q,%v", data, ok)
	}
	// Mutating the returned copy must not corrupt the store.
	data[0] = 'z'
	again, _ := s.Get("/a")
	if string(again) != "x" {
		t.Error("Get returned aliased data")
	}
	// Put must copy too.
	in := []byte("y")
	if err := s.Put("/b", in); err != nil {
		t.Fatal(err)
	}
	in[0] = 'q'
	got, _ := s.Get("/b")
	if string(got) != "y" {
		t.Error("Put aliased caller data")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if paths := s.Paths(); len(paths) != 2 || paths[0] != "/a" {
		t.Errorf("Paths = %v", paths)
	}
	if !s.Delete("/a") || s.Delete("/a") {
		t.Error("Delete semantics wrong")
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(nil, ServerConfig{}); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := NewServer(NewStore(), ServerConfig{GroupSize: maxGroup + 1}); err == nil {
		t.Error("oversized group accepted")
	}
	if _, err := NewServer(NewStore(), ServerConfig{GroupSize: -1}); err == nil {
		t.Error("negative group accepted")
	}
}

func TestOpenRoundTrip(t *testing.T) {
	store := seededStore(t, 10)
	_, addr := startServer(t, store, ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data, err := client.Open("/data/f000")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "contents of /data/f000" {
		t.Errorf("data = %q", data)
	}
	// Second open is a local hit.
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	s := client.Stats()
	if s.Opens != 2 || s.Hits != 1 || s.Fetches != 1 {
		t.Errorf("client stats = %+v", s)
	}
}

func TestOpenNotFound(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 1), ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Open("/missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	// The connection survives an error reply.
	if _, err := client.Open("/data/f000"); err != nil {
		t.Errorf("open after error: %v", err)
	}
	if st := client.Stats(); st.Opens != 1 {
		t.Errorf("failed open counted: %+v", st)
	}
}

func TestOpenInvalidPath(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 1), ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open(""); err == nil {
		t.Error("empty path accepted")
	}
}

// The headline behaviour: after the server learns an access pattern, a
// single fetch delivers the whole working set to the client.
func TestGroupPrefetchOverNetwork(t *testing.T) {
	store := seededStore(t, 30)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 3, CacheCapacity: 64})
	teach, err := Dial(addr, ClientConfig{CacheCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer teach.Close()

	// Teach the chain f000 -> f001 -> f002 with a tiny client cache so
	// every open reaches the server.
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if _, err := teach.Open(fmt.Sprintf("/data/f%03d", j)); err != nil {
				t.Fatal(err)
			}
		}
		// Break the 2-entry cache between rounds.
		for j := 10; j < 13; j++ {
			if _, err := teach.Open(fmt.Sprintf("/data/f%03d", j)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A fresh client opening f000 must receive f001 and f002 with it.
	fresh, err := Dial(addr, ClientConfig{CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if !fresh.Contains("/data/f001") || !fresh.Contains("/data/f002") {
		t.Fatalf("group members not prefetched; stats=%+v srv=%+v", fresh.Stats(), srv.Stats())
	}
	// Opening them is free: no extra server fetch.
	before := fresh.Stats().Fetches
	if _, err := fresh.Open("/data/f001"); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Open("/data/f002"); err != nil {
		t.Fatal(err)
	}
	after := fresh.Stats()
	if after.Fetches != before {
		t.Errorf("prefetched opens caused fetches: %+v", after)
	}
	if after.PrefetchHits != 2 {
		t.Errorf("PrefetchHits = %d, want 2", after.PrefetchHits)
	}
}

func TestPiggybackTeachesServerWithoutMisses(t *testing.T) {
	store := seededStore(t, 10)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 2})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// With a large client cache, repeats hit locally; the access
	// history still reaches the server on the next miss.
	seq := []string{"/data/f000", "/data/f001", "/data/f000", "/data/f001", "/data/f000", "/data/f001"}
	for _, p := range seq {
		if _, err := client.Open(p); err != nil {
			t.Fatal(err)
		}
	}
	// Force one more miss to carry the history the hits logged.
	if _, err := client.Open("/data/f009"); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Requests == 0 {
		t.Fatal("no server requests")
	}
	// The server must now predict f001 after f000: a brand-new client
	// opening f000 receives f001 too.
	fresh, err := Dial(addr, ClientConfig{CacheCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if !fresh.Contains("/data/f001") {
		t.Error("server did not learn the piggybacked f000->f001 relationship")
	}
}

func TestConcurrentClients(t *testing.T) {
	store := seededStore(t, 50)
	srv, addr := startServer(t, store, ServerConfig{})
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := Dial(addr, ClientConfig{CacheCapacity: 8})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 60; i++ {
				path := fmt.Sprintf("/data/f%03d", (c*7+i)%50)
				data, err := client.Open(path)
				if err != nil {
					errs <- fmt.Errorf("client %d open %s: %w", c, path, err)
					return
				}
				if !bytes.HasSuffix(data, []byte(path)) {
					errs <- fmt.Errorf("client %d: wrong contents for %s: %q", c, path, data)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := srv.Stats(); st.Requests == 0 {
		t.Error("server saw no requests")
	}
}

func TestServerStatsAccounting(t *testing.T) {
	store := seededStore(t, 5)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 2})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Open("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Requests != 2 || st.Errors != 1 {
		t.Errorf("server stats = %+v", st)
	}
	if st.FilesSent == 0 {
		t.Error("FilesSent = 0")
	}
}

func TestClientClose(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 2), ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := client.Open("/data/f000"); err == nil {
		t.Error("open after close succeeded")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer(NewStore(), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	// Serve after close must refuse.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := srv.Serve(l); err == nil {
		t.Error("Serve after Close succeeded")
	}
}

// TestServeAfterCloseRefusesDials: Serve on a closed server closes the
// listener it was handed, so a dial is refused at once rather than parked
// in the backlog, waiting out a handshake nobody will answer.
func TestServeAfterCloseRefusesDials(t *testing.T) {
	srv, err := NewServer(NewStore(), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err == nil {
		t.Fatal("Serve after Close returned nil, want an error")
	}
	conn, err := net.DialTimeout("tcp", l.Addr().String(), 2*time.Second)
	if err == nil {
		_ = conn.Close()
		t.Fatal("a dial to the closed server's listener connected, want it refused")
	}
	if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Errorf("dial: %v, want connection refused", err)
	}
}

// TestServerCloseCountsAcceptedConns closes servers just as they accept a
// connection. Serve counts the connection's goroutine before it releases
// the lock under which Close marks the server closed, so Close's wait
// covers every connection it accepted; counting it after the lock races
// with that wait, which the race detector reports (`make race`; it needs
// many rounds to hit the window).
func TestServerCloseCountsAcceptedConns(t *testing.T) {
	for i := 0; i < 1000; i++ {
		srv, err := NewServer(NewStore(), ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(l) }()
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		<-done // nil, or an error if Close came first
		_ = conn.Close()
	}
}

func TestServerRejectsGarbageConnection(t *testing.T) {
	srv, addr := startServer(t, seededStore(t, 1), ServerConfig{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection without crashing; a healthy
	// client still works.
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Errorf("healthy client failed after garbage connection: %v", err)
	}
	_ = srv
}

func TestClientCacheEvictionKeepsDataConsistent(t *testing.T) {
	store := seededStore(t, 40)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 4})
	client, err := Dial(addr, ClientConfig{CacheCapacity: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Stream far more files than the cache holds; every returned body
	// must match its path even across evictions and re-fetches.
	for i := 0; i < 200; i++ {
		path := fmt.Sprintf("/data/f%03d", i%40)
		data, err := client.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := "contents of " + path; string(data) != want {
			t.Fatalf("open %s = %q, want %q", path, data, want)
		}
	}
	st := client.Stats()
	if st.Hits == 0 || st.Fetches == 0 {
		t.Errorf("stats = %+v, want both hits and fetches", st)
	}
}

// TestServerIdleTimeoutDropsSilentClients: a server drops a client that
// stays silent past its idle timeout, and the client's next open succeeds
// over a fresh connection. Nothing reads an idle connection, so the drop
// is noticed by that open, which finds the connection closed before any
// byte of its reply arrived and is sent once more on a fresh connection —
// not as a retry, so it succeeds with MaxRetries 0 as well.
func TestServerIdleTimeoutDropsSilentClients(t *testing.T) {
	for _, retries := range []int{3, 0} {
		t.Run(fmt.Sprintf("MaxRetries=%d", retries), func(t *testing.T) {
			store := seededStore(t, 2)
			_, addr := startServer(t, store, ServerConfig{IdleTimeout: 50 * time.Millisecond})
			client, err := Dial(addr, ClientConfig{MaxRetries: retries})
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			if _, err := client.Open("/data/f000"); err != nil {
				t.Fatal(err)
			}
			// Stay silent past the idle timeout; the server must drop us.
			time.Sleep(150 * time.Millisecond)
			if _, err := client.Open("/data/f001"); err != nil {
				t.Errorf("open after idle disconnect did not recover: %v", err)
			}
			st := client.Stats()
			if st.BrokenConns == 0 {
				t.Errorf("stats = %+v, want the idle drop recorded as a broken connection", st)
			}
			if st.Reconnects == 0 {
				t.Errorf("stats = %+v, want a reconnect after the idle drop", st)
			}
			if st.Retries != 0 {
				t.Errorf("stats = %+v, want the open after the idle drop sent again without a retry", st)
			}
			// A fresh connection still works too.
			fresh, err := Dial(addr, ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			if _, err := fresh.Open("/data/f001"); err != nil {
				t.Errorf("fresh client failed: %v", err)
			}
		})
	}
}

func TestClientSurvivesServerShutdownWithError(t *testing.T) {
	store := seededStore(t, 2)
	srv, err := NewServer(store, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	client, err := Dial(l.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	// The next open must fail cleanly, not hang or panic.
	if _, err := client.Open("/data/f001"); err == nil {
		t.Error("open succeeded against a closed server")
	}
	// Cached data remains readable... via Contains at least.
	if !client.Contains("/data/f000") {
		t.Error("cached file lost after server shutdown")
	}
}

// flakyConn fails writes after a budget, simulating a connection that
// dies mid-request.
type flakyConn struct {
	net.Conn
	budget int
}

func (f *flakyConn) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, fmt.Errorf("flaky: injected write failure")
	}
	if len(p) > f.budget {
		n, _ := f.Conn.Write(p[:f.budget])
		f.budget = 0
		return n, fmt.Errorf("flaky: injected partial write")
	}
	f.budget -= len(p)
	return f.Conn.Write(p)
}

func TestClientReportsInjectedConnectionFailure(t *testing.T) {
	store := seededStore(t, 2)
	_, addr := startServer(t, store, ServerConfig{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(&flakyConn{Conn: raw, budget: 10}, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err == nil {
		t.Error("open over dying connection succeeded")
	}
}

func TestServerMetadataPersistence(t *testing.T) {
	store := seededStore(t, 20)
	srv1, addr1 := startServer(t, store, ServerConfig{GroupSize: 3})
	teach, err := Dial(addr1, ClientConfig{CacheCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer teach.Close()
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			if _, err := teach.Open(fmt.Sprintf("/data/f%03d", j)); err != nil {
				t.Fatal(err)
			}
		}
		for j := 10; j < 13; j++ {
			if _, err := teach.Open(fmt.Sprintf("/data/f%03d", j)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var snap bytes.Buffer
	if err := srv1.SaveMetadata(&snap); err != nil {
		t.Fatal(err)
	}

	// A brand-new server restored from the snapshot must know the
	// f000 -> f001 -> f002 chain immediately.
	srv2, err := NewServer(store, ServerConfig{GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.LoadMetadata(&snap); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv2.Serve(l) }()
	defer srv2.Close()

	fresh, err := Dial(l.Addr().String(), ClientConfig{CacheCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if !fresh.Contains("/data/f001") || !fresh.Contains("/data/f002") {
		t.Error("restored server lost the learned group")
	}
}

func TestServerLoadMetadataRejectsGarbage(t *testing.T) {
	srv, err := NewServer(NewStore(), ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.LoadMetadata(bytes.NewReader([]byte("XXXXjunk"))); err != ErrBadServerMetadata {
		t.Errorf("err = %v, want ErrBadServerMetadata", err)
	}
	if err := srv.LoadMetadata(bytes.NewReader(nil)); err == nil {
		t.Error("empty snapshot accepted")
	}
	// Truncated snapshot.
	store := seededStore(t, 3)
	src, addr := startServer(t, store, ServerConfig{})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.SaveMetadata(&snap); err != nil {
		t.Fatal(err)
	}
	full := snap.Bytes()
	if err := srv.LoadMetadata(bytes.NewReader(full[:len(full)/2])); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

// TestServerLoadMetadataPathTable: ids are positions in the snapshot's path
// table, so a table that names a path twice is rejected rather than loaded
// with every later id shifted onto the wrong file.
func TestServerLoadMetadataPathTable(t *testing.T) {
	store := NewStore()
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := store.Put(p, []byte("contents of "+p)); err != nil {
			t.Fatal(err)
		}
	}
	src, addr := startServer(t, store, ServerConfig{GroupSize: 3})
	c, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		for _, p := range []string{"/a", "/b", "/c"} {
			if _, err := c.Open(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snap bytes.Buffer
	if err := src.SaveMetadata(&snap); err != nil {
		t.Fatal(err)
	}
	if n := src.ids.Len(); n != 3 {
		t.Fatalf("source interned %d paths, want 3", n)
	}

	for _, tc := range []struct {
		name     string
		from, to string // the first length-prefixed occurrence is rewritten
		wantErr  bool
	}{
		{"clean round trip", "", "", false},
		{"second path repeats the first", "\x02/b", "\x02/a", true},
		{"third path repeats the second", "\x02/c", "\x02/b", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Replace(snap.Bytes(), []byte(tc.from), []byte(tc.to), 1)
			srv, err := NewServer(store, ServerConfig{GroupSize: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			err = srv.LoadMetadata(bytes.NewReader(data))
			if tc.wantErr {
				if !errors.Is(err, ErrBadServerMetadata) {
					t.Fatalf("err = %v, want ErrBadServerMetadata", err)
				}
				if n := srv.ids.Len(); n != 0 {
					t.Errorf("rejected snapshot left %d interned paths, want 0", n)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range []string{"/a", "/b", "/c"} {
				if got := srv.ids.Path(trace.FileID(i)); got != p {
					t.Errorf("id %d names %q, want %q", i, got, p)
				}
			}
		})
	}
}

// TestServerLoadMetadataRejectsUnknownIDs: the successor metadata may name
// only files of the path table it is saved with. A snapshot whose table
// lost /c while its metadata still learned /c is rejected, rather than
// teaching successors of a path that does not exist.
func TestServerLoadMetadataRejectsUnknownIDs(t *testing.T) {
	store := NewStore()
	for _, p := range []string{"/a", "/b", "/c"} {
		if err := store.Put(p, []byte("contents of "+p)); err != nil {
			t.Fatal(err)
		}
	}
	src, addr := startServer(t, store, ServerConfig{GroupSize: 3})
	c, err := Dial(addr, ClientConfig{CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		for _, p := range []string{"/a", "/b", "/c"} {
			if _, err := c.Open(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	var snap bytes.Buffer
	if err := src.SaveMetadata(&snap); err != nil {
		t.Fatal(err)
	}
	table := "AGFS\x01\x03\x02/a\x02/b\x02/c"
	if !bytes.HasPrefix(snap.Bytes(), []byte(table)) {
		t.Fatalf("snapshot does not start with the three-path table: %q", snap.Bytes()[:len(table)])
	}
	data := append([]byte("AGFS\x01\x02\x02/a\x02/b"), snap.Bytes()[len(table):]...)

	srv, err := NewServer(store, ServerConfig{GroupSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.LoadMetadata(bytes.NewReader(data)); !errors.Is(err, ErrBadServerMetadata) {
		t.Fatalf("err = %v, want ErrBadServerMetadata", err)
	}
	if n := srv.ids.Len(); n != 0 {
		t.Errorf("rejected snapshot left %d interned paths, want 0", n)
	}
	if err := srv.LoadMetadata(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("the matching snapshot after a rejected one: %v", err)
	}
}

func TestWriteThrough(t *testing.T) {
	store := seededStore(t, 4)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 2})
	writer, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	// Read, then overwrite; our own next read must see the new data.
	if _, err := writer.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	if err := writer.Write("/data/f000", []byte("updated")); err != nil {
		t.Fatal(err)
	}
	data, err := writer.Open("/data/f000")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "updated" {
		t.Errorf("own read after write = %q", data)
	}
	if st := writer.Stats(); st.Writes != 1 {
		t.Errorf("Writes = %d, want 1", st.Writes)
	}

	// A new file is creatable via Write.
	if err := writer.Write("/data/new", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	// A second client sees both from the store.
	reader, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	got, err := reader.Open("/data/new")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "fresh" {
		t.Errorf("other client read = %q", got)
	}
	got, err = reader.Open("/data/f000")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "updated" {
		t.Errorf("other client read of updated file = %q", got)
	}
}

func TestWriteValidation(t *testing.T) {
	_, addr := startServer(t, seededStore(t, 1), ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Write("", []byte("x")); err == nil {
		t.Error("empty path accepted")
	}
	if err := client.Write("/ok", make([]byte, maxFileSize+1)); err == nil {
		t.Error("oversized write accepted")
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Write("/ok", []byte("x")); err == nil {
		t.Error("write after close accepted")
	}
}

func TestWriteDoesNotPerturbMetadata(t *testing.T) {
	store := seededStore(t, 4)
	srv, addr := startServer(t, store, ServerConfig{})
	client, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Open("/data/f000"); err != nil {
		t.Fatal(err)
	}
	// The open's history is learned after its reply is on the wire and
	// before the connection's next request is read: once a write is
	// answered, nothing the open taught is still to come.
	if err := client.Write("/data/f001", []byte("v")); err != nil {
		t.Fatal(err)
	}
	before := func() uint64 {
		srv.aggMu.Lock()
		defer srv.aggMu.Unlock()
		return srv.agg.Tracker().Observed()
	}()
	if err := client.Write("/data/f001", []byte("w")); err != nil {
		t.Fatal(err)
	}
	after := func() uint64 {
		srv.aggMu.Lock()
		defer srv.aggMu.Unlock()
		return srv.agg.Tracker().Observed()
	}()
	if after != before {
		t.Errorf("write changed observed accesses: %d -> %d", before, after)
	}
}

func TestInterleavedClientsDoNotCorruptMetadata(t *testing.T) {
	store := seededStore(t, 30)
	srv, addr := startServer(t, store, ServerConfig{GroupSize: 3})
	a, err := Dial(addr, ClientConfig{CacheCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(addr, ClientConfig{CacheCapacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Strictly interleaved distinct chains. With a single merged
	// learning context the server would learn f000 -> f020 etc.
	for round := 0; round < 6; round++ {
		for j := 0; j < 3; j++ {
			if _, err := a.Open(fmt.Sprintf("/data/f%03d", j)); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Open(fmt.Sprintf("/data/f%03d", 20+j)); err != nil {
				t.Fatal(err)
			}
		}
		// Evict both tiny caches between rounds.
		if _, err := a.Open("/data/f010"); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Open("/data/f011"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Open("/data/f012"); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Open("/data/f013"); err != nil {
			t.Fatal(err)
		}
	}
	srv.aggMu.Lock()
	tk := srv.agg.Tracker()
	id0, _ := srv.ids.Lookup("/data/f000")
	id20, _ := srv.ids.Lookup("/data/f020")
	succs := tk.Successors(id0)
	srv.aggMu.Unlock()
	for _, sid := range succs {
		if sid == id20 {
			t.Errorf("server learned cross-client transition f000 -> f020; successors = %v", succs)
		}
	}
}

// TestSoakMixedWorkload drives several concurrent clients through
// randomized reads and writes and checks every read observes *some*
// legitimate version of the file (its initial contents or any version
// written by anyone — last-writer-wins with no cross-client invalidation
// means stale-but-valid reads are allowed; fabricated data is not).
func TestSoakMixedWorkload(t *testing.T) {
	const (
		files   = 64
		clients = 6
		ops     = 300
	)
	store := seededStore(t, files)
	_, addr := startServer(t, store, ServerConfig{GroupSize: 4, CacheCapacity: 48})

	// All versions any writer ever produced, per path.
	var versionsMu sync.Mutex
	versions := make(map[string]map[string]bool, files)
	record := func(path, content string) {
		versionsMu.Lock()
		defer versionsMu.Unlock()
		m, ok := versions[path]
		if !ok {
			m = make(map[string]bool, 4)
			versions[path] = m
		}
		m[content] = true
	}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/data/f%03d", i)
		record(path, "contents of "+path)
	}
	valid := func(path, content string) bool {
		versionsMu.Lock()
		defer versionsMu.Unlock()
		return versions[path][content]
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client, err := Dial(addr, ClientConfig{CacheCapacity: 12})
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			// Deterministic per-client pseudo-randomness.
			x := uint32(1 + c*2654435761)
			for i := 0; i < ops; i++ {
				x = x*1664525 + 1013904223
				path := fmt.Sprintf("/data/f%03d", (x>>8)%files)
				if (x>>28)%4 == 0 { // 25% writes
					content := fmt.Sprintf("v-%d-%d %s", c, i, path)
					// Record before writing so a concurrent reader
					// that observes it early still validates.
					record(path, content)
					if err := client.Write(path, []byte(content)); err != nil {
						errs <- fmt.Errorf("client %d write %s: %w", c, path, err)
						return
					}
				} else {
					data, err := client.Open(path)
					if err != nil {
						errs <- fmt.Errorf("client %d open %s: %w", c, path, err)
						return
					}
					if !valid(path, string(data)) {
						errs <- fmt.Errorf("client %d read fabricated data for %s: %q", c, path, data)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
