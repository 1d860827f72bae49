package fsnet

import (
	"errors"
	"fmt"
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
