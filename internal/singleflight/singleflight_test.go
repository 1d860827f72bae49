package singleflight

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoCoalescesOverlappingCalls pins the contract fsnet and cluster
// both rely on: one execution per key among overlapping callers, fresh
// execution once the flight has landed.
func TestDoCoalescesOverlappingCalls(t *testing.T) {
	var g Group[string]
	entered := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		val, ok, coalesced := g.Do("k", func() (string, bool) {
			calls.Add(1)
			close(entered)
			<-release
			return "value", true
		}, nil)
		if !ok || coalesced || val != "value" {
			t.Errorf("leader got val=%q ok=%v coalesced=%v", val, ok, coalesced)
		}
	}()
	<-entered

	const followers = 8
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, ok, coalesced := g.Do("k", func() (string, bool) {
				t.Error("follower executed fn despite leader in flight")
				return "", false
			}, nil)
			if !ok || !coalesced || val != "value" {
				t.Errorf("follower got val=%q ok=%v coalesced=%v", val, ok, coalesced)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the followers join the flight
	close(release)
	wg.Wait()
	<-leaderDone
	if n := calls.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}

	// Non-overlapping call starts fresh.
	_, _, coalesced := g.Do("k", func() (string, bool) { calls.Add(1); return "", true }, nil)
	if coalesced {
		t.Error("later call reported coalesced")
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("fn ran %d times after fresh call, want 2", n)
	}
}

// TestDoDistinctKeysRunIndependently: flights on different keys never
// block each other or share results.
func TestDoDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int]
	aEntered := make(chan struct{})
	aRelease := make(chan struct{})
	go g.Do("a", func() (int, bool) {
		close(aEntered)
		<-aRelease
		return 1, true
	}, nil)
	<-aEntered
	done := make(chan struct{})
	go func() {
		defer close(done)
		val, ok, coalesced := g.Do("b", func() (int, bool) { return 2, true }, nil)
		if val != 2 || !ok || coalesced {
			t.Errorf(`Do("b") = %d,%v,%v`, val, ok, coalesced)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal(`Do("b") blocked behind the "a" flight`)
	}
	close(aRelease)
}

// TestDoNotOK: a leader returning ok=false shares that verdict with its
// followers (the "ran and found nothing" case).
func TestDoNotOK(t *testing.T) {
	var g Group[[]byte]
	val, ok, coalesced := g.Do("missing", func() ([]byte, bool) { return nil, false }, nil)
	if val != nil || ok || coalesced {
		t.Errorf("Do = %v,%v,%v, want nil,false,false", val, ok, coalesced)
	}
}

// TestDoConcurrentStress hammers one Group from many goroutines across a
// handful of keys; run under -race this pins memory safety of the
// flight lifecycle (claim, execute, land, delete).
func TestDoConcurrentStress(t *testing.T) {
	var g Group[int]
	keys := []string{"a", "b", "c", "d"}
	var executions atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				key := keys[(i+j)%len(keys)]
				val, ok, _ := g.Do(key, func() (int, bool) {
					executions.Add(1)
					return len(key), true
				}, nil)
				if !ok || val != len(key) {
					t.Errorf("Do(%q) = %d,%v", key, val, ok)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if executions.Load() == 0 {
		t.Error("fn never executed")
	}
}

// TestDoLeaderPanicReleasesKey: a panicking fn propagates to the leader's
// caller only. The follower that joined the flight returns ok=false, and
// the key is free again for a later caller — it used to stay claimed
// forever, blocking every later Do of that key.
func TestDoLeaderPanicReleasesKey(t *testing.T) {
	var g Group[string]
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan interface{}, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		g.Do("k", func() (string, bool) {
			close(entered)
			<-release
			panic("stage exploded")
		}, nil)
	}()
	<-entered

	followerDone := make(chan struct{})
	go func() {
		defer close(followerDone)
		val, ok, coalesced := g.Do("k", func() (string, bool) {
			t.Error("follower executed fn despite leader in flight")
			return "", false
		}, nil)
		if val != "" || ok || !coalesced {
			t.Errorf("follower got val=%q ok=%v coalesced=%v, want \"\",false,true", val, ok, coalesced)
		}
	}()
	// The follower has joined once the flight has a done channel.
	for joined := false; !joined; runtime.Gosched() {
		g.mu.Lock()
		joined = g.flights["k"].done != nil
		g.mu.Unlock()
	}
	close(release)
	if p := <-leaderDone; p != "stage exploded" {
		t.Fatalf("leader recovered %v, want the fn's panic", p)
	}
	<-followerDone

	val, ok, coalesced := g.Do("k", func() (string, bool) { return "fresh", true }, nil)
	if val != "fresh" || !ok || coalesced {
		t.Errorf("later call got val=%q ok=%v coalesced=%v, want a fresh run", val, ok, coalesced)
	}
}

// TestDoUncontendedAllocatesNothing pins the recycled flight: a Do nobody
// joins costs no allocation once the group is warm.
func TestDoUncontendedAllocatesNothing(t *testing.T) {
	var g Group[[]byte]
	val := []byte("v")
	fn := func() ([]byte, bool) { return val, true }
	if allocs := testing.AllocsPerRun(100, func() { g.Do("k", fn, nil) }); allocs != 0 {
		t.Errorf("uncontended Do allocates %.1f objects, want 0", allocs)
	}
	if f := g.free[0]; f.val != nil || f.ok {
		t.Error("recycled flight still references its last result")
	}
}

// TestDoSharesOncePerFollower pins the hand-over the cluster tier's
// reference-counted forwards rely on: the leader calls share once for
// each follower that joined, all of them before any follower wakes, and
// never for an uncontended flight.
func TestDoSharesOncePerFollower(t *testing.T) {
	var g Group[*atomic.Int64]
	share := func(refs *atomic.Int64) { refs.Add(1) }
	refs := new(atomic.Int64)
	if _, _, coalesced := g.Do("k", func() (*atomic.Int64, bool) { return refs, true }, share); coalesced || refs.Load() != 0 {
		t.Fatalf("uncontended flight shared %d times, want 0", refs.Load())
	}

	const followers = 6
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		g.Do("k", func() (*atomic.Int64, bool) {
			close(entered)
			<-release
			return refs, true
		}, share)
	}()
	<-entered
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, _, coalesced := g.Do("k", func() (*atomic.Int64, bool) { return nil, false }, share)
			// Every share happened before the first follower woke.
			if !coalesced || val.Load() != followers {
				t.Errorf("follower woke with coalesced=%v and %d shares, want %d", coalesced, val.Load(), followers)
			}
		}()
	}
	for joined := 0; joined < followers; runtime.Gosched() {
		g.mu.Lock()
		joined = g.flights["k"].followers
		g.mu.Unlock()
	}
	close(release)
	wg.Wait()
	<-leaderDone
}
