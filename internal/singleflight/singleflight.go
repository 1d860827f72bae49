// Package singleflight coalesces concurrent calls that share a key:
// overlapping Do calls with the same key run the function once and share
// the first caller's result. It generalizes the staging coalescer that
// grew up inside internal/fsnet's server (DESIGN.md §10) so the cluster
// peer tier can reuse the exact same contract for cross-peer fetches.
//
// Results are only shared between calls that overlap in time; a call that
// starts after the flight completed runs fresh. That is deliberately
// weaker than a cache — the point is to collapse a thundering herd into
// one execution, not to remember answers.
package singleflight

import "sync"

// Group coalesces concurrent Do calls per key. The zero value is ready to
// use. A Group must not be copied after first use.
type Group[V any] struct {
	mu      sync.Mutex
	flights map[string]*flight[V]
	// free holds flights nobody joined, for reuse: the uncontended call —
	// nearly every call — then allocates nothing. Its length never exceeds
	// the most leaders that were ever in flight at once.
	free []*flight[V]
}

type flight[V any] struct {
	// done is made by the first follower to join and closed by the leader;
	// nil while the flight is uncontended.
	done chan struct{}
	// followers counts the callers that joined, under the group's mutex.
	followers int
	val       V
	ok        bool
}

// Do runs fn once per key among overlapping callers: the first caller for
// a key (the leader) executes fn; callers that arrive while the leader is
// in flight block and share its result. coalesced reports whether this
// caller joined another caller's flight instead of executing fn itself.
//
// The ok result is carried through from fn verbatim; it lets callers
// distinguish "ran and found nothing" from a usable result without
// resorting to sentinel values.
//
// share, when non-nil, lets the result be something a caller must own a
// piece of (a counted reference): the leader calls it once on behalf of
// each follower, after the key is released — so no more can join — and
// before any follower wakes, which is while the leader still holds
// whatever fn handed it. A follower therefore never has to acquire
// anything through a value it merely holds a copy of.
//
// If fn panics the panic propagates to the leader's caller, the key is
// released, and the flight's followers return the zero value with
// ok=false (share sees that zero value too).
func (g *Group[V]) Do(key string, fn func() (V, bool), share func(V)) (val V, ok, coalesced bool) {
	g.mu.Lock()
	if f, exists := g.flights[key]; exists {
		if f.done == nil {
			f.done = make(chan struct{})
		}
		f.followers++
		done := f.done
		g.mu.Unlock()
		<-done
		return f.val, f.ok, true
	}
	var f *flight[V]
	if n := len(g.free); n > 0 {
		f, g.free = g.free[n-1], g.free[:n-1]
	} else {
		f = new(flight[V])
	}
	if g.flights == nil {
		g.flights = make(map[string]*flight[V])
	}
	g.flights[key] = f
	g.mu.Unlock()

	// Deferred, so a panicking fn cannot wedge the key: it runs after the
	// results below are copied out, or while the panic unwinds.
	defer g.finish(key, f, share)
	f.val, f.ok = fn()
	return f.val, f.ok, false
}

// finish releases key and either wakes the flight's followers — who then
// own it, so it is left to the collector — or recycles it.
func (g *Group[V]) finish(key string, f *flight[V], share func(V)) {
	g.mu.Lock()
	delete(g.flights, key)
	done := f.done
	if done == nil {
		var zero V
		f.val, f.ok = zero, false
		g.free = append(g.free, f)
	}
	g.mu.Unlock()
	if done != nil {
		// The key is gone, so followers is final.
		for i := 0; share != nil && i < f.followers; i++ {
			share(f.val)
		}
		close(done)
	}
}
