package main

import (
	"runtime"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/cluster"
	"aggcache/internal/core"
	"aggcache/internal/fsnet"
	"aggcache/internal/group"
	"aggcache/internal/obs"
	"aggcache/internal/simulate"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

// spanLayers turns the span trees of a traced measured phase into the
// span-sourced layer metrics and the self-time budget.
//
// Along the blocking path of one operation the layers nest, so each layer's
// self time is its span minus the span it waits on:
//
//	fsnet.client.self = client.open - wire.rtt          (a hit: all of client.open)
//	kernel.loopback   = wire.rtt - server.residency     (both directions, syscalls included)
//	fsnet.server.self = server.residency - cluster.route
//	cluster.self      = cluster.route - cluster.forward
//	cluster.forward   = the whole peer hop, owner's residency included
func spanLayers(trees map[uint64]*opTree, workers []workerResult, rep *report) {
	clientHit, clientFetch, clientWrite := newHist(), newHist(), newHist()
	rtt, loopback := newHist(), newHist()
	serverOpen, serverWrite, serverOwner := newHist(), newHist(), newHist()
	clusterSelf, forward := newHist(), newHist()
	writeOps := newHist()
	var total float64
	var ops uint64

	for _, w := range workers {
		clientHit.merge(w.hitSelf)
	}
	ops += clientHit.n
	total += float64(clientHit.sum)

	for _, t := range trees {
		sRoot, sRTT, sEntry, sRoute, sFwd := t.spans[slotRoot], t.spans[slotRTT], t.spans[slotEntry], t.spans[slotEntryRoute], t.spans[slotForward]
		if !t.have[slotRoot] || sRoot.tag == tagHit {
			continue
		}
		if !t.have[slotRTT] || !t.have[slotEntry] {
			// A request whose reply was in flight when the phase ended.
			continue
		}
		ops++
		total += float64(sRoot.dur())
		self := selfTime(sRoot, sRTT)
		rtt.observe(sRTT.dur())
		loopback.observe(selfTime(sRTT, sEntry))
		if sRoot.tag == tagWrite {
			clientWrite.observe(self)
			writeOps.observe(sRoot.dur())
			serverWrite.observe(sEntry.dur())
			continue
		}
		clientFetch.observe(self)
		if !t.have[slotEntryRoute] {
			serverOpen.observe(sEntry.dur())
			continue
		}
		serverOpen.observe(selfTime(sEntry, sRoute))
		if !t.have[slotForward] {
			clusterSelf.observe(sRoute.dur())
			continue
		}
		clusterSelf.observe(selfTime(sRoute, sFwd))
		forward.observe(sFwd.dur())
		if t.have[slotOwner] {
			// Without a route span of its own the owner's whole
			// residency is server time: selfTime of a zero child.
			serverOwner.observe(selfTime(t.spans[slotOwner], t.spans[slotOwnerRoute]))
		}
	}

	p := func(h *hist, q float64) float64 {
		v, _ := h.quantile(q)
		return usFromNs(v)
	}
	clientAll := newHist()
	clientAll.merge(clientHit)
	clientAll.merge(clientFetch)
	clientAll.merge(clientWrite)
	serverAll := newHist()
	serverAll.merge(serverOpen)
	serverAll.merge(serverWrite)
	serverAll.merge(serverOwner)

	rep.set("fsnet.client.self_us_p50", p(clientAll, 0.5))
	rep.set("wire.rtt_us_p50", p(rtt, 0.5))
	rep.set("wire.rtt_us_p99", p(rtt, 0.99))
	rep.set("kernel.loopback_us_p50", p(loopback, 0.5))
	rep.set("fsnet.server.self_us_p50", p(serverAll, 0.5))
	rep.set("fsnet.server.self_us_p99", p(serverAll, 0.99))
	rep.set("fsnet.server.write_us_p50", p(writeOps, 0.5))
	rep.set("cluster.self_us_p50", p(clusterSelf, 0.5))
	rep.set("cluster.forward_us_p50", p(forward, 0.5))
	rep.set("cluster.forward_us_p99", p(forward, 0.99))

	// The budget: each layer's self time per class of operation, times how
	// often that class occurs, against the mean client.open. With mean self
	// times the sum must come back to the mean client.open: every
	// nanosecond of an operation belongs to exactly one layer, and a ratio
	// away from 1 means spans are missing or do not nest. With median self
	// times it shows how much of the mean the typical path explains; the
	// rest is tail (scheduling and collector delays on two shared cores).
	var budget, typical float64
	for _, h := range []*hist{clientHit, clientFetch, clientWrite, loopback, serverOpen, serverWrite, clusterSelf, forward} {
		med, _ := h.quantile(0.5)
		typical += med * float64(h.n)
		budget += float64(h.sum)
	}
	if ops > 0 {
		mean := total / float64(ops)
		budget /= float64(ops)
		typical /= float64(ops)
		rep.set("trace.client_open_mean_us", usFromNs(mean))
		rep.set("trace.budget_sum_us", usFromNs(budget))
		rep.set("trace.budget_ratio", budget/mean)
		rep.set("trace.budget_median_ratio", typical/mean)
		rep.notef("self-time budget over %d operations: layer self times sum to %.3f us against a mean client.open of %.3f us (ratio %.3f); layer medians sum to %.3f us (ratio %.3f)",
			ops, usFromNs(budget), usFromNs(mean), budget/mean, usFromNs(typical), typical/mean)
		share := func(h *hist) float64 { return float64(h.sum) / total }
		rep.notef("share of client.open time: fsnet.client.self %.3f, wire.rtt %.3f (kernel.loopback %.3f, fsnet.server.self %.3f, cluster.self %.3f, cluster.forward %.3f)",
			share(clientAll), share(rtt), share(loopback), share(serverOpen)+share(serverWrite), share(clusterSelf), share(forward))
	}
}

// counterLayers reports the layer metrics that are ratios of public counters
// and conn-wrapper counts over the traced measured phase.
func counterLayers(m measurement, client wireCounts, batches, requests uint64, rep *report) {
	attempted, _ := m.attempted()
	c := m.delta
	roundTrips := c.client.Fetches + c.client.Writes
	rep.set("fsnet.client.files_per_fetch", ratio(c.client.FilesReceived, c.client.Fetches))
	rep.set("fsnet.client.prefetch_accuracy", ratio(c.client.PrefetchHits, c.client.FilesReceived-c.client.Fetches))
	rep.set("wire.client_writes_per_fetch", ratio(client.writes, roundTrips))
	rep.set("wire.server_writes_per_reply", ratio(batches, requests))
	rep.set("wire.bytes_out_per_fetch", ratio(client.bytesOut, roundTrips))
	rep.set("wire.bytes_in_per_fetch", ratio(client.bytesIn, roundTrips))
	rep.set("fsnet.server.store_stagings_per_op", ratio(c.server.Cache.GroupFetches, attempted))
	rep.set("fsnet.server.coalesced_stages", float64(c.server.CoalescedStages))
	rep.set("fsnet.server.streamed_groups", float64(c.server.StreamedGroups))
	rep.set("cluster.forwarded_share", ratio(c.node.ForwardedOpens, c.client.Fetches))
	rep.set("cluster.mirror_hit_share", ratio(c.node.MirrorHits, c.client.Fetches))
	rep.set("cluster.coalesced_forwards", float64(c.node.CoalescedForwards))
	rep.set("cluster.degraded_opens", float64(c.node.DegradedOpens))
}

// runtimeLayers reports the allocator, collector and load-generator figures
// of a measured phase.
func runtimeLayers(m measurement, rep *report) {
	attempted, _ := m.attempted()
	var busy, wall int64
	peak := 0
	for _, w := range m.workers {
		busy += w.busyNs
		for _, ns := range w.segNs {
			wall += ns
		}
		peak = max(peak, w.goroutinesPeak)
	}
	rep.set("runtime.gc_cycles", float64(m.mem.gcCycles))
	rep.set("runtime.gc_pause_ms", float64(m.mem.gcPauseNs)/1e6)
	rep.set("runtime.alloc_bytes_per_op", ratio(m.mem.allocBytes, attempted))
	rep.set("runtime.goroutines_peak", float64(peak))
	rep.set("runtime.peak_rss_mb", peakRSSMiB())
	rep.set("loadgen.clock_overhead_ns", clockOverheadNs())
	rep.set("loadgen.self_share", 1-float64(busy)/float64(wall))
}

// replayBudget is how long each layer replay runs: a second in a run of the
// length BENCHMARK.json pins.
func replayBudget(seconds float64) time.Duration {
	return time.Duration(seconds / 20 * float64(time.Second))
}

// replay calls fn in batches on this goroutine until budget has passed and
// returns the cost of one call. Nothing else runs in the process meanwhile.
func replay(budget time.Duration, batch int, fn func(i int)) (nsPerCall, allocsPerCall float64) {
	runtime.GC()
	mem0 := readMem()
	start := nowNs()
	calls := 0
	for nowNs()-start < int64(budget) {
		for i := 0; i < batch; i++ {
			fn(calls + i)
		}
		calls += batch
	}
	elapsed := nowNs() - start
	mallocs := readMem().since(mem0).mallocs
	return float64(elapsed) / float64(calls), float64(mallocs) / float64(calls)
}

// replaySink keeps replayed calls from being optimised away.
var replaySink int

// replayLayers feeds the workload's own key stream to one exported function
// at a time. ids is the open sequence, paths the file names it refers to.
func replayLayers(ids []trace.FileID, paths []string, budget time.Duration, rep *report) error {
	n := len(ids)
	agg, err := core.New(core.Config{Capacity: 300, GroupSize: 5})
	if err != nil {
		return err
	}
	ns, allocs := replay(budget, 4096, func(i int) {
		if agg.Access(ids[i%n]) {
			replaySink++
		}
	})
	rep.set("core.access_ns", ns)
	rep.set("core.access_allocs", allocs)

	tracker, err := successor.NewTracker(successor.PolicyLRU, 3)
	if err != nil {
		return err
	}
	ns, allocs = replay(budget, 4096, func(i int) { tracker.Observe(ids[i%n]) })
	rep.set("successor.observe_ns", ns)
	rep.set("successor.observe_allocs", allocs)

	builder, err := group.NewBuilder(tracker, 5, group.StrategyChain)
	if err != nil {
		return err
	}
	var scratch []trace.FileID
	ns, allocs = replay(budget, 4096, func(i int) {
		scratch = builder.AppendBuild(scratch[:0], ids[i%n])
		replaySink += len(scratch)
	})
	rep.set("group.build_ns", ns)
	rep.set("group.build_allocs", allocs)

	lru, err := cache.NewLRU(300)
	if err != nil {
		return err
	}
	ns, allocs = replay(budget, 4096, func(i int) {
		if lru.Access(ids[i%n]) {
			replaySink++
		}
	})
	rep.set("cache.lru_access_ns", ns)
	rep.set("cache.lru_access_allocs", allocs)

	cell := ids[:min(n, simOpens)]
	ns, _ = replay(budget, 1, func(int) {
		r, _ := simulate.RunClient(cell, 300, 5)
		replaySink += int(r.Fetches)
	})
	rep.set("simulate.client_cell_ns_per_open", ns/float64(len(cell)))
	ns, _ = replay(budget, 1, func(int) {
		r, _ := simulate.RunServer(cell, simulate.ServerConfig{FilterCapacity: 150, ServerCapacity: 300, Scheme: simulate.SchemeAggregating, GroupSize: 5})
		replaySink += int(r.ServerHits)
	})
	rep.set("simulate.server_cell_ns_per_open", ns/float64(len(cell)))
	ns, _ = replay(budget, 1, func(int) {
		miss, _ := simulate.FilterLRU(cell, 150)
		replaySink += len(miss)
	})
	rep.set("simulate.filter_ns_per_open", ns/float64(len(cell)))

	ring := cluster.NewRing(0)
	ring.Add("127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003")
	ns, _ = replay(budget, 4096, func(i int) { replaySink += len(ring.Owner(paths[ids[i%n]])) })
	rep.set("cluster.ring_owner_ns", ns)

	store := fsnet.NewStore()
	for _, p := range paths {
		if err := store.Put(p, []byte(p)); err != nil {
			return err
		}
	}
	ns, _ = replay(budget, 4096, func(i int) {
		d, _ := store.GetRef(paths[ids[i%n]])
		replaySink += len(d)
	})
	rep.set("fsnet.store_get_ns", ns)

	interner := trace.NewSyncInterner()
	ns, _ = replay(budget, 4096, func(i int) { replaySink += int(interner.Intern(paths[ids[i%n]])) })
	rep.set("trace.intern_ns", ns)

	oh := obs.NewHistogram()
	ns, _ = replay(budget, 4096, func(i int) { oh.Observe(uint64(ids[i%n]) * 977) })
	rep.set("obs.hist_observe_ns", ns)
	return nil
}

// hitAllocs measures what one client-cache hit allocates, by opening a path
// that is certainly cached again and again on an otherwise idle process.
func hitAllocs(c *fsnet.Client, path string) (allocs, bytes float64, err error) {
	if _, err = c.Open(path); err != nil {
		return 0, 0, err
	}
	const calls = 20000
	runtime.GC()
	mem0 := readMem()
	for i := 0; i < calls; i++ {
		d, err := c.Open(path)
		if err != nil {
			return 0, 0, err
		}
		replaySink += len(d)
	}
	d := readMem().since(mem0)
	return float64(d.mallocs) / calls, float64(d.allocBytes) / calls, nil
}
