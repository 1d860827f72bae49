package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/cluster"
	"aggcache/internal/fsnet"
	"aggcache/internal/workload"
)

// serviceSpec pins everything about a service workload that is not the seed.
type serviceSpec struct {
	name   string
	stream streamSpec
	// nodes is 1 for a plain fsnet server, 3 for the consistent-hash ring.
	nodes       int
	groupSize   int
	serverCache int
	clientCache int
	// mirrorGroups is the capacity of each node's hot-group mirror.
	mirrorGroups int
	// opsPerSecond pins the length of a run as an operation count: the
	// measured phase is opsPerSecond x -seconds operations, whatever the
	// machine, and the reference box completes them in about -seconds.
	opsPerSecond int
}

// Pinned constants of the three service workloads; README.md explains each.
var serviceSpecs = []serviceSpec{
	{
		name:   "client_hot",
		stream: streamSpec{profile: workload.ProfileServer, stripWrites: true, sizeLo: 1 << 10, sizeHi: 16 << 10},
		nodes:  1, groupSize: 5, serverCache: 300, clientCache: 6144,
		opsPerSecond: 575000,
	},
	{
		name:   "server_rw",
		stream: streamSpec{profile: workload.ProfileWrite, sizeLo: 512, sizeHi: 8 << 10},
		nodes:  1, groupSize: 5, serverCache: 300, clientCache: 32,
		opsPerSecond: 84000,
	},
	{
		name:   "cluster3",
		stream: streamSpec{profile: workload.ProfileUsers, stripWrites: true, sizeLo: 512, sizeHi: 8 << 10},
		nodes:  3, groupSize: 5, serverCache: 300, clientCache: 64, mirrorGroups: 8,
		opsPerSecond: 52000,
	},
}

// warmupShare is the part of every worker's stream that runs before the
// measured phase, as part of set-up: caches and successor tables are full
// when measuring starts.
const warmupShare = 0.2

// lateFactor is the sanity cap on -seconds: a measured phase that has not
// finished its pinned operations after lateFactor x -seconds is abandoned and
// the run fails, so a run on a machine far slower than the reference box ends.
const lateFactor = 4

// lateAfterNs is how long a measured phase of the given nominal length may
// last. Runs of less than a second (tests) are all start-up cost and get a
// second's worth.
func lateAfterNs(seconds float64) int64 {
	return int64(math.Max(seconds, 1) * lateFactor * 1e9)
}

// logicalTick is how far the cluster's clock (mirror TTLs, breaker
// cooldowns) advances per completed operation: the default 5 s mirror TTL is
// 200 000 operations on any machine.
const logicalTick = 25 * time.Microsecond

const segments = 10

// system is one in-process deployment: servers (and ring nodes), one client
// per worker, and the op stream they run.
type system struct {
	spec    serviceSpec
	stream  *opStream
	servers []*fsnet.Server
	nodes   []*cluster.Node
	workers []*worker
	served  sync.WaitGroup

	storePutS, warmupS float64
}

type worker struct {
	id     int
	client *fsnet.Client
	stream *opStream
	ops    []op
	pos    int
	seq    uint64
	// done counts completed operations; the logical clock sums it.
	done    atomic.Uint64
	scratch []byte
	cur     *cursor // nil when untraced
	roots   *spanLog

	lastFetches uint64
	res         workerResult
}

// workerResult is what one worker measured in one phase.
type workerResult struct {
	attempted, failed uint64
	busyNs            int64 // sum of timed intervals
	segOps            [segments]uint64
	segNs             [segments]int64 // how long the worker's segment lasted
	open, fetch       [segments]*hist
	write             *hist
	hitSelf           *hist // traced: client.open of hits, every one of them
	hits              uint64
	goroutinesPeak    int
	late              bool // the phase passed its deadline and was abandoned
}

func workerCount() int { return min(runtime.NumCPU(), 2) }

// buildSystem sets a workload up around a generated stream: populate the
// stores, start servers, dial, and run the warm-up pass.
func buildSystem(spec serviceSpec, stream *opStream, seed int64, tr *tracer) (*system, error) {
	workers := len(stream.workers)
	if spec.nodes > 1 && workers > spec.nodes {
		return nil, fmt.Errorf("%s: %d workers need as many nodes", spec.name, workers)
	}
	sys := &system{spec: spec, stream: stream}
	for w := 0; w < workers; w++ {
		sys.workers = append(sys.workers, &worker{id: w, stream: stream, ops: stream.workers[w]})
	}
	for i := range stream.gens {
		stream.gens[i].Store(0)
	}
	listeners := make([]net.Listener, spec.nodes)
	ok := false
	defer func() {
		if ok {
			return
		}
		for _, l := range listeners {
			if l != nil {
				_ = l.Close()
			}
		}
		sys.close()
	}()

	addrs := make([]string, spec.nodes)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = l.Addr().String()
		if tr != nil {
			l = &tracedListener{Listener: l, t: tr, node: uint8(i)}
		}
		listeners[i] = l
	}

	putStart := nowNs()
	stores := make([]*fsnet.Store, spec.nodes)
	for i := range stores {
		stores[i] = fsnet.NewStore()
	}
	var buf []byte
	for i, p := range stream.paths {
		size := int(stream.sizes[i])
		if cap(buf) < size {
			buf = make([]byte, size)
		}
		fillContent(buf[:size], stream.hashes[i], 0)
		for _, st := range stores {
			if err := st.Put(p, buf[:size]); err != nil {
				return nil, err
			}
		}
	}
	sys.storePutS = float64(nowNs()-putStart) / 1e9

	clockBase := time.Now()
	for i := range listeners {
		cfg := fsnet.ServerConfig{GroupSize: spec.groupSize, CacheCapacity: spec.serverCache}
		if tr != nil {
			// The hook residencyConn times replies by; see its comment.
			cfg.WriteTimeout = time.Minute
		}
		if spec.nodes > 1 {
			ccfg := cluster.Config{
				Self:           addrs[i],
				Peers:          addrs,
				MirrorCapacity: spec.mirrorGroups,
				Now: func() time.Time {
					var done uint64
					for _, w := range sys.workers {
						done += w.done.Load()
					}
					return clockBase.Add(time.Duration(done) * logicalTick)
				},
			}
			var forwards *atomic.Uint64
			if tr != nil && i < workers {
				forwards = new(atomic.Uint64)
				node, cur := i, tr.cursors[i]
				ccfg.Dialer = func(addr string) (net.Conn, error) {
					return tr.dial(addr, cur, spanClusterForward, node, tagForwarded, forwards)
				}
			}
			node, err := cluster.NewNode(ccfg)
			if err != nil {
				return nil, err
			}
			sys.nodes = append(sys.nodes, node)
			cfg.Router, cfg.Views = node, node
			if tr != nil {
				if forwards == nil {
					forwards = new(atomic.Uint64)
				}
				cfg.Router = &tracedRouter{inner: node, t: tr, log: tr.newLog(), node: uint8(i), forwards: forwards}
			}
		}
		srv, err := fsnet.NewServer(stores[i], cfg)
		if err != nil {
			return nil, err
		}
		sys.servers = append(sys.servers, srv)
		l := listeners[i]
		listeners[i] = nil
		sys.served.Add(1)
		go func() {
			defer sys.served.Done()
			_ = srv.Serve(l)
		}()
	}

	for w, wk := range sys.workers {
		addr := addrs[w%len(addrs)]
		ccfg := fsnet.ClientConfig{CacheCapacity: spec.clientCache, Seed: seed}
		if tr != nil {
			wk.cur, wk.roots = tr.cursors[w], tr.newLog()
			cur := wk.cur
			ccfg.Dialer = func() (net.Conn, error) {
				return tr.dial(addr, cur, spanWireRTT, w%len(addrs), tagDirect, nil)
			}
		}
		c, err := fsnet.Dial(addr, ccfg)
		if err != nil {
			return nil, err
		}
		wk.client = c
	}

	warmStart := nowNs()
	sys.reset()
	sys.each(func(w *worker) { w.segment(0, w.warmupOps(), false, math.MaxInt64) })
	if failed := sys.failed(); failed > 0 {
		return nil, fmt.Errorf("%s: %d operations failed during warm-up", spec.name, failed)
	}
	sys.warmupS = float64(nowNs()-warmStart) / 1e9
	ok = true
	return sys, nil
}

// close stops clients, nodes and servers and waits for the accept loops.
func (s *system) close() {
	for _, w := range s.workers {
		if w.client != nil {
			_ = w.client.Close()
		}
	}
	for _, n := range s.nodes {
		_ = n.Close()
	}
	for _, srv := range s.servers {
		_ = srv.Close()
	}
	s.served.Wait()
}

// each runs fn for every worker concurrently and waits for all of them.
func (s *system) each(fn func(w *worker)) {
	var wg sync.WaitGroup
	for _, w := range s.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// reset clears the workers' results before a phase.
func (s *system) reset() {
	for _, w := range s.workers {
		w.res = workerResult{write: newHist(), hitSelf: newHist()}
		for i := 0; i < segments; i++ {
			w.res.open[i], w.res.fetch[i] = newHist(), newHist()
		}
		w.lastFetches = w.client.Stats().Fetches
	}
}

func (s *system) failed() uint64 {
	var failed uint64
	for _, w := range s.workers {
		failed += w.res.failed
	}
	return failed
}

// warmupOps is how many of the worker's operations run before the measured
// phase; segmentOps is how many run in each of its ten segments.
func (w *worker) warmupOps() int { return int(float64(len(w.ops)) * warmupShare) }

func (w *worker) segmentOps() int { return (len(w.ops) - w.warmupOps()) / segments }

// runMeasured is the measured phase: every worker, in a closed loop, runs its
// ten segments of equal operation count back to back.
func (s *system) runMeasured(deadline int64) {
	s.reset()
	s.each(func(w *worker) {
		for seg := 0; seg < segments && !w.res.late; seg++ {
			w.segment(seg, w.segmentOps(), true, deadline)
		}
	})
}

// segment is the load generator: a closed loop over the worker's next n
// operations. Only the Client call sits between the two clock reads; picking
// the operation, generating write contents, classifying and verifying the
// reply all happen outside the timed interval.
func (w *worker) segment(seg, n int, measured bool, deadline int64) {
	res := &w.res
	traced := measured && w.cur != nil
	if w.id == 0 {
		res.goroutinesPeak = max(res.goroutinesPeak, runtime.NumGoroutine())
	}
	start := nowNs()
	for ; n > 0; n-- {
		o := w.ops[w.pos]
		w.pos++
		w.seq++
		file, write := o.file(), o.write()
		path := w.stream.paths[file]
		size := int(w.stream.sizes[file])
		var payload []byte
		if write {
			if cap(w.scratch) < size {
				w.scratch = make([]byte, size)
			}
			payload = w.scratch[:size]
			fillContent(payload, w.stream.hashes[file], w.stream.gens[file].Add(1))
		}
		if traced {
			w.cur.path.Store(&w.stream.paths[file])
			w.cur.op.Store(opID(w.id, w.seq))
		}
		var data []byte
		var err error
		t0 := nowNs()
		if write {
			err = w.client.Write(path, payload)
		} else {
			data, err = w.client.Open(path)
		}
		t1 := nowNs()

		lat := t1 - t0
		res.attempted++
		res.busyNs += lat
		w.done.Add(1)
		res.segOps[seg]++
		tag := tagWrite
		if write {
			res.write.observe(lat)
			if err != nil {
				res.failed++
			}
		} else {
			res.open[seg].observe(lat)
			// Hit or fetch is the client's own account of what it
			// did, never a guess from the latency.
			fetches := w.client.Stats().Fetches
			if tag = tagHit; fetches != w.lastFetches {
				tag = tagFetch
				w.lastFetches = fetches
				res.fetch[seg].observe(lat)
			} else {
				res.hits++
			}
			full := w.seq%64 == 0
			if err != nil || !checkContent(data, w.stream.hashes[file], size, w.stream.gens[file].Load(), w.seq, full) {
				res.failed++
			}
		}
		if traced {
			// Every fetch and write keeps its root span; hits have no
			// children, so all of them feed the histogram and only the
			// first few are kept for the trace file.
			if tag == tagHit {
				res.hitSelf.observe(lat)
			}
			if tag != tagHit || res.hits <= keptHitSpans {
				w.roots.add(span{op: opID(w.id, w.seq), start: t0, end: t1, kind: spanClientOpen, tag: tag, node: uint8(w.id)})
			}
		}
		if t1 > deadline {
			res.late = true
			break
		}
	}
	res.segNs[seg] = nowNs() - start
	if traced {
		w.cur.op.Store(0)
	}
}

// keptHitSpans bounds the hit spans each worker keeps for the trace file; a
// client_hot run makes tens of millions.
const keptHitSpans = 20000

// counters is the public counters of the whole system at one instant.
type counters struct {
	client fsnet.ClientStats
	server fsnet.ServerStats
	node   cluster.NodeStats
}

func (s *system) counters() counters {
	var c counters
	for _, w := range s.workers {
		st := w.client.Stats()
		c.client.Opens += st.Opens
		c.client.Hits += st.Hits
		c.client.Fetches += st.Fetches
		c.client.FilesReceived += st.FilesReceived
		c.client.BytesReceived += st.BytesReceived
		c.client.PrefetchHits += st.PrefetchHits
		c.client.Writes += st.Writes
	}
	for _, srv := range s.servers {
		st := srv.Stats()
		c.server.Requests += st.Requests
		c.server.Errors += st.Errors
		c.server.CoalescedStages += st.CoalescedStages
		c.server.StreamedGroups += st.StreamedGroups
		c.server.Cache.Hits += st.Cache.Hits
		c.server.Cache.Misses += st.Cache.Misses
		c.server.Cache.GroupFetches += st.Cache.GroupFetches
	}
	for _, n := range s.nodes {
		st := n.Stats()
		c.node.LocalOpens += st.LocalOpens
		c.node.ForwardedOpens += st.ForwardedOpens
		c.node.MirrorHits += st.MirrorHits
		c.node.CoalescedForwards += st.CoalescedForwards
		c.node.DegradedOpens += st.DegradedOpens
	}
	return c
}

func (a counters) since(b counters) counters {
	d := a
	d.client.Opens -= b.client.Opens
	d.client.Hits -= b.client.Hits
	d.client.Fetches -= b.client.Fetches
	d.client.FilesReceived -= b.client.FilesReceived
	d.client.BytesReceived -= b.client.BytesReceived
	d.client.PrefetchHits -= b.client.PrefetchHits
	d.client.Writes -= b.client.Writes
	d.server.Requests -= b.server.Requests
	d.server.Errors -= b.server.Errors
	d.server.CoalescedStages -= b.server.CoalescedStages
	d.server.StreamedGroups -= b.server.StreamedGroups
	d.server.Cache.Hits -= b.server.Cache.Hits
	d.server.Cache.Misses -= b.server.Cache.Misses
	d.server.Cache.GroupFetches -= b.server.Cache.GroupFetches
	d.node.LocalOpens -= b.node.LocalOpens
	d.node.ForwardedOpens -= b.node.ForwardedOpens
	d.node.MirrorHits -= b.node.MirrorHits
	d.node.CoalescedForwards -= b.node.CoalescedForwards
	d.node.DegradedOpens -= b.node.DegradedOpens
	return d
}

// measurement is one measured phase of a service workload.
type measurement struct {
	setupS  float64 // process start to the first measured operation
	cpuNs   int64
	mem     memCounters
	delta   counters
	workers []workerResult
}

// measure runs the measured phase: one forced GC so every run starts from the
// same heap state, then the closed loop, with counters, CPU time and allocator
// statistics read immediately before and after. It fails if the pinned
// operations took more than lateFactor times the nominal seconds.
func (s *system) measure(seconds float64) (measurement, error) {
	runtime.GC()
	before, mem0, cpu0 := s.counters(), readMem(), cpuNs()
	start := nowNs()
	s.runMeasured(start + lateAfterNs(seconds))
	m := measurement{setupS: float64(start) / 1e9, cpuNs: cpuNs() - cpu0, mem: readMem().since(mem0), delta: s.counters().since(before)}
	for _, w := range s.workers {
		m.workers = append(m.workers, w.res)
		if w.res.late {
			return m, fmt.Errorf("%s: the measured phase was not over after %.3g s (%d operations done); the pinned operation counts assume the reference box",
				s.spec.name, float64(lateAfterNs(seconds))/1e9, w.res.attempted)
		}
	}
	return m, nil
}

func (m measurement) attempted() (attempted, failed uint64) {
	for _, w := range m.workers {
		attempted += w.attempted
		failed += w.failed
	}
	return attempted, failed
}

// segmentRates is the workers' summed operations per second in each segment.
func (m measurement) segmentRates() []float64 {
	rates := make([]float64, segments)
	for i := range rates {
		for _, w := range m.workers {
			if w.segNs[i] > 0 {
				rates[i] += float64(w.segOps[i]) / float64(w.segNs[i]) * 1e9
			}
		}
	}
	return rates
}

// opsPerSecond is the median over segments of the workers' summed rates.
func (m measurement) opsPerSecond() float64 { return median(m.segmentRates()) }

// segmentHists merges the workers' per-segment histograms.
func (m measurement) segmentHists(pick func(*workerResult) *[segments]*hist) []*hist {
	out := make([]*hist, segments)
	for i := range out {
		out[i] = newHist()
		for w := range m.workers {
			out[i].merge(pick(&m.workers[w])[i])
		}
	}
	return out
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func usFromNs(ns float64) float64 { return ns / 1e3 }

// endToEnd reports the end-to-end metrics of a service run: set-up time and
// the ratios of public counters over the measured phase.
func (m measurement) endToEnd(report *report) {
	attempted, _ := m.attempted()
	c := m.delta
	report.set("setup_s", m.setupS)
	report.set("client_hit_rate", ratio(c.client.Hits, c.client.Opens))
	report.set("server_miss_rate", ratio(c.server.Cache.Misses, c.server.Cache.Hits+c.server.Cache.Misses))
	report.set("bytes_per_open", ratio(c.client.BytesReceived, c.client.Opens))
	report.set("allocs_per_op", ratio(m.mem.mallocs, attempted))
	report.notef("server_hit_rate (Fig 4's axis) = 1 - server_miss_rate = %.6f", ratio(c.server.Cache.Hits, c.server.Cache.Hits+c.server.Cache.Misses))
}

// timings reports what the load generator clocked in an untraced measured
// phase. On the reference box none of these repeats within a tenth, so they
// are diagnostics (README.md, "Why no timing is gated"), not end-to-end
// metrics: the rate and the percentiles as medians over the ten segments, p99
// over the whole phase, CPU time over the whole process.
func (m measurement) timings(report *report) {
	attempted, _ := m.attempted()
	opens := m.segmentHists(func(w *workerResult) *[segments]*hist { return &w.open })
	fetches := m.segmentHists(func(w *workerResult) *[segments]*hist { return &w.fetch })
	report.set("loadgen.ops_per_s", m.opsPerSecond())
	report.notef("loadgen.ops_per_s by segment: %.0f", m.segmentRates())
	for _, p := range []struct {
		name string
		segs []*hist
		q    float64
	}{
		{"loadgen.open_p50_us", opens, 0.50}, {"loadgen.open_p95_us", opens, 0.95},
		{"loadgen.fetch_p50_us", fetches, 0.50}, {"loadgen.fetch_p95_us", fetches, 0.95},
	} {
		v, beyond := segmentQuantile(p.segs, p.q)
		report.set(p.name, usFromNs(v))
		var n uint64
		for _, h := range p.segs {
			n += h.n
		}
		report.notef("%s: %d samples in %d segments, at least %d beyond the rank in each", p.name, n, segments, beyond)
	}
	allOpens, allFetches := newHist(), newHist()
	for i := 0; i < segments; i++ {
		allOpens.merge(opens[i])
		allFetches.merge(fetches[i])
	}
	p99, _ := allOpens.quantile(0.99)
	report.set("loadgen.open_p99_us", usFromNs(p99))
	p99, _ = allFetches.quantile(0.99)
	report.set("loadgen.fetch_p99_us", usFromNs(p99))
	report.set("loadgen.cpu_us_per_op", usFromNs(float64(m.cpuNs))/math.Max(float64(attempted), 1))
}
