// Command aggbench is the fsnet load generator: it replays a
// deterministic multi-client workload trace against a server over N
// concurrent connections with M pipelining goroutines per connection, and
// reports open throughput plus a latency distribution (p50/p95/p99 from a
// fixed power-of-two-bucket histogram, so the hot path never allocates or
// sorts).
//
// By default aggbench spins up an in-process server on a loopback socket,
// so one command measures the whole stack; point -addr at a running
// aggserve to load an external server instead. -workers 1 keeps one
// request in flight per connection — the lock-step baseline; its ratio to
// a pipelined run is the headline speedup of the concurrent serving path
// (DESIGN.md §10). Every run also reports time-to-first-byte percentiles,
// the latency until the demanded member's first chunk lands.
//
// -metrics wires an internal/obs registry into the clients and reports
// its series alongside the usual summary; the benchmark name gains an
// "Obs" suffix so baselines track instrumented and bare runs separately
// (their difference is the client-side instrumentation overhead).
//
// -cluster N spins up an in-process consistent-hash cluster of N nodes
// (internal/cluster) with replicated stores and spreads the connections
// across them round-robin, so the same workload measures the sharded
// peer tier — forwarded group hops, mirror absorption, and all — against
// the single-server baseline (-cluster 1 runs one node through the same
// code path for an apples-to-apples comparison).
//
// -churn (with -cluster >= 2) exercises elastic membership under load:
// at 40% progress the last node drains — its goodbye gossip removes it
// from the survivors' views, no per-node operator action — and streams
// every owned group's learned state to the new owners; at 70% the full
// membership is reinstalled on ONE node and gossip (internal/gossip)
// spreads it to the rest. The workload never pauses; the run fails if
// churn surfaces client-visible errors or if any node fails to converge
// to the final epoch, and the summary gains drain/handoff/hint counters
// plus the gossip convergence verdict.
//
// -trace-collect turns aggbench into the fleet trace scraper instead of
// a load generator: given the stats addresses of running aggserve nodes,
// it unions the trace IDs from each node's /traces, joins every node's
// /trace/<id> spans on trace ID, and emits the stitched fleet-wide
// traces as JSON (widest first). -trace-min-nodes fails the run unless
// some trace spans that many nodes — the smoke test's cross-node
// propagation assertion is just this exit code.
//
// Examples:
//
//	aggbench -conns 8 -workers 4
//	aggbench -conns 8 -workers 1
//	aggbench -addr 127.0.0.1:7070 -conns 16 -opens 50000
//	aggbench -conns 8 -json > pipelined.json
//	aggbench -cluster 3 -conns 9 -workers 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/benchparse"
	"aggcache/internal/cluster"
	"aggcache/internal/fsnet"
	"aggcache/internal/gossip"
	"aggcache/internal/obs"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

// delayConn models propagation delay: every byte written becomes visible
// to the peer d later, and every byte the peer sent becomes readable d
// after it hit the wire — without charging anything per syscall, exactly
// like a long pipe and unlike a per-operation sleep (which would bill a
// pipelined batch once per frame instead of once per flight). Throughput
// is unconstrained; only latency is injected, so the measurement isolates
// what request pipelining is supposed to hide.
//
// Release timing is owned by a single process-wide wheel goroutine (see
// delayWheel) rather than per-connection sleeps: time.Sleep rounds up
// to the kernel timer tick (~1.1ms on this hardware), which both
// inflates the injected delay by up to a tick and synchronizes every
// in-flight flight onto the same tick — the wakeup burst then
// serializes on the single CPU and bills queueing delay to the protocol
// under test.
type delayConn struct {
	net.Conn
	dOut time.Duration   // propagation charged on the write path
	dIn  time.Duration   // propagation charged on the read path
	out  chan delayChunk // wheel -> write pump, already due
	in   chan delayChunk // wheel -> Read, already due

	mu         sync.Mutex
	pending    []byte  // matured but unconsumed read bytes
	pendingBox *[]byte // pooled backing array behind pending
	readErr    error
	werr       atomic.Value // first write-pump error
}

type delayChunk struct {
	data []byte
	box  *[]byte // pooled backing array, recycled once data is consumed
	err  error
}

// delayBufPool recycles chunk backing arrays. The pumps move tens of
// thousands of chunks per second; allocating each one fresh made the
// harness itself the biggest source of GC work in the profile, which
// was billed to the client under measurement.
var delayBufPool = sync.Pool{New: func() any {
	b := make([]byte, 128<<10)
	return &b
}}

func getDelayBuf(n int) ([]byte, *[]byte) {
	bp := delayBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	return (*bp)[:n], bp
}

// delayRelease is one scheduled hand-off: at due (nanoseconds on the
// wheel's monotonic clock), chunk c is forwarded to ch (a delayConn's
// out or in channel). seq breaks due ties so same-connection chunks
// keep FIFO order through the heap.
type delayRelease struct {
	due int64
	seq uint64
	ch  chan delayChunk
	c   delayChunk
}

// delayWheel releases every delayConn's chunks at their due times from
// one goroutine. A min-heap orders releases; the loop sleeps through
// the bulk of the wait and yields through the final kernel tick
// (time.Sleep rounds up to the ~1.1ms tick on this hardware, which
// would both inflate the injected delay by up to half an RTT and
// synchronize every in-flight reply onto the same tick — the wakeup
// burst then serializes on the CPU and bills queueing delay to the
// protocol under test). Centralizing the wait means exactly one
// spinner exists no matter how many connections carry delay, and the
// spin reads only the clock and an atomic — the heap lock is taken
// just to push and pop.
type delayWheel struct {
	epoch time.Time
	head  atomic.Int64 // earliest due, or noDue when the heap is empty
	mu    sync.Mutex
	h     []delayRelease
	seq   uint64
	wake  chan struct{}
}

const noDue = int64(1) << 62

var (
	wheelOnce sync.Once
	wheel     *delayWheel
)

func sharedWheel() *delayWheel {
	wheelOnce.Do(func() {
		wheel = &delayWheel{epoch: time.Now(), wake: make(chan struct{}, 1)}
		wheel.head.Store(noDue)
		go wheel.loop()
	})
	return wheel
}

// now is the wheel's monotonic clock: nanoseconds since the wheel
// started.
func (w *delayWheel) now() int64 {
	return int64(time.Since(w.epoch))
}

func (w *delayWheel) add(delay time.Duration, ch chan delayChunk, c delayChunk) {
	due := w.now() + int64(delay)
	w.mu.Lock()
	w.seq++
	w.h = append(w.h, delayRelease{due: due, seq: w.seq, ch: ch, c: c})
	w.up(len(w.h) - 1)
	first := w.h[0].seq == w.seq
	if first {
		w.head.Store(due)
	}
	w.mu.Unlock()
	if first {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

func (w *delayWheel) less(i, j int) bool {
	if w.h[i].due != w.h[j].due {
		return w.h[i].due < w.h[j].due
	}
	return w.h[i].seq < w.h[j].seq
}

func (w *delayWheel) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !w.less(i, p) {
			break
		}
		w.h[i], w.h[p] = w.h[p], w.h[i]
		i = p
	}
}

func (w *delayWheel) down(i int) {
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(w.h) && w.less(l, m) {
			m = l
		}
		if r < len(w.h) && w.less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		w.h[i], w.h[m] = w.h[m], w.h[i]
		i = m
	}
}

func (w *delayWheel) loop() {
	// Empirical kernel timer granularity: time.Sleep(d) completes at
	// roughly d rounded up to the next ~1.1ms tick. Sleep only the
	// portion guaranteed not to overshoot; yield through the rest. One
	// yield per clock read keeps releases prompt even when the run
	// queue is deep — every Gosched may run another goroutine's full
	// slice, so batching yields would stall releases.
	const tick = 1150 * time.Microsecond
	var scratch []delayRelease
	for {
		head := w.head.Load()
		if head == noDue {
			<-w.wake
			continue
		}
		d := head - w.now()
		if d > int64(tick) {
			t := time.NewTimer(time.Duration(d) - tick)
			select {
			case <-w.wake:
				t.Stop()
			case <-t.C:
			}
			continue
		}
		if d > 0 {
			runtime.Gosched()
			continue
		}
		now := w.now()
		w.mu.Lock()
		scratch = scratch[:0]
		for len(w.h) > 0 && w.h[0].due <= now {
			scratch = append(scratch, w.h[0])
			last := len(w.h) - 1
			w.h[0] = w.h[last]
			w.h[last] = delayRelease{}
			w.h = w.h[:last]
			w.down(0)
		}
		if len(w.h) > 0 {
			w.head.Store(w.h[0].due)
		} else {
			w.head.Store(noDue)
		}
		w.mu.Unlock()
		for i := range scratch {
			scratch[i].ch <- scratch[i].c
			scratch[i] = delayRelease{}
		}
	}
}

func newDelayConn(conn net.Conn, dOut, dIn time.Duration) *delayConn {
	dc := &delayConn{
		Conn: conn,
		dOut: dOut,
		dIn:  dIn,
		out:  make(chan delayChunk, 1024),
		in:   make(chan delayChunk, 1024),
	}
	if dOut > 0 {
		go dc.writePump()
	}
	go dc.readPump()
	return dc
}

func (dc *delayConn) writePump() {
	for c := range dc.out {
		var err error
		if dc.werr.Load() == nil {
			_, err = dc.Conn.Write(c.data)
		}
		if c.box != nil {
			delayBufPool.Put(c.box)
		}
		if err != nil {
			// Keep draining so the wheel never blocks on a dead
			// connection's channel; Write reports the error.
			dc.werr.Store(err)
		}
	}
}

func (dc *delayConn) readPump() {
	w := sharedWheel()
	for {
		buf, box := getDelayBuf(128 << 10)
		n, err := dc.Conn.Read(buf)
		c := delayChunk{err: err}
		if n > 0 {
			c.data = buf[:n]
			c.box = box
		} else {
			delayBufPool.Put(box)
		}
		w.add(dc.dIn, dc.in, c)
		if err != nil {
			return
		}
	}
}

func (dc *delayConn) Write(p []byte) (int, error) {
	if dc.dOut <= 0 {
		return dc.Conn.Write(p)
	}
	if err, ok := dc.werr.Load().(error); ok {
		return 0, err
	}
	cp, box := getDelayBuf(len(p))
	copy(cp, p)
	sharedWheel().add(dc.dOut, dc.out, delayChunk{data: cp, box: box})
	return len(p), nil
}

func (dc *delayConn) Read(p []byte) (int, error) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	for len(dc.pending) == 0 {
		if dc.readErr != nil {
			return 0, dc.readErr
		}
		c := <-dc.in
		dc.pending = c.data
		dc.pendingBox = c.box
		dc.readErr = c.err
	}
	n := copy(p, dc.pending)
	dc.pending = dc.pending[n:]
	if len(dc.pending) == 0 && dc.pendingBox != nil {
		delayBufPool.Put(dc.pendingBox)
		dc.pendingBox = nil
	}
	return n, nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aggbench:", err)
		os.Exit(1)
	}
}

type config struct {
	addr        string
	files       int
	fileSize    int
	group       int
	clientCache int
	serverCache int
	conns       int
	workers     int
	opens       int
	seed        int64
	rtt         time.Duration
	cluster     int
	churn       bool
	metrics     bool
	jsonOut     bool
	gobench     bool
	cpuProf     string
	memProf     string

	traceCollect  string
	traceMinNodes int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("aggbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", "", "server address; empty runs an in-process loopback server")
	fs.IntVar(&cfg.files, "files", 2048, "synthetic store size in files (in-process server only)")
	fs.IntVar(&cfg.fileSize, "filesize", 1024, "synthetic file size in bytes")
	fs.IntVar(&cfg.group, "group", 5, "server group size g")
	fs.IntVar(&cfg.clientCache, "cache", 64, "client cache capacity in files")
	fs.IntVar(&cfg.serverCache, "servercache", 256, "server cache capacity in files (in-process server only)")
	fs.IntVar(&cfg.conns, "conns", 8, "concurrent client connections")
	fs.IntVar(&cfg.workers, "workers", 4, "pipelining goroutines per connection (1 = lock-step baseline: one request in flight per connection)")
	fs.IntVar(&cfg.opens, "opens", 20000, "opens per connection")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.DurationVar(&cfg.rtt, "rtt", 0, "simulated network round-trip time (half is injected before each client read and write syscall); zero measures raw loopback")
	fs.IntVar(&cfg.cluster, "cluster", 0, "run an in-process consistent-hash cluster of N nodes with replicated stores, connections spread round-robin (0 = plain single server)")
	fs.BoolVar(&cfg.churn, "churn", false, "mid-run membership churn: at 40%% progress the last node drains out of the ring (its goodbye gossip updates the survivors), at 70%% the rejoin view is installed on one node and gossip spreads it; the run fails unless every node converges (requires -cluster >= 2)")
	fs.BoolVar(&cfg.metrics, "metrics", false, "wire an obs registry into the clients and report its series; the benchmark name gains an Obs suffix so instrumented and bare runs diff separately")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit machine-readable JSON (benchjson-compatible schema)")
	fs.BoolVar(&cfg.gobench, "gobench", false, "emit one `go test -bench`-style result line (pipes into cmd/benchjson)")
	fs.StringVar(&cfg.cpuProf, "cpuprofile", "", "write a CPU profile of the load run to this file")
	fs.StringVar(&cfg.memProf, "memprofile", "", "write an allocation profile of the load run to this file")
	fs.StringVar(&cfg.traceCollect, "trace-collect", "", "comma-separated stats addresses: skip load generation, scrape each node's /traces and /trace/<id>, and emit fleet-stitched traces as JSON")
	fs.IntVar(&cfg.traceMinNodes, "trace-min-nodes", 1, "with -trace-collect, fail unless some stitched trace spans at least this many nodes")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.traceCollect != "" {
		// Collection is a scrape, not a load run; the load-shape flags
		// do not apply and are ignored.
		return cfg, nil
	}
	if cfg.conns < 1 || cfg.workers < 1 || cfg.opens < 1 {
		return cfg, fmt.Errorf("conns, workers, and opens must all be positive")
	}
	if cfg.cluster < 0 {
		return cfg, fmt.Errorf("-cluster must be >= 0, got %d", cfg.cluster)
	}
	if cfg.cluster > 0 && cfg.addr != "" {
		return cfg, fmt.Errorf("-cluster runs in-process nodes; it cannot target an external -addr")
	}
	if cfg.churn && cfg.cluster < 2 {
		return cfg, fmt.Errorf("-churn needs a ring to leave and rejoin; use -cluster 2 or more")
	}
	return cfg, nil
}

// result is one complete load-generation run. Latency lands in an
// obs.Histogram — the same power-of-two-bucket histogram aggbench used to
// carry privately, now shared through internal/obs so /metrics and the
// load generator report percentiles from identical math.
type result struct {
	cfg     config
	opens   uint64
	errors  uint64
	elapsed time.Duration
	hist    *obs.Histogram
	reg     *obs.Registry         // client-side registry; nil unless -metrics
	client  fsnet.ClientStats     // summed over all connections
	ttfb    obs.HistogramSnapshot // time-to-first-byte, merged over all connections
	hitRate float64
	clus    clusterSummary // zero when not clustered
}

// pct converts the histogram's nanosecond percentile back to a Duration.
func (r *result) pct(p float64) time.Duration {
	return time.Duration(r.hist.Percentile(p))
}

// clusterSummary aggregates node routing counters across the ring.
type clusterSummary struct {
	nodes      int
	local      uint64
	forwarded  uint64
	mirrorHits uint64
	coalesced  uint64
	degraded   uint64

	// Churn-run extras: what the departing node handed off and what the
	// survivors installed (drainSent counts groups streamed out by the
	// drained node; handoffs counts groups accepted ring-wide).
	churned    bool
	drainSent  uint64
	drainFail  uint64
	handoffs   uint64
	hintQueued uint64
	hintReplay uint64

	// Gossip convergence verdict for the churn script: whether both
	// transitions completed, and whether every node reached the leave
	// and rejoin epochs without the conductor updating it.
	scriptDone      bool
	leaveConverged  bool
	rejoinConverged bool
}

func (r *result) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.opens) / r.elapsed.Seconds()
}

// sequences deals the workload's per-client open streams out to conns
// connections, cycling when the trace has fewer clients than connections,
// and trims or tiles each to exactly opens entries.
func sequences(cfg config) ([][]string, error) {
	tr, err := workload.Generate(workload.Config{
		Seed:            cfg.seed,
		Opens:           cfg.conns * cfg.opens,
		Clients:         cfg.conns,
		InterleaveChunk: 4,
		Tasks:           64,
		TaskLen:         12,
		SharedFiles:     8,
		ZipfS:           1.2,
		Noise:           0.05,
		NoiseUniverse:   cfg.files,
	})
	if err != nil {
		return nil, err
	}
	perClient := make(map[uint16][]string)
	for _, ev := range tr.Events {
		if ev.Op != trace.OpOpen {
			continue
		}
		perClient[ev.Client] = append(perClient[ev.Client], tr.Paths.Path(ev.File))
	}
	streams := make([][]string, 0, len(perClient))
	for _, seq := range perClient {
		streams = append(streams, seq)
	}
	if len(streams) == 0 {
		return nil, fmt.Errorf("workload produced no opens")
	}
	out := make([][]string, cfg.conns)
	for i := range out {
		src := streams[i%len(streams)]
		seq := make([]string, cfg.opens)
		for n := range seq {
			seq[n] = src[n%len(src)]
		}
		out[i] = seq
	}
	return out, nil
}

// seedStore puts every path the sequences demand (plus synthetic filler up
// to cfg.files) into the store, with deterministic contents.
func seedStore(cfg config, seqs [][]string) (*fsnet.Store, error) {
	store := fsnet.NewStore()
	put := func(path string) error {
		if store.Contains(path) {
			return nil
		}
		data := make([]byte, cfg.fileSize)
		for i := range data {
			data[i] = byte(len(path) + i)
		}
		return store.Put(path, data)
	}
	for _, seq := range seqs {
		for _, p := range seq {
			if err := put(p); err != nil {
				return nil, err
			}
		}
	}
	for i := store.Len(); i < cfg.files; i++ {
		if err := put(fmt.Sprintf("/bench/fill%06d", i)); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// provision writes every path the sequences demand to an external
// server, with the same deterministic contents seedStore uses. Runs on a
// plain (undelayed) connection; it is setup, not measurement.
func provision(cfg config, seqs [][]string) error {
	c, err := fsnet.Dial(cfg.addr, fsnet.ClientConfig{CacheCapacity: 1, MaxRetries: 3})
	if err != nil {
		return err
	}
	defer c.Close()
	written := make(map[string]bool)
	for _, seq := range seqs {
		for _, p := range seq {
			if written[p] {
				continue
			}
			written[p] = true
			data := make([]byte, cfg.fileSize)
			for i := range data {
				data[i] = byte(len(p) + i)
			}
			if err := c.Write(p, data); err != nil {
				return fmt.Errorf("provision %s: %w", p, err)
			}
		}
	}
	return nil
}

func runLoad(cfg config) (*result, error) {
	seqs, err := sequences(cfg)
	if err != nil {
		return nil, err
	}

	targets := []string{cfg.addr}
	var shutdowns []func() error
	var nodes []*cluster.Node
	var servers []*fsnet.Server
	switch {
	case cfg.addr == "" && cfg.cluster > 0:
		// In-process cluster: every node gets a full replica of the
		// store, a ring membership over all the listen addresses, and a
		// server with the node wired in as its open router.
		listeners := make([]net.Listener, cfg.cluster)
		addrs := make([]string, cfg.cluster)
		for i := range listeners {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			listeners[i] = l
			addrs[i] = l.Addr().String()
		}
		for i := range addrs {
			store, err := seedStore(cfg, seqs)
			if err != nil {
				return nil, err
			}
			node, err := cluster.NewNode(cluster.Config{Self: addrs[i], Peers: addrs})
			if err != nil {
				return nil, err
			}
			srv, err := fsnet.NewServer(store, fsnet.ServerConfig{
				GroupSize:     cfg.group,
				CacheCapacity: cfg.serverCache,
				Router:        node,
				Views:         node,
			})
			if err != nil {
				_ = node.Close()
				return nil, err
			}
			l := listeners[i]
			go func() { _ = srv.Serve(l) }()
			nodes = append(nodes, node)
			servers = append(servers, srv)
			if cfg.churn {
				// Churn runs converge by gossip, not by the conductor
				// updating every node; a short anti-entropy period keeps
				// the convergence window well inside the run.
				gsp := gossip.New(gossip.Config{Node: node, Interval: 25 * time.Millisecond})
				gsp.Start()
				shutdowns = append(shutdowns, func() error { gsp.Stop(); return nil })
			}
			shutdowns = append(shutdowns, node.Close, srv.Close)
		}
		targets = addrs
	case cfg.addr == "":
		store, err := seedStore(cfg, seqs)
		if err != nil {
			return nil, err
		}
		srv, err := fsnet.NewServer(store, fsnet.ServerConfig{
			GroupSize:     cfg.group,
			CacheCapacity: cfg.serverCache,
		})
		if err != nil {
			return nil, err
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go func() { _ = srv.Serve(l) }()
		targets = []string{l.Addr().String()}
		shutdowns = append(shutdowns, srv.Close)
	}

	// -metrics: one shared client-side registry; every connection's
	// counters land in the same series, so the report is fleet-wide.
	var reg *obs.Registry
	if cfg.metrics {
		reg = obs.NewRegistry()
	}

	clientCfg := fsnet.ClientConfig{
		CacheCapacity: cfg.clientCache,
		MaxRetries:    3,
		Seed:          cfg.seed,
		Obs:           reg,
	}
	if cfg.addr != "" {
		// External server: provision the working set over the wire
		// (writes are write-through to the server's store) so the run
		// measures serving, not NotFound errors.
		if err := provision(cfg, seqs); err != nil {
			return nil, err
		}
	}

	clients := make([]*fsnet.Client, cfg.conns)
	for i := range clients {
		// Connections fan out over the cluster round-robin; with one
		// target every client hits the same server, as before.
		target := targets[i%len(targets)]
		ccfg := clientCfg
		if cfg.rtt > 0 {
			// Simulated WAN: the full round trip of propagation delay,
			// charged once on the reply path. A request/response exchange
			// only ever observes the round-trip sum, and one release
			// horizon suffers the kernel timer-tick quantization once
			// instead of once per direction. A lock-step exchange pays
			// the full RTT per open; a pipelined flight of k requests
			// shares one — which is exactly the latency-hiding the
			// concurrent serving path exists for.
			d := cfg.rtt
			ccfg.Dialer = func() (net.Conn, error) {
				conn, err := net.Dial("tcp", target)
				if err != nil {
					return nil, err
				}
				return newDelayConn(conn, 0, d), nil
			}
		}
		c, err := fsnet.Dial(target, ccfg)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
		for _, stop := range shutdowns {
			_ = stop()
		}
	}()

	res := &result{cfg: cfg, hist: obs.NewHistogram(), reg: reg}
	var opens, errCount atomic.Uint64

	// -churn: a background conductor takes the last node through a full
	// leave/rejoin cycle while the workload runs — and since PR 9 it acts
	// on a single node per transition, leaving dissemination to gossip.
	// At 40% progress the last node drains: its goodbye push removes it
	// from the survivors' views with no conductor involvement. At 70% the
	// full view is reinstalled on node 0 only, and piggybacked hints plus
	// anti-entropy carry it to everyone else — the drained node included,
	// which is what clears its draining flag (the rejoin). The workload
	// itself never pauses, and the run asserts every node converges to
	// the final epoch — elastic membership is only working if the clients
	// cannot tell and the operators did not have to fan out.
	loadDone := make(chan struct{})
	churnDone := make(chan struct{})
	var drainRep cluster.DrainReport
	var leaveConverged, rejoinConverged, churnScriptDone bool
	if cfg.churn && len(nodes) >= 2 {
		total := uint64(cfg.conns) * uint64(cfg.opens)
		waitFor := func(frac float64) bool {
			threshold := uint64(frac * float64(total))
			for opens.Load()+errCount.Load() < threshold {
				select {
				case <-loadDone:
					return false
				case <-time.After(2 * time.Millisecond):
				}
			}
			return true
		}
		// converged polls (bounded) until every listed node has reached
		// epoch want. The poll outlives the load on purpose: gossip may
		// still be spreading the last view when the final open lands.
		converged := func(want uint64, members []*cluster.Node) bool {
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				ok := true
				for _, n := range members {
					if n.Epoch() < want {
						ok = false
						break
					}
				}
				if ok {
					return true
				}
				time.Sleep(2 * time.Millisecond)
			}
			return false
		}
		go func() {
			defer close(churnDone)
			victim := len(nodes) - 1
			if !waitFor(0.4) {
				return
			}
			if rep, err := nodes[victim].Drain(servers[victim]); err == nil {
				drainRep = rep
			}
			leaveConverged = converged(drainRep.GoodbyeEpoch, nodes[:victim])
			if !waitFor(0.7) {
				return
			}
			_ = nodes[0].Update(drainRep.GoodbyeEpoch+1, targets)
			rejoinConverged = converged(drainRep.GoodbyeEpoch+1, nodes)
			churnScriptDone = true
		}()
	} else {
		close(churnDone)
	}

	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range clients {
		seq := seqs[ci]
		var cursor atomic.Int64 // workers on one conn share the sequence
		for w := 0; w < cfg.workers; w++ {
			wg.Add(1)
			go func(c *fsnet.Client) {
				defer wg.Done()
				var buf []byte // per-worker reuse buffer: one alloc per max file size
				for {
					n := cursor.Add(1) - 1
					if n >= int64(len(seq)) {
						return
					}
					t0 := time.Now()
					out, err := c.OpenInto(seq[n], buf)
					res.hist.ObserveDuration(time.Since(t0))
					if err != nil {
						errCount.Add(1)
						continue
					}
					buf = out
					opens.Add(1)
				}
			}(c)
		}
	}
	wg.Wait()
	close(loadDone)
	<-churnDone
	res.elapsed = time.Since(start)
	res.opens = opens.Load()
	res.errors = errCount.Load()
	for _, c := range clients {
		// Per-member time-to-first-byte: a group reply is streamed and the
		// clock stops at the first member chunk, so the gap between ttfb
		// and whole-open latency is the streaming win.
		ts := c.TTFB()
		for i, n := range ts.Buckets {
			res.ttfb.Buckets[i] += n
		}
		res.ttfb.Count += ts.Count
		res.ttfb.Sum += ts.Sum
		st := c.Stats()
		res.client.Opens += st.Opens
		res.client.Hits += st.Hits
		res.client.Fetches += st.Fetches
		res.client.FilesReceived += st.FilesReceived
		res.client.BytesReceived += st.BytesReceived
		res.client.PrefetchHits += st.PrefetchHits
		res.client.Retries += st.Retries
		res.client.BrokenConns += st.BrokenConns
		res.client.Reconnects += st.Reconnects
	}
	if res.client.Opens > 0 {
		res.hitRate = float64(res.client.Hits) / float64(res.client.Opens)
	}
	res.clus.nodes = len(nodes)
	for _, n := range nodes {
		st := n.Stats()
		res.clus.local += st.LocalOpens
		res.clus.forwarded += st.ForwardedOpens
		res.clus.mirrorHits += st.MirrorHits
		res.clus.coalesced += st.CoalescedForwards
		res.clus.degraded += st.DegradedOpens
		res.clus.hintQueued += st.HintsQueued
		res.clus.hintReplay += st.HintsReplayed
	}
	if cfg.churn {
		res.clus.churned = true
		res.clus.drainSent = uint64(drainRep.GroupsSent)
		res.clus.drainFail = uint64(drainRep.GroupsFailed)
		res.clus.scriptDone = churnScriptDone
		res.clus.leaveConverged = leaveConverged
		res.clus.rejoinConverged = rejoinConverged
		for _, s := range servers {
			res.clus.handoffs += s.Stats().Handoffs
		}
	}
	return res, nil
}

func (r *result) writeText(out *os.File) {
	fmt.Fprintf(out, "aggbench: %d conns x %d workers, %d opens/conn\n",
		r.cfg.conns, r.cfg.workers, r.cfg.opens)
	fmt.Fprintf(out, "  throughput: %.0f opens/s (%d opens in %v, %d errors)\n",
		r.throughput(), r.opens, r.elapsed.Round(time.Millisecond), r.errors)
	fmt.Fprintf(out, "  latency:    p50 %v  p95 %v  p99 %v\n",
		r.pct(50), r.pct(95), r.pct(99))
	if r.ttfb.Count > 0 {
		fmt.Fprintf(out, "  ttfb:       p50 %v  p95 %v  p99 %v (%d fetches)\n",
			time.Duration(r.ttfb.Percentile(50)), time.Duration(r.ttfb.Percentile(95)),
			time.Duration(r.ttfb.Percentile(99)), r.ttfb.Count)
	}
	fmt.Fprintf(out, "  client:     hit-rate %.3f  fetches %d  files-received %d  prefetch-hits %d\n",
		r.hitRate, r.client.Fetches, r.client.FilesReceived, r.client.PrefetchHits)
	if r.client.Retries+r.client.BrokenConns > 0 {
		fmt.Fprintf(out, "  recovery:   retries %d  broken-conns %d  reconnects %d\n",
			r.client.Retries, r.client.BrokenConns, r.client.Reconnects)
	}
	if r.clus.nodes > 0 {
		fmt.Fprintf(out, "  cluster:    %d nodes  local %d  forwarded %d  mirror-hits %d  coalesced %d  degraded %d\n",
			r.clus.nodes, r.clus.local, r.clus.forwarded, r.clus.mirrorHits, r.clus.coalesced, r.clus.degraded)
	}
	if r.clus.churned {
		fmt.Fprintf(out, "  churn:      drain-sent %d  drain-failed %d  handoffs-installed %d  hints-queued %d  hints-replayed %d\n",
			r.clus.drainSent, r.clus.drainFail, r.clus.handoffs, r.clus.hintQueued, r.clus.hintReplay)
		verdict := func(ok bool) string {
			if ok {
				return "converged"
			}
			return "FAILED"
		}
		if r.clus.scriptDone {
			fmt.Fprintf(out, "  gossip:     leave %s  rejoin %s\n",
				verdict(r.clus.leaveConverged), verdict(r.clus.rejoinConverged))
		} else {
			fmt.Fprintf(out, "  gossip:     churn script did not complete (run too short)\n")
		}
	}
	if r.reg != nil {
		for _, s := range r.reg.Snapshot() {
			if s.Hist != nil {
				fmt.Fprintf(out, "  obs:        %s count %d  p50 %v  p95 %v\n",
					s.Name, s.Hist.Count,
					time.Duration(s.Hist.Percentile(50)), time.Duration(s.Hist.Percentile(95)))
			} else {
				fmt.Fprintf(out, "  obs:        %s %v\n", s.Name, s.Value)
			}
		}
	}
}

// benchName is the identity the baseline gate diffs on; -metrics runs get
// an Obs suffix so instrumented throughput is tracked as its own series
// against the bare run, never mixed into it.
func (r *result) benchName() string {
	name := "AggbenchOpenPipelined"
	switch {
	case r.cfg.cluster > 0 && r.cfg.churn:
		name = fmt.Sprintf("AggbenchOpenClusterChurn%d", r.cfg.cluster)
	case r.cfg.cluster > 0:
		name = fmt.Sprintf("AggbenchOpenCluster%d", r.cfg.cluster)
	}
	if r.cfg.metrics {
		name += "Obs"
	}
	return name
}

// obsMetrics flattens the client registry into metric-name -> value pairs
// for the machine-readable outputs. Histograms contribute _count/_p50/_p95
// pseudo-series; labelled series are rare on the client side, so labels
// are folded into the name.
func (r *result) obsMetrics() map[string]float64 {
	if r.reg == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, s := range r.reg.Snapshot() {
		name := s.Name
		for _, l := range s.Labels {
			name += "_" + l.Value
		}
		if s.Hist != nil {
			out[name+"_count"] = float64(s.Hist.Count)
			out[name+"_p50"] = float64(s.Hist.Percentile(50))
			out[name+"_p95"] = float64(s.Hist.Percentile(95))
			continue
		}
		out[name] = s.Value
	}
	return out
}

// writeGobench emits the run as one standard benchmark result line, so
// `aggbench -gobench` pipes into cmd/benchjson alongside `go test -bench`
// output and lands in the same committed baseline.
func (r *result) writeGobench(out *os.File) {
	nsPerOp := float64(r.elapsed.Nanoseconds()) / float64(r.opens)
	fmt.Fprintf(out, "pkg: aggcache/cmd/aggbench\n")
	fmt.Fprintf(out, "Benchmark%s-%d\t%8d\t%.1f ns/op\t%.0f opens/s\t%d p95_ns\t%d p99_ns\t%.3f hit_rate",
		r.benchName(), r.cfg.conns*r.cfg.workers, r.opens, nsPerOp, r.throughput(),
		r.pct(95).Nanoseconds(), r.pct(99).Nanoseconds(), r.hitRate)
	fmt.Fprintf(out, "\t%d ttfb_p50_ns\t%d ttfb_p95_ns",
		r.ttfb.Percentile(50), r.ttfb.Percentile(95))
	if om := r.obsMetrics(); om != nil {
		fmt.Fprintf(out, "\t%.0f obs_call_p95_ns\t%.0f obs_reconnects",
			om["fsnet_client_call_latency_ns_p95"], om["fsnet_client_reconnects_total"])
	}
	fmt.Fprintln(out)
}

// writeJSON emits the run in the benchparse schema, so the loadtest
// numbers diff and gate exactly like the committed go-test baselines.
func (r *result) writeJSON(out *os.File) error {
	set := benchparse.Set{
		Benchmarks: []benchparse.Benchmark{{
			Name:       r.benchName(),
			Procs:      r.cfg.conns * r.cfg.workers,
			Pkg:        "aggcache/cmd/aggbench",
			Iterations: int64(r.opens),
			Metrics: map[string]float64{
				"opens/s":  r.throughput(),
				"p50_ns":   float64(r.pct(50).Nanoseconds()),
				"p95_ns":   float64(r.pct(95).Nanoseconds()),
				"p99_ns":   float64(r.pct(99).Nanoseconds()),
				"errors":   float64(r.errors),
				"hit_rate": r.hitRate,
				"fetches":  float64(r.client.Fetches),
				"conns":    float64(r.cfg.conns),
				"workers":  float64(r.cfg.workers),
				// Zero when the run recorded no fetch timings, so the key set
				// — what benchparse diffs and BENCH_BASELINE.json commits —
				// does not depend on the run.
				"ttfb_count":  float64(r.ttfb.Count),
				"ttfb_p50_ns": float64(r.ttfb.Percentile(50)),
				"ttfb_p95_ns": float64(r.ttfb.Percentile(95)),
				"ttfb_p99_ns": float64(r.ttfb.Percentile(99)),
			},
		}},
	}
	if r.clus.nodes > 0 {
		m := set.Benchmarks[0].Metrics
		m["cluster_nodes"] = float64(r.clus.nodes)
		m["forwarded"] = float64(r.clus.forwarded)
		m["mirror_hits"] = float64(r.clus.mirrorHits)
		m["coalesced"] = float64(r.clus.coalesced)
		m["degraded"] = float64(r.clus.degraded)
		if r.clus.churned {
			m["churn_drain_sent"] = float64(r.clus.drainSent)
			m["churn_drain_failed"] = float64(r.clus.drainFail)
			m["churn_handoffs"] = float64(r.clus.handoffs)
			m["churn_hints_queued"] = float64(r.clus.hintQueued)
			m["churn_hints_replayed"] = float64(r.clus.hintReplay)
			churnOK := 0.0
			if r.clus.scriptDone && r.clus.leaveConverged && r.clus.rejoinConverged {
				churnOK = 1
			}
			m["churn_gossip_converged"] = churnOK
		}
	}
	for name, v := range r.obsMetrics() {
		set.Benchmarks[0].Metrics[name] = v
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(set)
}

func run(args []string, out *os.File) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.traceCollect != "" {
		var addrs []string
		for _, a := range strings.Split(cfg.traceCollect, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		return collectTraces(addrs, cfg.traceMinNodes, out)
	}
	if cfg.cpuProf != "" {
		f, err := os.Create(cfg.cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runLoad(cfg)
	if err != nil {
		return err
	}
	if cfg.memProf != "" {
		f, ferr := os.Create(cfg.memProf)
		if ferr != nil {
			return ferr
		}
		runtime.GC()
		if werr := pprof.Lookup("allocs").WriteTo(f, 0); werr != nil {
			_ = f.Close()
			return werr
		}
		if cerr := f.Close(); cerr != nil {
			return cerr
		}
	}
	if res.errors > res.opens/10 {
		return fmt.Errorf("%d of %d opens failed; load run not representative", res.errors, res.errors+res.opens)
	}
	if res.clus.scriptDone && !(res.clus.leaveConverged && res.clus.rejoinConverged) {
		return fmt.Errorf("churn: gossip failed to converge membership (leave=%v rejoin=%v)",
			res.clus.leaveConverged, res.clus.rejoinConverged)
	}
	if cfg.jsonOut {
		return res.writeJSON(out)
	}
	if cfg.gobench {
		res.writeGobench(out)
		return nil
	}
	res.writeText(out)
	return nil
}
