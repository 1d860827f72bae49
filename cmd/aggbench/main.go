// Command aggbench is the fleet driver: it replays a deterministic
// multi-client workload against running fsnet servers over N concurrent
// connections with M pipelining goroutines per connection, checks every
// reply byte for byte, and exits non-zero if any open failed. It is a
// deployment check, not the benchmark — the numbers anyone compares come
// from benchmark/ (BENCHMARK.json); the throughput and percentiles
// printed here are a human-readable reading of one run.
//
// -addr takes a comma-separated list of servers (a clustered aggserve
// fleet, say): the working set is written to every one of them and the
// connections spread over them round-robin. Without -addr the same load
// drives an in-process consistent-hash ring of -cluster nodes
// (internal/cluster, replicated stores; 1 by default), through the same
// code path. -rtt injects a simulated round trip; -workers 1 keeps one
// request in flight per connection, the lock-step baseline whose ratio
// to a pipelined run is the latency-hiding claim of DESIGN.md §10.
// -metrics wires an internal/obs registry into the clients and prints
// its series with the report.
//
// -churn (with -cluster >= 2) exercises elastic membership under load:
// at 40% progress the last node drains — its goodbye gossip removes it
// from the survivors' views, no per-node operator action — and streams
// every owned group's learned state to the new owners; at 70% the full
// membership is reinstalled on ONE node and gossip (internal/gossip)
// spreads it to the rest. The workload never pauses; the run fails if
// any node fails to converge to the final epoch, and the report gains
// drain/handoff/hint counters plus the gossip convergence verdict.
//
// -trace-collect turns aggbench into the fleet trace scraper instead:
// given the stats addresses of running aggserve nodes, it unions the
// trace IDs from each node's /traces, joins every node's /trace/<id>
// spans on trace ID, and emits the stitched fleet-wide traces as JSON
// (widest first). -trace-min-nodes fails the run unless some trace
// spans that many nodes.
//
// Examples:
//
//	aggbench -conns 8 -workers 8 -rtt 2ms
//	aggbench -addr 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072 -conns 6
//	aggbench -cluster 3 -conns 9 -workers 4 -churn
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// The workload's shape is fixed: the driver checks a deployment, it does
// not explore a parameter space (benchmark/ does that).
const (
	storeFiles  = 2048 // in-process store size, and the workload's noise universe
	fileSize    = 1024 // bytes
	groupSize   = 5    // in-process server group size g
	clientCache = 64   // files
	serverCache = 256  // files, in-process servers
	seed        = 1
)

type config struct {
	addrs   []string // external servers; empty drives the in-process ring
	conns   int
	workers int
	opens   int
	rtt     time.Duration
	cluster int
	churn   bool
	metrics bool

	traceCollect  string
	traceMinNodes int
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("aggbench", flag.ContinueOnError)
	var cfg config
	var addr string
	fs.StringVar(&addr, "addr", "", "comma-separated server addresses: the working set is written to every one and connections spread over them round-robin; empty drives an in-process ring (see -cluster)")
	fs.IntVar(&cfg.conns, "conns", 8, "concurrent client connections")
	fs.IntVar(&cfg.workers, "workers", 4, "pipelining goroutines per connection (1 = lock-step baseline: one request in flight per connection)")
	fs.IntVar(&cfg.opens, "opens", 20000, "opens per connection")
	fs.DurationVar(&cfg.rtt, "rtt", 0, "simulated network round-trip time, charged once per flight on the client's read path; zero measures raw loopback")
	fs.IntVar(&cfg.cluster, "cluster", 1, "without -addr, the number of nodes in the in-process consistent-hash ring (replicated stores, connections spread round-robin)")
	fs.BoolVar(&cfg.churn, "churn", false, "mid-run membership churn: at 40% progress the last node drains out of the ring (its goodbye gossip updates the survivors), at 70% the rejoin view is installed on one node and gossip spreads it; the run fails unless every node converges (requires -cluster >= 2)")
	fs.BoolVar(&cfg.metrics, "metrics", false, "wire an obs registry into the clients and print its series with the report")
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
	if cfg.cluster < 1 {
		return cfg, fmt.Errorf("-cluster must be >= 1, got %d", cfg.cluster)
	}
	if addr != "" {
		if cfg.addrs = splitList(addr); len(cfg.addrs) == 0 {
			return cfg, fmt.Errorf("-addr %q names no server", addr)
		}
		clusterSet := false
		fs.Visit(func(f *flag.Flag) { clusterSet = clusterSet || f.Name == "cluster" })
		if clusterSet {
			return cfg, fmt.Errorf("-cluster runs in-process nodes; it cannot target an external -addr")
		}
	}
	if cfg.churn && cfg.cluster < 2 {
		return cfg, fmt.Errorf("-churn needs an in-process ring to leave and rejoin; use -cluster 2 or more")
	}
	return cfg, nil
}

// splitList parses a comma-separated address list, dropping blanks.
func splitList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// result is one complete load-generation run. Latency lands in an
// obs.Histogram, so /metrics and the driver report percentiles from
// identical math.
type result struct {
	cfg     config
	opens   uint64
	errors  uint64 // opens that failed or returned the wrong bytes
	elapsed time.Duration
	hist    *obs.Histogram
	reg     *obs.Registry         // client-side registry; nil unless -metrics
	client  fsnet.ClientStats     // summed over all connections
	ttfb    obs.HistogramSnapshot // time-to-first-byte, merged over all connections
	hitRate float64
	clus    clusterSummary // zero for an external fleet
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
	churned   bool
	drainSent uint64
	drainFail uint64
	handoffs  uint64

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

// verdict is the run's pass/fail decision. The service contract is every
// open answered with the right bytes, never an error, so a single failed
// open fails the run; and a churn script that ran to completion must have
// converged every node by gossip alone.
func (r *result) verdict() error {
	if r.errors > 0 {
		return fmt.Errorf("%d of %d opens failed", r.errors, r.errors+r.opens)
	}
	if r.clus.scriptDone && !(r.clus.leaveConverged && r.clus.rejoinConverged) {
		return fmt.Errorf("churn: gossip failed to converge membership (leave=%v rejoin=%v)",
			r.clus.leaveConverged, r.clus.rejoinConverged)
	}
	return nil
}

// sequences deals the workload's per-client open streams out to conns
// connections, cycling when the trace has fewer clients than connections,
// and trims or tiles each to exactly opens entries.
func sequences(cfg config) ([][]string, error) {
	tr, err := workload.Generate(workload.Config{
		Seed:            seed,
		Opens:           cfg.conns * cfg.opens,
		Clients:         cfg.conns,
		InterleaveChunk: 4,
		Tasks:           64,
		TaskLen:         12,
		SharedFiles:     8,
		ZipfS:           1.2,
		Noise:           0.05,
		NoiseUniverse:   storeFiles,
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

// contents is a file's bytes: a pure function of its path, so every
// reply can be checked without remembering what was stored.
func contents(path string) []byte {
	data := make([]byte, fileSize)
	for i := range data {
		data[i] = byte(len(path) + i)
	}
	return data
}

// intact reports whether data is exactly contents(path).
func intact(path string, data []byte) bool {
	if len(data) != fileSize {
		return false
	}
	for i, b := range data {
		if b != byte(len(path)+i) {
			return false
		}
	}
	return true
}

// seedStore puts every path the sequences demand (plus synthetic filler up
// to storeFiles) into a fresh store.
func seedStore(seqs [][]string) (*fsnet.Store, error) {
	store := fsnet.NewStore()
	put := func(path string) error {
		if store.Contains(path) {
			return nil
		}
		return store.Put(path, contents(path))
	}
	for _, seq := range seqs {
		for _, p := range seq {
			if err := put(p); err != nil {
				return nil, err
			}
		}
	}
	for i := store.Len(); i < storeFiles; i++ {
		if err := put(fmt.Sprintf("/bench/fill%06d", i)); err != nil {
			return nil, err
		}
	}
	return store, nil
}

// provision writes every path the sequences demand to one external
// server. Writes are write-through to that server's own store only, so a
// clustered fleet needs it once per replica. Runs on a plain (undelayed)
// connection; it is setup, not measurement.
func provision(addr string, seqs [][]string) error {
	c, err := fsnet.Dial(addr, fsnet.ClientConfig{CacheCapacity: 1, MaxRetries: 3})
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
			if err := c.Write(p, contents(p)); err != nil {
				return fmt.Errorf("provision %s on %s: %w", p, addr, err)
			}
		}
	}
	return nil
}

// fleet is what a run drives: the addresses its connections spread over
// and, for the in-process ring, the handles -churn and the report read.
type fleet struct {
	targets []string
	nodes   []*cluster.Node // nil for an external fleet
	servers []*fsnet.Server // parallel to nodes
	stops   []func() error
}

func (f *fleet) close() {
	for _, stop := range f.stops {
		_ = stop()
	}
}

// boot readies the fleet holding the sequences' working set: the servers
// -addr lists, provisioned over the wire, or else an in-process ring of
// cfg.cluster nodes, each with a full replica of the store, a membership
// over all the listen addresses, and a server with the node wired in as
// its open router.
func boot(cfg config, seqs [][]string) (*fleet, error) {
	if len(cfg.addrs) > 0 {
		f := &fleet{targets: cfg.addrs}
		for _, addr := range f.targets {
			if err := provision(addr, seqs); err != nil {
				return nil, err
			}
		}
		return f, nil
	}
	f := &fleet{targets: make([]string, cfg.cluster)}
	listeners := make([]net.Listener, cfg.cluster)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = l
		f.targets[i] = l.Addr().String()
	}
	for i, self := range f.targets {
		store, err := seedStore(seqs)
		if err != nil {
			return nil, err
		}
		node, err := cluster.NewNode(cluster.Config{Self: self, Peers: f.targets})
		if err != nil {
			return nil, err
		}
		srv, err := fsnet.NewServer(store, fsnet.ServerConfig{
			GroupSize:     groupSize,
			CacheCapacity: serverCache,
			Router:        node,
			Views:         node,
		})
		if err != nil {
			_ = node.Close()
			return nil, err
		}
		l := listeners[i]
		go func() { _ = srv.Serve(l) }()
		f.nodes = append(f.nodes, node)
		f.servers = append(f.servers, srv)
		if cfg.churn {
			// Churn runs converge by gossip, not by the conductor
			// updating every node; a short anti-entropy period keeps
			// the convergence window well inside the run.
			gsp := gossip.New(gossip.Config{Node: node, Interval: 25 * time.Millisecond})
			gsp.Start()
			f.stops = append(f.stops, func() error { gsp.Stop(); return nil })
		}
		f.stops = append(f.stops, node.Close, srv.Close)
	}
	return f, nil
}

func runLoad(cfg config) (*result, error) {
	seqs, err := sequences(cfg)
	if err != nil {
		return nil, err
	}
	f, err := boot(cfg, seqs)
	if err != nil {
		return nil, err
	}
	defer f.close()
	return drive(cfg, seqs, f)
}

// drive replays seqs against the fleet, one connection per sequence, and
// checks every reply against contents.
func drive(cfg config, seqs [][]string, f *fleet) (*result, error) {
	// -metrics: one shared client-side registry; every connection's
	// counters land in the same series, so the report is fleet-wide.
	var reg *obs.Registry
	if cfg.metrics {
		reg = obs.NewRegistry()
	}

	clients := make([]*fsnet.Client, 0, cfg.conns)
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	for i := 0; i < cfg.conns; i++ {
		target := f.targets[i%len(f.targets)]
		ccfg := fsnet.ClientConfig{
			CacheCapacity: clientCache,
			MaxRetries:    3,
			Seed:          seed,
			Obs:           reg,
		}
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
		clients = append(clients, c)
	}

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
	if cfg.churn && len(f.nodes) >= 2 {
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
			victim := len(f.nodes) - 1
			if !waitFor(0.4) {
				return
			}
			if rep, err := f.nodes[victim].Drain(f.servers[victim]); err == nil {
				drainRep = rep
			}
			leaveConverged = converged(drainRep.GoodbyeEpoch, f.nodes[:victim])
			if !waitFor(0.7) {
				return
			}
			_ = f.nodes[0].Update(drainRep.GoodbyeEpoch+1, f.targets)
			rejoinConverged = converged(drainRep.GoodbyeEpoch+1, f.nodes)
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
				for {
					n := cursor.Add(1) - 1
					if n >= int64(len(seq)) {
						return
					}
					t0 := time.Now()
					out, err := c.Open(seq[n])
					res.hist.ObserveDuration(time.Since(t0))
					if err != nil || !intact(seq[n], out) {
						errCount.Add(1)
						continue
					}
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
		res.client.ValidatedFiles += st.ValidatedFiles
		res.client.ValidationMisses += st.ValidationMisses
		res.client.HistoryDropped += st.HistoryDropped
		res.client.Retries += st.Retries
		res.client.BrokenConns += st.BrokenConns
		res.client.Reconnects += st.Reconnects
	}
	if res.client.Opens > 0 {
		res.hitRate = float64(res.client.Hits) / float64(res.client.Opens)
	}
	res.clus.nodes = len(f.nodes)
	for _, n := range f.nodes {
		st := n.Stats()
		res.clus.local += st.LocalOpens
		res.clus.forwarded += st.ForwardedOpens
		res.clus.mirrorHits += st.MirrorHits
		res.clus.coalesced += st.CoalescedForwards
		res.clus.degraded += st.DegradedOpens
	}
	if cfg.churn {
		res.clus.churned = true
		res.clus.drainSent = uint64(drainRep.GroupsSent)
		res.clus.drainFail = uint64(drainRep.GroupsFailed)
		res.clus.scriptDone = churnScriptDone
		res.clus.leaveConverged = leaveConverged
		res.clus.rejoinConverged = rejoinConverged
		for _, s := range f.servers {
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
	fmt.Fprintf(out, "  validation: validated-files %d  validation-misses %d  history-dropped %d  bytes-received %d\n",
		r.client.ValidatedFiles, r.client.ValidationMisses, r.client.HistoryDropped, r.client.BytesReceived)
	if r.client.Retries+r.client.BrokenConns > 0 {
		fmt.Fprintf(out, "  recovery:   retries %d  broken-conns %d  reconnects %d\n",
			r.client.Retries, r.client.BrokenConns, r.client.Reconnects)
	}
	if r.clus.nodes > 0 {
		fmt.Fprintf(out, "  cluster:    %d nodes  local %d  forwarded %d  mirror-hits %d  coalesced %d  degraded %d\n",
			r.clus.nodes, r.clus.local, r.clus.forwarded, r.clus.mirrorHits, r.clus.coalesced, r.clus.degraded)
	}
	if r.clus.churned {
		fmt.Fprintf(out, "  churn:      drain-sent %d  drain-failed %d  handoffs-installed %d\n",
			r.clus.drainSent, r.clus.drainFail, r.clus.handoffs)
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

func run(args []string, out *os.File) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	if cfg.traceCollect != "" {
		return collectTraces(splitList(cfg.traceCollect), cfg.traceMinNodes, out)
	}
	res, err := runLoad(cfg)
	if err != nil {
		return err
	}
	res.writeText(out)
	return res.verdict()
}
