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
// code path. Either way a connection's client pulls the ring from the
// server it dialed and sends each miss to its path's owner. -workers 1
// keeps one request in flight per connection, the lock-step baseline.
// -metrics wires an internal/obs registry into the clients and prints its
// series with the report, time-to-first-byte (fsnet_client_ttfb_ns)
// included.
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
//	aggbench -conns 8 -workers 8
//	aggbench -addr 127.0.0.1:7070,127.0.0.1:7071,127.0.0.1:7072 -conns 6
//	aggbench -cluster 3 -conns 9 -workers 4
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/cluster"
	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
	"aggcache/internal/trace"
	"aggcache/internal/workload"
)

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
	cluster int
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
	fs.IntVar(&cfg.cluster, "cluster", 1, "without -addr, the number of nodes in the in-process consistent-hash ring (replicated stores, connections spread round-robin)")
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
	reg     *obs.Registry     // client-side registry; nil unless -metrics
	client  fsnet.ClientStats // summed over all connections
	hitRate float64
	clus    clusterSummary // zero for an external fleet
}

// pct converts the histogram's nanosecond percentile back to a Duration.
func (r *result) pct(p float64) time.Duration {
	return time.Duration(r.hist.Percentile(p))
}

// clusterSummary is what the in-process ring's servers answered: each
// node's open and write requests, in boot order. Clients send every miss
// to its path's owner, so these are the fetches each node owns.
type clusterSummary struct {
	requests []uint64
}

func (r *result) throughput() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.opens) / r.elapsed.Seconds()
}

// verdict is the run's pass/fail decision. The service contract is every
// open answered with the right bytes, never an error, so a single failed
// open fails the run.
func (r *result) verdict() error {
	if r.errors > 0 {
		return fmt.Errorf("%d of %d opens failed", r.errors, r.errors+r.opens)
	}
	return nil
}

// sequences deals the workload's per-client open streams out to conns
// connections in ascending client id, cycling when the trace has fewer
// clients than connections, and trims or tiles each to exactly opens
// entries. Equal configs give equal sequences.
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
	ids := make([]uint16, 0, len(perClient))
	for id := range perClient {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	streams := make([][]string, len(ids))
	for i, id := range ids {
		streams[i] = perClient[id]
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
// clustered fleet needs it once per replica.
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
// and, for the in-process ring, the servers the report reads.
type fleet struct {
	targets []string
	servers []*fsnet.Server // nil for an external fleet
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
			Views:         node,
		})
		if err != nil {
			_ = node.Close()
			return nil, err
		}
		l := listeners[i]
		go func() { _ = srv.Serve(l) }()
		f.servers = append(f.servers, srv)
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
		c, err := fsnet.Dial(f.targets[i%len(f.targets)], fsnet.ClientConfig{
			CacheCapacity: clientCache,
			MaxRetries:    3,
			Seed:          seed,
			Obs:           reg,
		})
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
	}

	res := &result{cfg: cfg, hist: obs.NewHistogram(), reg: reg}
	var opens, errCount atomic.Uint64

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
	res.elapsed = time.Since(start)
	res.opens = opens.Load()
	res.errors = errCount.Load()
	// With -metrics the clients share the registry's counters, so any one
	// client's Stats is already the fleet's.
	counted := clients
	if reg != nil {
		counted = clients[:1]
	}
	for _, c := range counted {
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
		res.client.Rerouted += st.Rerouted
	}
	if res.client.Opens > 0 {
		res.hitRate = float64(res.client.Hits) / float64(res.client.Opens)
	}
	for _, srv := range f.servers {
		res.clus.requests = append(res.clus.requests, srv.Stats().Requests)
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
	fmt.Fprintf(out, "  client:     hit-rate %.3f  fetches %d  files-received %d  prefetch-hits %d\n",
		r.hitRate, r.client.Fetches, r.client.FilesReceived, r.client.PrefetchHits)
	fmt.Fprintf(out, "  validation: validated-files %d  validation-misses %d  history-dropped %d  bytes-received %d\n",
		r.client.ValidatedFiles, r.client.ValidationMisses, r.client.HistoryDropped, r.client.BytesReceived)
	if r.client.Retries+r.client.BrokenConns+r.client.Rerouted > 0 {
		fmt.Fprintf(out, "  recovery:   retries %d  broken-conns %d  reconnects %d  rerouted %d\n",
			r.client.Retries, r.client.BrokenConns, r.client.Reconnects, r.client.Rerouted)
	}
	if len(r.clus.requests) > 0 {
		fmt.Fprintf(out, "  cluster:    %d nodes  requests per node %v\n", len(r.clus.requests), r.clus.requests)
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
