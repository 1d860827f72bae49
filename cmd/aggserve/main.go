// Command aggserve runs the group-retrieval file server of Figure 2: a
// TCP server that answers open requests with groups of related files,
// learning inter-file relationships from the request stream (and from
// piggybacked client access histories).
//
// The store is seeded either from a directory tree (-root) or with
// synthetic files (-synthetic N). The server runs until SIGINT/SIGTERM,
// then shuts down gracefully and prints its statistics.
//
// Robustness knobs: -idle-timeout drops silent connections,
// -write-timeout unwedges handlers facing stalled readers, and
// -max-conns caps concurrent connections (excess clients receive a
// graceful busy rejection and, with retry configured, back off).
//
// Profiling: -cpuprofile and -memprofile write runtime/pprof profiles
// covering the whole serve lifetime, and -pprof serves net/http/pprof
// for live inspection of a long-running server.
//
// Clustering: -peers (or -peers-file) joins a consistent-hash peer ring
// (internal/cluster). Opens for paths this node owns are served locally;
// everything else is fetched from the owning peer in one group hop, with
// a hot-group mirror and health-checked failover to the local store when
// a peer is down. Every node of a cluster must be started with the same
// peer list and a -self address that appears in it. -stats serves a
// JSON snapshot (server counters plus per-peer health) over HTTP.
//
// Elastic membership: -peers-file names a file of peer addresses (one
// per line, optional "epoch N" directive) that is re-read on SIGHUP or
// POST /reload and installed as a new epoch-numbered membership view —
// nodes join and leave without restarting the fleet. The -stats
// listener additionally serves /healthz (liveness), /readyz (readiness:
// 503 while draining, so a load balancer rotates the node out), and
// POST /drain, which streams every owned group's learned state to its
// next owner and flips readiness. SIGTERM on a clustered node drains
// before exiting, so a rolling restart hands state off automatically.
//
// Observability: every aggserve carries an internal/obs registry wired
// through the server, cache, and cluster layers. The -stats HTTP server
// additionally exposes /metrics (Prometheus text format: request
// counters, per-phase latency histograms, cache hit/miss counters,
// per-peer breaker gauges) and /metrics.json (the same snapshot plus
// recent events as JSON). -slow-request logs opens slower than the
// threshold to the bounded event log, and -log-events mirrors every
// recorded event to stderr through log/slog.
//
// Examples:
//
//	aggserve -addr :7070 -root ./testdata
//	aggserve -addr 127.0.0.1:7070 -synthetic 1000 -group 5 -cache 256
//	aggserve -addr :7070 -synthetic 1000 -max-conns 512 -write-timeout 10s
//	aggserve -addr :7070 -synthetic 1000 -pprof localhost:6060
//	aggserve -addr 127.0.0.1:7071 -self 127.0.0.1:7071 \
//	    -peers 127.0.0.1:7071,127.0.0.1:7072,127.0.0.1:7073 \
//	    -synthetic 1000 -stats 127.0.0.1:8071
//	aggserve -addr :7070 -synthetic 1000 -stats 127.0.0.1:8071 \
//	    -slow-request 50ms -log-events   # then: curl 127.0.0.1:8071/metrics
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"aggcache/internal/cluster"
	"aggcache/internal/fsnet"
	"aggcache/internal/gossip"
	"aggcache/internal/obs"
	"aggcache/internal/obs/otrace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aggserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("aggserve", flag.ContinueOnError)
	var (
		addr         = fl.String("addr", "127.0.0.1:7070", "listen address")
		root         = fl.String("root", "", "seed the store from this directory tree")
		synthetic    = fl.Int("synthetic", 0, "seed the store with N synthetic files instead")
		group        = fl.Int("group", 5, "retrieval group size g")
		capacity     = fl.Int("cache", 256, "server memory cache capacity (files)")
		succCap      = fl.Int("successors", 3, "per-file successor list capacity")
		metadata     = fl.String("metadata", "", "persist learned relationships to this file (loaded at start if present, saved at shutdown)")
		idleTimeout  = fl.Duration("idle-timeout", 5*time.Minute, "drop connections idle for this long (0 disables)")
		writeTimeout = fl.Duration("write-timeout", 30*time.Second, "per-reply write deadline so stalled readers cannot wedge handlers (0 disables)")
		maxConns     = fl.Int("max-conns", 0, "cap on concurrently served connections; excess get a busy rejection (0 = unlimited)")
		cpuProf      = fl.String("cpuprofile", "", "write a CPU profile to this file")
		memProf      = fl.String("memprofile", "", "write an allocation profile to this file at shutdown")
		pprofSrv     = fl.String("pprof", "", "serve net/http/pprof on this address while running")
		peers        = fl.String("peers", "", "comma-separated cluster peer addresses (must include -self); empty runs standalone")
		peersFile    = fl.String("peers-file", "", "file of cluster peer addresses, one per line with optional 'epoch N' directive; re-read on SIGHUP or POST /reload")
		self         = fl.String("self", "", "this node's advertised address within -peers (defaults to -addr)")
		replicas     = fl.Int("ring-replicas", 0, "consistent-hash virtual nodes per peer (0 = library default)")
		gossipEvery  = fl.Duration("gossip-interval", time.Second, "anti-entropy period for membership gossip (0 disables the background loop; piggybacked hints still converge)")
		gossipFanout = fl.Int("gossip-fanout", 1, "distinct random peers reconciled per anti-entropy round")
		traceSample  = fl.Int("trace-sample", otrace.DefaultSampleRate, "head-sample one request trace in N (1 traces everything, negative disables head sampling; slow requests are always tail-captured)")
		traceCap     = fl.Int("trace-buffer", otrace.DefaultCapacity, "bound on the in-memory span ring served by /traces and /trace/<id>")
		statsAddr    = fl.String("stats", "", "serve stats over HTTP on this address: /stats (JSON counters), /metrics (Prometheus text), /metrics.json (metrics plus recent events)")
		slowReq      = fl.Duration("slow-request", 0, "record opens slower than this to the event log (0 disables)")
		logEvents    = fl.Bool("log-events", false, "mirror recorded events (slow requests, breaker transitions, reconnects) to stderr via log/slog")
	)
	if err := fl.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				log.Printf("aggserve: write memprofile: %v", err)
			}
			f.Close()
		}()
	}
	if *pprofSrv != "" {
		go func() {
			// DefaultServeMux carries the net/http/pprof handlers.
			log.Printf("aggserve: pprof on http://%s/debug/pprof/", *pprofSrv)
			log.Println(http.ListenAndServe(*pprofSrv, nil))
		}()
	}

	store := fsnet.NewStore()
	switch {
	case *root != "":
		n, err := seedFromDir(store, *root)
		if err != nil {
			return err
		}
		log.Printf("aggserve: loaded %d files from %s", n, *root)
	case *synthetic > 0:
		for i := 0; i < *synthetic; i++ {
			path := fmt.Sprintf("/synthetic/f%06d", i)
			if err := store.Put(path, []byte(fmt.Sprintf("synthetic contents of %s", path))); err != nil {
				return err
			}
		}
		log.Printf("aggserve: seeded %d synthetic files", *synthetic)
	default:
		return fmt.Errorf("provide -root DIR or -synthetic N to populate the store")
	}

	if *maxConns < 0 {
		return fmt.Errorf("-max-conns must be >= 0, got %d", *maxConns)
	}

	// The registry is unconditional: a standing server always pays the few
	// nanoseconds of instrumentation so /metrics and the event log work
	// the moment anyone asks, with no restart-to-observe dance.
	reg := obs.NewRegistry()
	if *logEvents {
		reg.Events().SetSink(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	}

	// The tracer is likewise unconditional: at the default 1/1024 head
	// sampling an unsampled request costs one atomic add, and the span
	// ring is a fixed allocation. The node name is the advertised address
	// so stitched fleet traces name their hops usefully.
	traceNode := *self
	if traceNode == "" {
		traceNode = *addr
	}
	tracer := otrace.New(otrace.Config{
		Node:       traceNode,
		SampleRate: *traceSample,
		Capacity:   *traceCap,
	})

	var node *cluster.Node
	if *peers != "" && *peersFile != "" {
		return fmt.Errorf("-peers and -peers-file are mutually exclusive")
	}
	if *peers != "" || *peersFile != "" {
		selfAddr := *self
		if selfAddr == "" {
			selfAddr = *addr
		}
		var (
			peerList  []string
			fileEpoch uint64
		)
		if *peersFile != "" {
			var err error
			fileEpoch, peerList, err = readPeersFile(*peersFile)
			if err != nil {
				return err
			}
		} else {
			for _, p := range strings.Split(*peers, ",") {
				if p = strings.TrimSpace(p); p != "" {
					peerList = append(peerList, p)
				}
			}
		}
		// Fail fast: a -self that is malformed or absent from the peer
		// list would otherwise surface only on the first forward, as a
		// confusing misroute. Catch it before binding any sockets.
		if err := validatePeers(selfAddr, peerList); err != nil {
			return err
		}
		var err error
		node, err = cluster.NewNode(cluster.Config{
			Self:     selfAddr,
			Peers:    peerList,
			Replicas: *replicas,
			Obs:      reg,
			Trace:    tracer,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		if fileEpoch > 1 {
			// The file declares a later epoch than NewNode's initial view;
			// install it so a restarted node rejoins at the fleet's epoch.
			if err := node.Update(fileEpoch, peerList); err != nil {
				return err
			}
		}
		log.Printf("aggserve: joined %d-peer ring as %s (epoch %d)", len(peerList), selfAddr, node.Epoch())
	}

	// The gossiper runs whenever clustering is on, even at interval 0:
	// hint-triggered pulls (a peer's piggybacked epoch outrunning ours)
	// need its subscription regardless of the anti-entropy loop.
	if node != nil {
		gsp := gossip.New(gossip.Config{Node: node, Interval: *gossipEvery, Fanout: *gossipFanout, Obs: reg, Trace: tracer})
		gsp.Start()
		defer gsp.Stop()
	}

	// reload re-reads -peers-file and installs it as a new membership
	// view. An epoch 0 file (no directive) means "one past whatever is
	// installed", so plain peer-list edits always win.
	reload := func() error {
		if node == nil || *peersFile == "" {
			return fmt.Errorf("membership reload needs -peers-file")
		}
		epoch, peerList, err := readPeersFile(*peersFile)
		if err != nil {
			return err
		}
		if epoch == 0 {
			epoch = node.Epoch() + 1
		}
		if err := node.Update(epoch, peerList); err != nil {
			return err
		}
		log.Printf("aggserve: membership updated to epoch %d (%d peers)", node.Epoch(), len(peerList))
		return nil
	}

	srvCfg := fsnet.ServerConfig{
		GroupSize:         *group,
		CacheCapacity:     *capacity,
		SuccessorCapacity: *succCap,
		IdleTimeout:       *idleTimeout,
		WriteTimeout:      *writeTimeout,
		MaxConns:          *maxConns,
		Logger:            log.New(os.Stderr, "", log.LstdFlags),
		Obs:               reg,
		SlowRequest:       *slowReq,
		Trace:             tracer,
	}
	if node != nil {
		// A typed nil in the Router interface would still be "set"; only
		// wire the hooks when clustering is actually on.
		srvCfg.Router = node
		srvCfg.Views = node
	}
	srv, err := fsnet.NewServer(store, srvCfg)
	if err != nil {
		return err
	}
	if *metadata != "" {
		if f, err := os.Open(*metadata); err == nil {
			loadErr := srv.LoadMetadata(f)
			_ = f.Close()
			if loadErr != nil {
				return fmt.Errorf("load metadata: %w", loadErr)
			}
			log.Printf("aggserve: restored relationship metadata from %s", *metadata)
		} else if !os.IsNotExist(err) {
			return err
		}
	}

	if *statsAddr != "" {
		sl, err := net.Listen("tcp", *statsAddr)
		if err != nil {
			return fmt.Errorf("stats listener: %w", err)
		}
		defer sl.Close()
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			if err := enc.Encode(statsSnapshot(srv, node)); err != nil {
				log.Printf("aggserve: encode stats: %v", err)
			}
		})
		mux.Handle("/metrics", reg.MetricsHandler())
		mux.Handle("/metrics.json", reg.JSONHandler())
		mux.Handle("/traces", tracer.SummariesHandler())
		mux.Handle("/trace/", tracer.TraceHandler())
		// Liveness: the process is up and serving HTTP. Readiness adds
		// membership: a standalone node is always ready; a clustered node
		// is ready only while it is in the ring and not draining, so load
		// balancers rotate a draining node out before it exits.
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			if node != nil && !node.Ready() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ready")
		})
		mux.HandleFunc("/drain", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			if node == nil {
				http.Error(w, "not clustered", http.StatusConflict)
				return
			}
			rep, err := node.Drain(srv)
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			log.Printf("aggserve: drained: %d groups exported, %d sent, %d failed, %d skipped",
				rep.GroupsExported, rep.GroupsSent, rep.GroupsFailed, rep.GroupsSkipped)
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(rep)
		})
		mux.HandleFunc("/reload", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			if err := reload(); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			fmt.Fprintf(w, "epoch %d\n", node.Epoch())
		})
		go func() { _ = http.Serve(sl, mux) }()
		log.Printf("aggserve: stats on http://%s/stats (Prometheus at /metrics, events at /metrics.json)", sl.Addr())
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("aggserve: listening on %s (g=%d cache=%d)", l.Addr(), *group, *capacity)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	sig := make(chan os.Signal, 4)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case s := <-sig:
			if s == syscall.SIGHUP {
				// Hot membership reload: re-read -peers-file in place.
				if err := reload(); err != nil {
					log.Printf("aggserve: reload: %v", err)
				}
				continue
			}
			log.Printf("aggserve: received %s, shutting down", s)
			if s == syscall.SIGTERM && node != nil {
				// Graceful exit: hand owned group state to the next
				// owners before closing, so a rolling restart stays warm.
				// SIGINT skips the drain for a fast local stop.
				if rep, err := node.Drain(srv); err != nil {
					if !errors.Is(err, cluster.ErrDraining) {
						log.Printf("aggserve: drain: %v", err)
					}
				} else {
					log.Printf("aggserve: drained: %d groups exported, %d sent, %d failed, %d skipped",
						rep.GroupsExported, rep.GroupsSent, rep.GroupsFailed, rep.GroupsSkipped)
				}
			}
			break loop
		case err := <-done:
			return fmt.Errorf("serve: %w", err)
		}
	}
	if *metadata != "" {
		if err := saveMetadata(srv, *metadata); err != nil {
			log.Printf("aggserve: save metadata: %v", err)
		} else {
			log.Printf("aggserve: saved relationship metadata to %s", *metadata)
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	log.Printf("aggserve: requests=%d errors=%d files-sent=%d validated=%d bytes-saved=%d shadow-resets=%d rejected=%d panics=%d disconnects=%d cache{%s}",
		st.Requests, st.Errors, st.FilesSent, st.ValidatedMembers, st.ValidatedBytesSaved, st.ShadowResets,
		st.Rejected, st.Panics, st.Disconnects, st.Cache.String())
	if node != nil {
		cs := node.Stats()
		log.Printf("aggserve: cluster local=%d forwarded=%d mirror-hits=%d coalesced=%d degraded=%d",
			cs.LocalOpens, cs.ForwardedOpens, cs.MirrorHits, cs.CoalescedForwards, cs.DegradedOpens)
	}
	return nil
}

// validatePeers checks the cluster configuration before any socket is
// bound: every peer address must be host:port shaped and the advertised
// self address must appear in the list verbatim. Ring placement compares
// addresses as strings, so "localhost:7071" versus "127.0.0.1:7071"
// would silently own disjoint key ranges — require an exact match.
func validatePeers(self string, peerList []string) error {
	if _, _, err := net.SplitHostPort(self); err != nil {
		return fmt.Errorf("invalid -self address %q: %w", self, err)
	}
	found := false
	for _, p := range peerList {
		if _, _, err := net.SplitHostPort(p); err != nil {
			return fmt.Errorf("invalid peer address %q: %w", p, err)
		}
		if p == self {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("self address %q is not in the peer list %v; every node must list itself (addresses are compared verbatim)", self, peerList)
	}
	return nil
}

// readPeersFile loads and parses a -peers-file.
func readPeersFile(path string) (epoch uint64, peerList []string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	epoch, peerList, err = cluster.ParsePeersFile(f)
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	return epoch, peerList, nil
}

// snapshot is the /stats JSON document: the full server counters
// (CoalescedStages and RemoteOpens included) plus, when clustering is
// on, the node's routing counters and per-peer breaker health.
type snapshot struct {
	// Epoch is the installed membership epoch, lifted to the top level
	// (0 when standalone) so fleet tooling polling for convergence can
	// key on one stable field.
	Epoch   uint64
	Server  fsnet.ServerStats
	Cluster *cluster.NodeStats `json:",omitempty"`
}

func statsSnapshot(srv *fsnet.Server, node *cluster.Node) snapshot {
	snap := snapshot{Server: srv.Stats()}
	if node != nil {
		cs := node.Stats()
		snap.Epoch = cs.Epoch
		snap.Cluster = &cs
	}
	return snap
}

// saveMetadata writes the server's learned state atomically (write to a
// temp file, then rename).
func saveMetadata(srv *fsnet.Server, path string) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = os.Remove(tmp)
		}
	}()
	if err = srv.SaveMetadata(f); err != nil {
		_ = f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// seedFromDir loads every regular file under root into the store, keyed by
// its path relative to root (with a leading slash).
func seedFromDir(store *fsnet.Store, root string) (int, error) {
	var n int
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if err := store.Put("/"+filepath.ToSlash(rel), data); err != nil {
			return err
		}
		n++
		return nil
	})
	return n, err
}
