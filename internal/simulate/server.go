package simulate

import (
	"fmt"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/group"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

// Scheme selects the server-side cache management policy compared in
// Figure 4.
type Scheme string

// Server cache schemes.
const (
	// SchemeLRU is a plain LRU server cache.
	SchemeLRU Scheme = "lru"
	// SchemeLFU is a plain LFU server cache.
	SchemeLFU Scheme = "lfu"
	// SchemeAggregating is the paper's grouping server cache (labelled
	// g5 in Figure 4 when GroupSize is 5).
	SchemeAggregating Scheme = "agg"
	// SchemeDeep is SchemeAggregating with groups built core.StageDepth
	// times GroupSize deep, of which a client behind ClientGroup
	// receives the first GroupSize: the network server's deep build without its
	// re-stage on a hit.
	SchemeDeep Scheme = "deep"
	// SchemeStaged is the network server's own rule, driven through
	// core.AggregatingCache.ServeFrom and Stage: answered with the group
	// GroupSize deep, then the deep build installed, on a hit as on a
	// miss.
	SchemeStaged Scheme = "staged"
)

// Filter selects the client cache in front of the server.
type Filter string

// Client filters.
const (
	// ClientLRU, the default, is §4.3's intervening client cache: a plain
	// LRU that keeps only what it demanded. Figure 4's filter.
	ClientLRU Filter = "lru"
	// ClientGroup is the service's own client (fsnet.Client): a
	// cache.GroupLRU per client that installs the group the server
	// answers each of its misses with.
	ClientGroup Filter = "group"
)

// ServerConfig parameterizes a two-level simulation: a client cache of
// FilterCapacity in front of a server cache of ServerCapacity.
type ServerConfig struct {
	FilterCapacity int
	ServerCapacity int
	Scheme         Scheme
	// GroupSize applies to the grouping schemes, and to the replies a client
	// behind ClientGroup receives; default 5 (the paper's g5
	// configuration).
	GroupSize int
	// Piggyback, for the grouping schemes, forwards the client's full
	// access stream to the server's metadata (§3's cooperative mode).
	// Without it the server learns only from the filtered miss stream,
	// the §4.3 "no cooperation" assumption.
	Piggyback bool
	// Filter selects the client cache; "" is ClientLRU. SchemeDeep and
	// SchemeStaged run behind ClientGroup only, and behind ClientGroup
	// every server cuts weak links at core.LinkShare, as the network
	// server does.
	Filter Filter
}

// ServerResult summarizes a two-level run.
type ServerResult struct {
	Config ServerConfig
	// Opens is how many opens were replayed through the client filter.
	Opens uint64
	// ClientMisses is how many requests reached the server.
	ClientMisses uint64
	// ServerHits and HitRate describe the server cache: HitRate is the
	// paper's Figure-4 y-axis.
	ServerHits uint64
	HitRate    float64
	// Loads counts files that entered the server cache (core.Stats.Loads;
	// a miss for LRU). Counted behind ClientGroup only.
	Loads uint64
}

// RunServer simulates the Figure-4 scenario: every open goes to the client
// cache first; its misses form the server's request stream.
func RunServer(ids []trace.FileID, cfg ServerConfig) (ServerResult, error) {
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 5
	}
	if cfg.Filter == ClientGroup {
		h, err := runGroupFilter(cfg, func(open func(uint16, trace.FileID)) {
			for _, id := range ids {
				open(0, id)
			}
		})
		if err != nil {
			return ServerResult{}, err
		}
		return ServerResult{Config: cfg, Opens: h.opens, ClientMisses: h.misses,
			ServerHits: h.hits, HitRate: h.hitRate(), Loads: h.loads}, nil
	}
	if err := cfg.lruFilter(); err != nil {
		return ServerResult{}, err
	}
	client, err := cache.NewLRU(cfg.FilterCapacity)
	if err != nil {
		return ServerResult{}, fmt.Errorf("server sim: client filter: %w", err)
	}

	res := ServerResult{Config: cfg, Opens: uint64(len(ids))}
	switch cfg.Scheme {
	case SchemeLRU, SchemeLFU:
		srv, err := cache.New(cache.Policy(cfg.Scheme), cfg.ServerCapacity)
		if err != nil {
			return ServerResult{}, fmt.Errorf("server sim: %w", err)
		}
		for _, id := range ids {
			if client.Access(id) {
				continue
			}
			res.ClientMisses++
			if srv.Access(id) {
				res.ServerHits++
			}
		}
	case SchemeAggregating:
		srv, err := core.New(core.Config{Capacity: cfg.ServerCapacity, GroupSize: cfg.GroupSize})
		if err != nil {
			return ServerResult{}, fmt.Errorf("server sim: %w", err)
		}
		for _, id := range ids {
			if cfg.Piggyback {
				srv.Learn(id)
			}
			if client.Access(id) {
				continue
			}
			res.ClientMisses++
			if !cfg.Piggyback {
				srv.Learn(id)
			}
			if srv.Serve(id) {
				res.ServerHits++
			}
		}
	default:
		return ServerResult{}, fmt.Errorf("server sim: unknown scheme %q", cfg.Scheme)
	}

	if res.ClientMisses > 0 {
		res.HitRate = float64(res.ServerHits) / float64(res.ClientMisses)
	}
	return res, nil
}

// The §4.3 hierarchy's prices: what an open costs at the level that
// serves it. Pass them to MeanLatency.
const (
	ClientHitLatency    = 100 * time.Microsecond
	ServerHitLatency    = 2 * time.Millisecond
	BackendFetchLatency = 12 * time.Millisecond
)

// MeanLatency prices the run as §4.3's hierarchy: an open the client
// filter serves costs client, a server hit costs server and an open both
// levels miss costs backend. It is the summed cost over Opens, in integer
// nanoseconds.
func (r ServerResult) MeanLatency(client, server, backend time.Duration) time.Duration {
	if r.Opens == 0 {
		return 0
	}
	total := time.Duration(r.Opens-r.ClientMisses)*client +
		time.Duration(r.ServerHits)*server +
		time.Duration(r.ClientMisses-r.ServerHits)*backend
	return total / time.Duration(r.Opens)
}

// ServerSweep runs RunServer across filter capacities for each scheme,
// returning results[i][j] for schemes[i] x filters[j] — one Figure-4
// panel. Like ClientSweep, cells fan out as opt says, share only the
// read-only open sequence and land in pre-sized grid slots by index, so
// the result is bit-identical to a sequential sweep.
func ServerSweep(ids []trace.FileID, schemes []ServerConfig, filters []int, opt Options) ([][]ServerResult, error) {
	out := make([][]ServerResult, len(schemes))
	for i := range out {
		out[i] = make([]ServerResult, len(filters))
	}
	nf := len(filters)
	err := ForEach(len(schemes)*nf, opt, func(cell int) error {
		i, j := cell/nf, cell%nf
		cfg := schemes[i]
		cfg.FilterCapacity = filters[j]
		r, err := RunServer(ids, cfg)
		if err != nil {
			return err
		}
		out[i][j] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MultiServerResult extends ServerResult with per-client accounting.
type MultiServerResult struct {
	Config ServerConfig
	// Clients is the number of distinct clients simulated.
	Clients int
	// ClientMisses is the total number of requests reaching the server.
	ClientMisses uint64
	// ServerHits and HitRate describe the shared server cache.
	ServerHits uint64
	HitRate    float64
	// Opens and Loads are ServerResult's, counted behind ClientGroup only.
	Opens uint64
	Loads uint64
}

// RunServerMulti simulates the Figure-4 scenario with the multi-client
// reality restored: each client has its own LRU cache of FilterCapacity,
// and the shared server learns with one metadata context per client (the
// §2.2 choice), so interleaved clients cannot manufacture bogus
// transitions. Events that are not opens are ignored.
func RunServerMulti(events []trace.Event, cfg ServerConfig) (MultiServerResult, error) {
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 5
	}
	if cfg.Filter == ClientGroup {
		h, err := runGroupFilter(cfg, func(open func(uint16, trace.FileID)) {
			for _, ev := range events {
				if ev.Op == trace.OpOpen {
					open(ev.Client, ev.File)
				}
			}
		})
		if err != nil {
			return MultiServerResult{}, err
		}
		return MultiServerResult{Config: cfg, Clients: h.clients, ClientMisses: h.misses,
			ServerHits: h.hits, HitRate: h.hitRate(), Opens: h.opens, Loads: h.loads}, nil
	}
	if err := cfg.lruFilter(); err != nil {
		return MultiServerResult{}, err
	}
	if cfg.Scheme != SchemeAggregating {
		return MultiServerResult{}, fmt.Errorf("server sim: multi-client mode supports only the aggregating scheme, got %q", cfg.Scheme)
	}
	srv, err := core.New(core.Config{Capacity: cfg.ServerCapacity, GroupSize: cfg.GroupSize})
	if err != nil {
		return MultiServerResult{}, fmt.Errorf("server sim: %w", err)
	}

	res := MultiServerResult{Config: cfg}
	filters := make(map[uint16]*cache.LRU)
	for _, ev := range events {
		if ev.Op != trace.OpOpen {
			continue
		}
		client, ok := filters[ev.Client]
		if !ok {
			client, err = cache.NewLRU(cfg.FilterCapacity)
			if err != nil {
				return MultiServerResult{}, fmt.Errorf("server sim: client filter: %w", err)
			}
			filters[ev.Client] = client
		}
		if cfg.Piggyback {
			srv.LearnFrom(uint64(ev.Client), ev.File)
		}
		if client.Access(ev.File) {
			continue
		}
		res.ClientMisses++
		if !cfg.Piggyback {
			srv.LearnFrom(uint64(ev.Client), ev.File)
		}
		if srv.Serve(ev.File) {
			res.ServerHits++
		}
	}
	res.Clients = len(filters)
	if res.ClientMisses > 0 {
		res.HitRate = float64(res.ServerHits) / float64(res.ClientMisses)
	}
	return res, nil
}

// lruFilter rejects what cannot run behind ClientLRU.
func (cfg ServerConfig) lruFilter() error {
	switch {
	case cfg.Filter != "" && cfg.Filter != ClientLRU:
		return fmt.Errorf("server sim: unknown filter %q", cfg.Filter)
	case cfg.Scheme == SchemeDeep || cfg.Scheme == SchemeStaged:
		return fmt.Errorf("server sim: scheme %q runs behind the %q filter only", cfg.Scheme, ClientGroup)
	}
	return nil
}

// hierarchy is what runGroupFilter counts.
type hierarchy struct {
	opens, misses, hits, loads uint64
	clients                    int
}

func (h hierarchy) hitRate() float64 {
	if h.misses == 0 {
		return 0
	}
	return float64(h.hits) / float64(h.misses)
}

// groupClient is one client behind ClientGroup: its cache and, with Piggyback,
// the opens it has made since its last request to the server.
type groupClient struct {
	lru     *cache.GroupLRU
	history []trace.FileID
}

// runGroupFilter is the service's shape: replay calls open for every open,
// in trace order, with the client that made it; each client's GroupLRU
// serves what it holds and installs the server's reply to each of its
// misses. The server learns each request's history and demanded file
// with the client as the source, when the request arrives, as a network
// server does; without Piggyback the history is empty. A grouping scheme
// replies with the group its metadata builds (its first GroupSize members
// for SchemeDeep and SchemeStaged); an LRU server replies with the
// group a tracker and builder of the same rules build from what it has
// learned, so only the server cache differs between the schemes.
func runGroupFilter(cfg ServerConfig, replay func(open func(client uint16, id trace.FileID))) (hierarchy, error) {
	var h hierarchy
	serve, agg, err := groupServer(cfg)
	if err != nil {
		return h, err
	}
	clients := make(map[uint16]*groupClient)
	var seq []trace.FileID
	replay(func(client uint16, id trace.FileID) {
		if err != nil {
			return
		}
		h.opens++
		c, ok := clients[client]
		if !ok {
			lru, nerr := cache.NewGroupLRU(cfg.FilterCapacity)
			if nerr != nil {
				err = fmt.Errorf("server sim: client filter: %w", nerr)
				return
			}
			c = &groupClient{lru: lru}
			clients[client] = c
		}
		if hit, _ := c.lru.Demand(id); hit {
			if cfg.Piggyback {
				c.history = append(c.history, id)
			}
			return
		}
		h.misses++
		seq = append(append(seq[:0], c.history...), id)
		c.history = c.history[:0]
		reply, hit := serve(uint64(client), seq)
		if hit {
			h.hits++
		}
		c.lru.Install(reply, false)
	})
	h.clients = len(clients)
	if agg != nil {
		h.loads = agg.Stats().Loads
	} else {
		h.loads = h.misses - h.hits // an LRU server loads what it missed
	}
	return h, err
}

// groupServer builds cfg's server behind ClientGroup: serve answers one
// request — seq is its history, ending with the demanded file — with the
// reply a client installs and whether the server cache hit. agg is the
// server cache of a grouping scheme, nil for LRU.
func groupServer(cfg ServerConfig) (serve func(src uint64, seq []trace.FileID) ([]trace.FileID, bool), agg *core.AggregatingCache, err error) {
	g := cfg.GroupSize
	var reply []trace.FileID
	switch cfg.Scheme {
	case SchemeLRU:
		srv, err := cache.NewLRU(cfg.ServerCapacity)
		if err != nil {
			return nil, nil, fmt.Errorf("server sim: %w", err)
		}
		tracker, err := successor.NewTracker(successor.PolicyLRU, 3)
		if err != nil {
			return nil, nil, fmt.Errorf("server sim: %w", err)
		}
		b, err := group.NewCutBuilder(tracker, g, group.StrategyChain, core.LinkShare)
		if err != nil {
			return nil, nil, fmt.Errorf("server sim: %w", err)
		}
		return func(src uint64, seq []trace.FileID) ([]trace.FileID, bool) {
			tracker.ObserveFrom(src, seq...)
			reply = b.AppendBuild(reply[:0], seq[len(seq)-1])
			return reply, srv.Access(seq[len(seq)-1])
		}, nil, nil
	case SchemeAggregating, SchemeDeep, SchemeStaged:
		depth := g
		if cfg.Scheme == SchemeDeep {
			depth = core.StageDepth * g
		}
		srv, err := core.New(core.Config{Capacity: cfg.ServerCapacity, GroupSize: depth, LinkShare: core.LinkShare})
		if err != nil {
			return nil, nil, fmt.Errorf("server sim: %w", err)
		}
		if cfg.Scheme == SchemeStaged {
			return func(src uint64, seq []trace.FileID) ([]trace.FileID, bool) {
				var hit, owed bool
				reply, hit, owed = srv.ServeFrom(reply[:0], src, seq)
				srv.Stage(src, seq, hit, owed)
				return reply, hit
			}, srv, nil
		}
		return func(src uint64, seq []trace.FileID) ([]trace.FileID, bool) {
			id := seq[len(seq)-1]
			srv.LearnFrom(src, seq...)
			built := srv.BuildGroup(id)
			return built[:min(len(built), g)], srv.Serve(id)
		}, srv, nil
	}
	return nil, nil, fmt.Errorf("server sim: scheme %q does not run behind the %q filter", cfg.Scheme, ClientGroup)
}
