package simulate

import (
	"fmt"
	"time"

	"aggcache/internal/cache"
	"aggcache/internal/core"
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
)

// ServerConfig parameterizes a two-level simulation: a client LRU cache of
// FilterCapacity in front of a server cache of ServerCapacity.
type ServerConfig struct {
	FilterCapacity int
	ServerCapacity int
	Scheme         Scheme
	// GroupSize applies to SchemeAggregating; default 5 (the paper's
	// g5 configuration).
	GroupSize int
	// Piggyback, for SchemeAggregating, forwards the client's full
	// access stream to the server's metadata (§3's cooperative mode).
	// Without it the server learns only from the filtered miss stream,
	// the §4.3 "no cooperation" assumption.
	Piggyback bool
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
}

// RunServer simulates the Figure-4 scenario: every open goes to the client
// LRU first; its misses form the server's request stream.
func RunServer(ids []trace.FileID, cfg ServerConfig) (ServerResult, error) {
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 5
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
