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
	// times GroupSize deep, of which a client behind ClientGroup receives
	// the first GroupSize: the network server's deep build without its
	// re-stage on a hit and with its members at the LRU tail.
	SchemeDeep Scheme = "deep"
	// SchemeStaged is the network server's own rule, driven through
	// core.AggregatingCache.ServeFrom and Stage: answered with the group
	// GroupSize deep, then the deep build staged, on a hit as on a miss,
	// its members on the server cache's probation list.
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
	// GroupSize applies to the grouping schemes, and to the replies a
	// client behind ClientGroup receives; default 5 (the paper's g5).
	GroupSize int
	// Piggyback sends each miss with the opens the client served since its
	// last one, for the server's metadata to learn (§3's cooperative
	// mode). Without it the server learns only the filtered miss stream,
	// the §4.3 "no cooperation" assumption.
	Piggyback bool
	// Filter selects the client cache; "" is ClientLRU. Every scheme runs
	// behind either.
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
	// a miss for LRU or LFU). Counted behind ClientGroup only.
	Loads uint64
}

// RunServer simulates the Figure-4 scenario with one client: every open
// goes to the client cache first; its misses form the server's request
// stream. It is RunServerMulti's replay of one client's opens.
func RunServer(ids []trace.FileID, cfg ServerConfig) (ServerResult, error) {
	var r replay
	if err := r.srv.init(cfg); err != nil {
		return ServerResult{}, err
	}
	var c client
	if err := r.join(&c); err != nil {
		return ServerResult{}, err
	}
	for _, id := range ids {
		r.open(&c, 0, id)
	}
	return r.result(), nil
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

// MultiServerResult is a two-level run of many clients.
type MultiServerResult struct {
	ServerResult
	// Clients is the number of distinct clients simulated.
	Clients int
}

// RunServerMulti simulates the Figure-4 scenario with the multi-client
// reality restored: each client has its own cache of FilterCapacity, and
// the shared server learns with one metadata context per client (the
// §2.2 choice), so interleaved clients cannot manufacture bogus
// transitions. Events that are not opens are ignored.
func RunServerMulti(events []trace.Event, cfg ServerConfig) (MultiServerResult, error) {
	var r replay
	if err := r.srv.init(cfg); err != nil {
		return MultiServerResult{}, err
	}
	var clients []*client // indexed by client id
	for _, ev := range events {
		if ev.Op != trace.OpOpen {
			continue
		}
		if int(ev.Client) >= len(clients) {
			clients = append(clients, make([]*client, int(ev.Client)+1-len(clients))...)
		}
		if clients[ev.Client] == nil {
			clients[ev.Client] = new(client)
			if err := r.join(clients[ev.Client]); err != nil {
				return MultiServerResult{}, err
			}
		}
		r.open(clients[ev.Client], uint64(ev.Client), ev.File)
	}
	return MultiServerResult{ServerResult: r.result(), Clients: r.clients}, nil
}

// replay is one two-level run: its clients' caches in front of one
// server. A client's miss is a request that carries its history and ends
// with the demanded file; the server learns it, with the client as the
// source, when it arrives, as a network server does, and behind
// ClientGroup the client installs the reply.
type replay struct {
	srv     server
	res     ServerResult
	clients int
}

// client is a client's cache — an LRU behind ClientLRU, a GroupLRU behind
// ClientGroup — and, with Piggyback, the opens it served since its miss.
type client struct {
	lru     *cache.LRU
	group   *cache.GroupLRU
	history []trace.FileID
}

// join gives client c its cache.
func (r *replay) join(c *client) (err error) {
	if r.srv.replies {
		c.group, err = cache.NewGroupLRU(r.srv.cfg.FilterCapacity)
	} else {
		c.lru, err = cache.NewLRU(r.srv.cfg.FilterCapacity)
	}
	if err != nil {
		return fmt.Errorf("server sim: client filter: %w", err)
	}
	r.clients++
	return nil
}

// open replays one open by client c, the server's source src.
func (r *replay) open(c *client, src uint64, id trace.FileID) {
	r.res.Opens++
	hit := c.lru != nil && c.lru.Access(id)
	if c.group != nil {
		hit, _ = c.group.Demand(id)
	}
	if hit {
		if r.srv.cfg.Piggyback {
			c.history = append(c.history, id)
		}
		return
	}
	r.res.ClientMisses++
	var reply []trace.FileID
	if len(c.history) == 0 {
		one := [1]trace.FileID{id} // on the stack: a bare request costs no buffer
		reply, hit = r.srv.serve(src, one[:])
	} else {
		seq := append(c.history, id)
		c.history = seq[:0]
		reply, hit = r.srv.serve(src, seq)
	}
	if hit {
		r.res.ServerHits++
	}
	if c.group != nil {
		c.group.Install(reply, false)
	}
}

func (r *replay) result() ServerResult {
	res := r.res
	res.Config = r.srv.cfg
	if res.ClientMisses > 0 {
		res.HitRate = float64(res.ServerHits) / float64(res.ClientMisses)
	}
	if r.srv.replies {
		res.Loads = res.ClientMisses - res.ServerHits // a plain cache loads what it missed
		if r.srv.agg != nil {
			res.Loads = r.srv.agg.Stats().Loads
		}
	}
	return res
}

// server is a scheme's server cache: a plain LRU or LFU cache, or an
// aggregating one. Behind ClientGroup (replies) it answers each request
// with the demanded file's group, GroupSize deep — a plain cache builds
// it with a tracker and builder of the aggregating cache's rules, so only
// the server cache differs between the schemes — and every scheme cuts
// weak links at core.LinkShare, as the network server does.
type server struct {
	cfg     ServerConfig
	replies bool
	plain   cache.Cache
	tracker *successor.Tracker
	builder *group.Builder
	agg     *core.AggregatingCache
	reply   []trace.FileID
}

func (s *server) init(cfg ServerConfig) (err error) {
	if cfg.GroupSize == 0 {
		cfg.GroupSize = 5
	}
	s.cfg, s.replies = cfg, cfg.Filter == ClientGroup
	var share float64
	if s.replies {
		share = core.LinkShare
	}
	switch {
	case cfg.Filter != "" && cfg.Filter != ClientLRU && !s.replies:
		err = fmt.Errorf("unknown filter %q", cfg.Filter)
	case cfg.Scheme == SchemeLRU || cfg.Scheme == SchemeLFU:
		s.plain, err = cache.New(cache.Policy(cfg.Scheme), cfg.ServerCapacity)
		if err == nil && s.replies {
			if s.tracker, err = successor.NewTracker(successor.PolicyLRU, 3); err == nil {
				s.builder, err = group.NewCutBuilder(s.tracker, cfg.GroupSize, group.StrategyChain, share)
			}
		}
	case cfg.Scheme == SchemeAggregating || cfg.Scheme == SchemeDeep || cfg.Scheme == SchemeStaged:
		depth := cfg.GroupSize
		if cfg.Scheme == SchemeDeep {
			depth *= core.StageDepth
		}
		s.agg, err = core.New(core.Config{Capacity: cfg.ServerCapacity, GroupSize: depth, LinkShare: share})
	default:
		err = fmt.Errorf("unknown scheme %q", cfg.Scheme)
	}
	if err != nil {
		return fmt.Errorf("server sim: %w", err)
	}
	return nil
}

// serve answers one request from source src — seq is its history, ending
// with the demanded file — with the reply, nil unless replies, and
// whether the server cache hit.
func (s *server) serve(src uint64, seq []trace.FileID) ([]trace.FileID, bool) {
	id := seq[len(seq)-1]
	switch {
	case s.plain != nil:
		if s.replies {
			s.tracker.ObserveFrom(src, seq...)
			s.reply = s.builder.AppendBuild(s.reply[:0], id)
		}
		return s.reply, s.plain.Access(id)
	case s.cfg.Scheme == SchemeStaged:
		var hit, owed bool
		s.reply, hit, owed = s.agg.ServeFrom(s.reply[:0], src, seq)
		s.agg.Stage(src, seq, s.reply, hit, owed, nil)
		return s.reply, hit
	}
	s.agg.LearnFrom(src, seq...)
	if s.replies {
		s.reply = s.agg.AppendGroup(s.reply[:0], id)
		s.reply = s.reply[:min(len(s.reply), s.cfg.GroupSize)]
	}
	return s.reply, s.agg.Serve(id)
}
