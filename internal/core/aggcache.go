// Package core implements the paper's primary contribution: the
// aggregating cache (§3). On every demand miss it fetches a *group* of
// files — the demanded file plus a best-effort chain of its most-likely
// transitive successors — and places the demanded file at the head of an
// LRU list with the remaining group members appended at the tail, so
// unconfirmed successors never outrank confirmed residents. Successor
// metadata is learned online from the access sequence the cache observes
// (or, in the piggybacked server deployment, from a stream the client
// forwards).
package core

import (
	"fmt"
	"io"

	"aggcache/internal/cache"
	"aggcache/internal/group"
	"aggcache/internal/obs"
	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

// Placement says where non-demanded group members enter the LRU list.
type Placement int

// Group-member placements.
const (
	// PlacementTail appends fetched members at the LRU tail — the
	// paper's design: an unconfirmed successor is the next victim.
	PlacementTail Placement = iota + 1
	// PlacementHead inserts members at the MRU head, the aggressive
	// variant the paper argues against; kept for the ablation bench.
	PlacementHead
)

// Config parameterizes an aggregating cache.
type Config struct {
	// Capacity is the cache size in whole files.
	Capacity int
	// GroupSize is g, the best-effort retrieval group size — a cap when
	// LinkShare cuts. 1 degrades to plain LRU.
	GroupSize int
	// SuccessorPolicy manages the per-file successor lists. The paper
	// uses and recommends LRU (§4.4).
	SuccessorPolicy successor.Policy
	// SuccessorCapacity bounds each per-file list. The paper shows a
	// handful of entries suffices; default 3.
	SuccessorCapacity int
	// Strategy selects group construction; default transitive chaining.
	Strategy group.Strategy
	// Placement selects where Serve places members; default tail. Stage
	// always places them on the probation list.
	Placement Placement
	// LinkShare cuts weak links: a successor joins a group only when its
	// count is more than LinkShare of the counts its predecessor's list
	// retains, so GroupSize becomes a cap (group.NewCutBuilder). 0, the
	// default, cuts nothing — the paper's rule, which every simulator
	// figure runs; the network server runs the constant LinkShare.
	LinkShare float64
	// Obs, when set, registers hit/miss/prefetch/eviction counters and a
	// group-size distribution histogram with the given registry,
	// incremented alongside Stats. Nil (the simulator default) leaves the
	// access path with nothing but nil-check branches, preserving the
	// allocation-free hot path (DESIGN.md §8).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.GroupSize == 0 {
		c.GroupSize = 5
	}
	if c.SuccessorPolicy == "" {
		c.SuccessorPolicy = successor.PolicyLRU
	}
	if c.SuccessorCapacity == 0 {
		c.SuccessorCapacity = 3
	}
	if c.Strategy == 0 {
		c.Strategy = group.StrategyChain
	}
	if c.Placement == 0 {
		c.Placement = PlacementTail
	}
	return c
}

func (c Config) validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("core: capacity must be positive, got %d", c.Capacity)
	}
	if c.GroupSize < 1 {
		return fmt.Errorf("core: group size must be >= 1, got %d", c.GroupSize)
	}
	if c.Placement != PlacementTail && c.Placement != PlacementHead {
		return fmt.Errorf("core: unknown placement %d", c.Placement)
	}
	return nil
}

// Stats counts aggregating-cache activity. Demand fetches equal Misses:
// every miss triggers exactly one (group) request to the remote store, so
// the fetch count the paper plots in Figure 3 is the miss count.
type Stats struct {
	// Hits and Misses count demand accesses.
	Hits   uint64
	Misses uint64
	// GroupFetches counts remote retrieval operations (== Misses).
	GroupFetches uint64
	// FilesFetched is the total number of files transferred, demanded
	// plus opportunistic members: on a server, the members of each missed
	// group it staged (Stage), which may be more than it replied with.
	FilesFetched uint64
	// Loads counts files that entered the cache: the demanded file on a
	// miss and every group member that was not already resident, on a
	// miss or, in Stage, on the re-stage of a hit. It is what the cache's
	// placement costs its backing store. On a server, FilesFetched and
	// Loads move when a request is staged, after its demand is counted.
	Loads uint64
	// PrefetchHits counts demand hits served by a file that entered the
	// cache as a non-demanded group member and had not been demanded
	// since — the grouping win.
	PrefetchHits uint64
	// PrefetchedEvicted counts group members evicted without ever being
	// demanded — the pollution cost.
	PrefetchedEvicted uint64
	// Evictions counts all capacity evictions.
	Evictions uint64
}

// DemandFetches is the paper's Figure-3 metric: requests sent to the
// remote server.
func (s Stats) DemandFetches() uint64 { return s.Misses }

// HitRate returns demand hits over demand accesses.
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d group-fetches=%d files-fetched=%d loads=%d prefetch-hits=%d hit-rate=%.3f",
		s.Hits, s.Misses, s.GroupFetches, s.FilesFetched, s.Loads, s.PrefetchHits, s.HitRate())
}

// PrefetchAccuracy is PrefetchHits over all opportunistically fetched
// files: how often a speculative group member was actually used.
func (s Stats) PrefetchAccuracy() float64 {
	// A server's misses not yet staged count a fetch and no files.
	if s.FilesFetched <= s.GroupFetches {
		return 0
	}
	speculative := s.FilesFetched - s.GroupFetches // exclude demanded files
	return float64(s.PrefetchHits) / float64(speculative)
}

// AggregatingCache is the paper's grouping cache. It is not safe for
// concurrent use; network deployments (fsnet) serialize access.
type AggregatingCache struct {
	cfg     Config
	lru     *cache.GroupLRU // residency and the §3 placement rule
	tracker *successor.Tracker
	builder *group.Builder
	stats   Stats
	m       coreMetrics
	// probation is the bound Stage keeps its members' probation list
	// to (ProbationGroups).
	probation int

	// groupBuf is the reused per-miss group scratch: Serve builds into
	// it via Builder.AppendBuild and installs it at once, so the miss
	// path performs no group allocation.
	groupBuf []trace.FileID
}

// New builds an aggregating cache from cfg, applying documented defaults
// for zero-valued fields.
func New(cfg Config) (*AggregatingCache, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lru, err := cache.NewGroupLRU(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	tracker, err := successor.NewTracker(cfg.SuccessorPolicy, cfg.SuccessorCapacity)
	if err != nil {
		return nil, err
	}
	builder, err := group.NewCutBuilder(tracker, cfg.GroupSize, cfg.Strategy, cfg.LinkShare)
	if err != nil {
		return nil, err
	}
	c := &AggregatingCache{
		cfg:       cfg,
		lru:       lru,
		tracker:   tracker,
		builder:   builder,
		m:         newCoreMetrics(cfg.Obs),
		probation: min(ProbationGroups*StageDepth*cfg.GroupSize, cfg.Capacity/2),
	}
	lru.OnEvict(c.evicted)
	return c, nil
}

// coreMetrics mirrors the cache counters into an obs registry. All nil
// without a registry, so the uninstrumented access path pays only
// nil-check branches and stays allocation-free.
type coreMetrics struct {
	hits         *obs.Counter
	misses       *obs.Counter
	prefetchHits *obs.Counter
	evictions    *obs.Counter
	loads        *obs.Counter
	groupSize    *obs.Histogram
}

func newCoreMetrics(reg *obs.Registry) coreMetrics {
	if reg == nil {
		return coreMetrics{}
	}
	return coreMetrics{
		hits:         reg.Counter("core_cache_hits_total", "demand accesses served from the cache"),
		misses:       reg.Counter("core_cache_misses_total", "demand accesses that triggered a group fetch"),
		prefetchHits: reg.Counter("core_cache_prefetch_hits_total", "demand hits on files that arrived as non-demanded group members"),
		evictions:    reg.Counter("core_cache_evictions_total", "capacity evictions"),
		loads:        reg.Counter("core_cache_loads_total", "files that entered the cache, demanded or staged"),
		groupSize:    reg.Histogram("core_group_size", "files per fetched group, demanded file included"),
	}
}

// Access processes a demand open for id: metadata learns the access, then
// the cache serves it, fetching a group on a miss. Reports hit.
func (c *AggregatingCache) Access(id trace.FileID) bool {
	c.Learn(id)
	return c.Serve(id)
}

// Learn feeds one access into the successor metadata without touching the
// cache. Server deployments call this with the piggybacked client stream
// (§3) and Serve with the misses that reach the server.
func (c *AggregatingCache) Learn(id trace.FileID) {
	c.tracker.Observe(id)
}

// LearnFrom feeds accesses attributed to a source context (e.g. a client
// connection), oldest first, so transitions are only recorded within that
// source's own stream. A request's whole history is one call. See
// successor.Tracker.ObserveFrom.
func (c *AggregatingCache) LearnFrom(src uint64, ids ...trace.FileID) {
	c.tracker.ObserveFrom(src, ids...)
}

// Serve performs the caching half of an access: hit bookkeeping or a group
// fetch. Callers that also Learn the same stream should use Access.
func (c *AggregatingCache) Serve(id trace.FileID) bool {
	if c.demand(id) {
		return true
	}
	c.groupBuf = c.builder.AppendBuild(c.groupBuf[:0], id)
	c.count(c.groupBuf, c.lru.Install(c.groupBuf, c.cfg.Placement == PlacementHead), false)
	return false
}

// StageDepth is how many replies deep Stage stages: it builds the
// demanded file's group to StageDepth × GroupSize members and keeps them
// all, while ServeFrom answers with the first GroupSize. Like the link cut
// it is a rule, not an option. Behind a client that installs every reply,
// the server's copy of the reply itself serves nobody until the client
// has dropped it; the members after it are what that client will ask for
// next (DESIGN.md §3).
const StageDepth = 2

// ProbationGroups is how many staged groups, StageDepth × GroupSize
// files each, the server cache's probation list keeps before its oldest
// member is the first to go (cache.GroupLRU.Stage), capped at half the
// capacity. At the LRU tail, where the paper's rule puts a group's
// members, the next staging — often another connection's — evicted a
// continuation before its client asked for it. Like StageDepth it is a
// rule, not an option; DESIGN.md §3 has the sweep behind the value.
const ProbationGroups = 3

// LinkShare is the link cut every network server builds its groups with
// (Config.LinkShare): a successor joins a group only when it took more
// than a third of its predecessor's retained successions, so a group stops
// where prediction stops and GroupSize is a cap. DESIGN.md §3 has the
// measurements behind the value.
const LinkShare = 1.0 / 3

// ServeFrom answers a request to a server that answers every open with
// its group and learns from the history its client piggybacks (§3). seq
// is the request's piggybacked history, oldest first, ending with the
// demanded file. ServeFrom counts the demand, appends the reply — the
// demanded file's group, GroupSize deep — to dst and returns the extended
// slice with the hit. It installs nothing: the caller must Stage the
// request before it serves any next request, whatever its source — the
// sequence of ServeFrom and Stage calls is then the sequential replay
// the simulator runs.
//
// The group is built from the metadata as it stands, so the reply need
// not wait for the learning. Learning seq adds successors to the lists of
// the source's last learned access and of every entry of seq but the
// last, and a build reads only its members' lists: unless one of those
// files is a member, learning first would have built the same group, and
// ServeFrom reports owed — Stage learns seq. Otherwise ServeFrom learns
// seq, rebuilds, and owes nothing.
func (c *AggregatingCache) ServeFrom(dst []trace.FileID, src uint64, seq []trace.FileID) (_ []trace.FileID, hit, owed bool) {
	id := seq[len(seq)-1]
	hit = c.demand(id)
	start := len(dst)
	dst = c.builder.AppendBuild(dst, id)
	if c.learningChanges(src, seq[:len(seq)-1]) {
		c.LearnFrom(src, seq...)
		dst = c.builder.AppendBuild(dst[:start], id)
	} else {
		owed = true
	}
	return dst, hit, owed
}

// Owner is what a cache on one node of a ring knows of the ring: the
// files it owns, which are the only ones requests routed by the ring can
// demand of it, and how many members share the files.
type Owner interface {
	// Owns reports whether this node owns id.
	Owns(id trace.FileID) bool
	// Members is the number of members the files are spread over; Stage
	// counts fewer than one as one.
	Members() int
}

// Stage finishes a request ServeFrom answered, with the seq, reply, hit
// and owed of that call: it learns seq if ServeFrom left it owed, extends
// the reply to the demanded file's group StageDepth deep and stages the
// whole build — on a miss as the fetch, on a hit as a re-stage that
// fetches nothing — with its members on the probation list
// (cache.GroupLRU.Stage). A build reads only its members' lists, and
// learning seq changed none of the reply's, so the reply is the learned
// deep build's prefix and the build resumes from it
// (group.Builder.ResumeN). Together the two calls leave the cache as
// learning seq, counting the demand and staging the deep build would; a
// server runs Stage after the reply is on the wire. reply is read-only
// and not retained.
//
// On a node of a ring, own filters what is staged: the demanded file and
// only the members the node owns, since no request for another node's
// file reaches it, on a probation list that keeps its meaning of
// ProbationGroups staged groups — its bound divided by own.Members(),
// rounded up (Probation; DESIGN.md §3). A nil own stages the whole build
// under the whole bound.
func (c *AggregatingCache) Stage(src uint64, seq, reply []trace.FileID, hit, owed bool, own Owner) {
	if owed {
		c.LearnFrom(src, seq...)
	}
	c.groupBuf = c.builder.ResumeN(append(c.groupBuf[:0], reply...), StageDepth*c.cfg.GroupSize)
	if own != nil {
		owned := c.groupBuf[:1]
		for _, m := range c.groupBuf[1:] {
			if own.Owns(m) {
				owned = append(owned, m)
			}
		}
		c.groupBuf = owned
	}
	c.count(c.groupBuf, c.lru.Stage(c.groupBuf, c.Probation(own)), hit)
}

// Probation returns the bound Stage keeps the probation list to:
// ProbationGroups staged groups of StageDepth × GroupSize files, capped
// at half the capacity — and, on a node that stages only the files it
// owns, that node's share of them, ⌈bound / own.Members()⌉.
func (c *AggregatingCache) Probation(own Owner) int {
	if own == nil {
		return c.probation
	}
	n := max(own.Members(), 1)
	return (c.probation + n - 1) / n
}

// learningChanges reports whether learning src's accesses before the
// demanded file, preceding, could change the group just built: whether
// the source's last learned access or one of preceding is a member.
func (c *AggregatingCache) learningChanges(src uint64, preceding []trace.FileID) bool {
	if last, ok := c.tracker.Last(src); ok && c.builder.DependsOn(last) {
		return true
	}
	for _, id := range preceding {
		if c.builder.DependsOn(id) {
			return true
		}
	}
	return false
}

// demand counts one demand access to id as a hit or a miss, which is the
// group fetch, and reports the hit.
func (c *AggregatingCache) demand(id trace.FileID) bool {
	if hit, speculative := c.lru.Demand(id); hit {
		c.stats.Hits++
		c.m.hits.Inc()
		if speculative {
			c.stats.PrefetchHits++
			c.m.prefetchHits.Inc()
		}
		return true
	}
	c.stats.Misses++
	c.stats.GroupFetches++
	c.m.misses.Inc()
	return false
}

// count books group g, led by the demanded file, once cache.GroupLRU has
// placed it and admitted that many of its members. After a miss it
// completes the fetch: the whole group transfers (the server makes a
// best-effort retrieval of g files) and the demanded file enters. After a
// hit it is a re-stage, which fetches nothing: only the members not yet
// resident entered, and they count as loads all the same.
func (c *AggregatingCache) count(g []trace.FileID, admitted int, hit bool) {
	loads := uint64(admitted)
	if !hit {
		c.stats.FilesFetched += uint64(len(g))
		c.m.groupSize.Observe(uint64(len(g)))
		loads++
	}
	c.stats.Loads += loads
	c.m.loads.Add(loads)
	c.stats.Evictions = c.lru.Evictions()
}

// evicted is the eviction hook: it counts wasted speculation.
func (c *AggregatingCache) evicted(_ trace.FileID, speculative bool) {
	c.m.evictions.Inc()
	if speculative {
		c.stats.PrefetchedEvicted++
	}
}

// Contains reports residency without changing any state.
func (c *AggregatingCache) Contains(id trace.FileID) bool { return c.lru.Contains(id) }

// Len returns the number of resident files.
func (c *AggregatingCache) Len() int { return c.lru.Len() }

// Cap returns the capacity in files.
func (c *AggregatingCache) Cap() int { return c.cfg.Capacity }

// GroupSize returns the configured g.
func (c *AggregatingCache) GroupSize() int { return c.cfg.GroupSize }

// Stats returns a copy of the statistics, with Evictions refreshed from
// the underlying list.
func (c *AggregatingCache) Stats() Stats {
	s := c.stats
	s.Evictions = c.lru.Evictions()
	return s
}

// Tracker exposes the successor metadata (read-mostly: building graphs,
// inspecting predictions). The tracker is live; do not mutate concurrently
// with Access.
func (c *AggregatingCache) Tracker() *successor.Tracker { return c.tracker }

// AppendGroup appends to dst the group that a demand miss on id would
// fetch right now, without touching cache state, and returns the
// extended slice.
func (c *AggregatingCache) AppendGroup(dst []trace.FileID, id trace.FileID) []trace.FileID {
	return c.builder.AppendBuild(dst, id)
}

// SaveMetadata persists the successor metadata (the paper keeps the
// server's relationship information non-volatile; §5). Cache contents and
// statistics are deliberately not saved — they are cheap to rebuild.
func (c *AggregatingCache) SaveMetadata(w io.Writer) error {
	return c.tracker.Save(w)
}

// LoadMetadata replaces the successor metadata with a snapshot written by
// SaveMetadata. The snapshot's successor policy and capacity supersede
// the configured ones; the group size in effect is kept. files bounds the
// file ids the snapshot may name, as successor.LoadTracker's does; a
// rejected snapshot leaves the metadata as it was.
func (c *AggregatingCache) LoadMetadata(r io.Reader, files int) error {
	t, err := successor.LoadTracker(r, files)
	if err != nil {
		return err
	}
	b, err := group.NewCutBuilder(t, c.cfg.GroupSize, c.cfg.Strategy, c.cfg.LinkShare)
	if err != nil {
		return err
	}
	c.tracker = t
	c.builder = b
	return nil
}
