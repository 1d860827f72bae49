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
	// GroupSize is g, the best-effort retrieval group size. 1 degrades
	// to plain LRU.
	GroupSize int
	// SuccessorPolicy manages the per-file successor lists. The paper
	// uses and recommends LRU (§4.4).
	SuccessorPolicy successor.Policy
	// SuccessorCapacity bounds each per-file list. The paper shows a
	// handful of entries suffices; default 3.
	SuccessorCapacity int
	// Strategy selects group construction; default transitive chaining.
	Strategy group.Strategy
	// Placement selects member placement; default tail.
	Placement Placement
	// Adaptive lets the cache tune the group size online between
	// MinGroupSize and MaxGroupSize: when recent speculative fetches
	// are mostly used, g grows; when they are mostly wasted, g shrinks.
	// GroupSize is the starting point. This implements the paper's §6
	// future work on group construction ("forming groups of arbitrary
	// size").
	Adaptive bool
	// MinGroupSize and MaxGroupSize bound adaptation (defaults 1 and
	// 2x GroupSize).
	MinGroupSize int
	MaxGroupSize int
	// Obs, when set, registers hit/miss/prefetch/eviction counters and a
	// group-size distribution histogram with the given registry,
	// incremented alongside Stats. Nil (the simulator default) leaves the
	// access path with nothing but nil-check branches, preserving the
	// allocation-free hot path (DESIGN.md §9).
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
	if c.Adaptive {
		if c.MinGroupSize == 0 {
			c.MinGroupSize = 1
		}
		if c.MaxGroupSize == 0 {
			c.MaxGroupSize = 2 * c.GroupSize
		}
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
	if c.Adaptive {
		if c.MinGroupSize < 1 || c.MaxGroupSize < c.MinGroupSize {
			return fmt.Errorf("core: adaptive bounds [%d,%d] invalid", c.MinGroupSize, c.MaxGroupSize)
		}
		if c.GroupSize < c.MinGroupSize || c.GroupSize > c.MaxGroupSize {
			return fmt.Errorf("core: group size %d outside adaptive bounds [%d,%d]",
				c.GroupSize, c.MinGroupSize, c.MaxGroupSize)
		}
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
	// plus opportunistic members.
	FilesFetched uint64
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
	return fmt.Sprintf("hits=%d misses=%d group-fetches=%d files-fetched=%d prefetch-hits=%d hit-rate=%.3f",
		s.Hits, s.Misses, s.GroupFetches, s.FilesFetched, s.PrefetchHits, s.HitRate())
}

// PrefetchAccuracy is PrefetchHits over all opportunistically fetched
// files: how often a speculative group member was actually used.
func (s Stats) PrefetchAccuracy() float64 {
	speculative := s.FilesFetched - s.GroupFetches // exclude demanded files
	if speculative == 0 {
		return 0
	}
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

	// groupBuf is the reused per-miss group scratch: fetchGroup builds
	// into it via Builder.AppendBuild and consumes it immediately, so
	// the miss path performs no group allocation.
	groupBuf []trace.FileID

	// Adaptive group sizing state: stats snapshots at the last window
	// boundary.
	lastSpeculative uint64
	lastUsed        uint64
}

// Adaptation constants: every adaptWindow group fetches, the recent
// speculative-fetch accuracy decides whether g grows (above growAbove) or
// shrinks (below shrinkBelow).
const (
	adaptWindow = 64
	growAbove   = 0.55
	shrinkBelow = 0.25
)

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
	builder, err := group.NewBuilder(tracker, cfg.GroupSize, cfg.Strategy)
	if err != nil {
		return nil, err
	}
	c := &AggregatingCache{
		cfg:     cfg,
		lru:     lru,
		tracker: tracker,
		builder: builder,
		m:       newCoreMetrics(cfg.Obs),
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
	c.m.misses.Inc()
	c.fetchGroup(id)
	return false
}

// fetchGroup retrieves the group for id and installs it. The whole group
// transfers (the server makes a best-effort retrieval of g files); where
// its files land, and what makes room for them, is cache.GroupLRU's rule.
func (c *AggregatingCache) fetchGroup(id trace.FileID) {
	c.groupBuf = c.builder.AppendBuild(c.groupBuf[:0], id)
	g := c.groupBuf
	c.stats.GroupFetches++
	c.stats.FilesFetched += uint64(len(g))
	c.m.groupSize.Observe(uint64(len(g)))
	c.lru.Install(g, c.cfg.Placement == PlacementHead)
	c.stats.Evictions = c.lru.Evictions()
	if c.cfg.Adaptive && c.stats.GroupFetches%adaptWindow == 0 {
		c.adapt()
	}
}

// adapt tunes the group size from the last window's speculative-fetch
// accuracy.
func (c *AggregatingCache) adapt() {
	speculative := c.stats.FilesFetched - c.stats.GroupFetches
	used := c.stats.PrefetchHits
	dSpec := speculative - c.lastSpeculative
	dUsed := used - c.lastUsed
	c.lastSpeculative = speculative
	c.lastUsed = used
	if dSpec == 0 {
		// Nothing speculative happened (g == 1 or no metadata yet):
		// probe upward so a predictable workload can escape g == 1.
		c.growGroup()
		return
	}
	accuracy := float64(dUsed) / float64(dSpec)
	switch {
	case accuracy > growAbove:
		c.growGroup()
	case accuracy < shrinkBelow:
		c.shrinkGroup()
	}
}

func (c *AggregatingCache) growGroup() {
	if g := c.builder.Size(); g < c.cfg.MaxGroupSize {
		// SetSize cannot fail for g+1 >= 2.
		_ = c.builder.SetSize(g + 1)
	}
}

func (c *AggregatingCache) shrinkGroup() {
	if g := c.builder.Size(); g > c.cfg.MinGroupSize {
		_ = c.builder.SetSize(g - 1)
	}
}

// CurrentGroupSize returns the group size in effect (== GroupSize unless
// Adaptive).
func (c *AggregatingCache) CurrentGroupSize() int { return c.builder.Size() }

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

// BuildGroup returns the group that a demand miss on id would fetch right
// now, without touching cache state. Network servers use this to answer
// group retrievals.
func (c *AggregatingCache) BuildGroup(id trace.FileID) []trace.FileID {
	return c.builder.Build(id)
}

// AppendBuildGroup is BuildGroup into caller-owned storage: the group is
// appended to dst and the extended slice returned, so the server's open
// hot path reuses one scratch slice per request instead of allocating a
// group per miss.
func (c *AggregatingCache) AppendBuildGroup(dst []trace.FileID, id trace.FileID) []trace.FileID {
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
// the configured ones; the group size in effect is kept.
func (c *AggregatingCache) LoadMetadata(r io.Reader) error {
	t, err := successor.LoadTracker(r)
	if err != nil {
		return err
	}
	b, err := group.NewBuilder(t, c.builder.Size(), c.cfg.Strategy)
	if err != nil {
		return err
	}
	c.tracker = t
	c.builder = b
	return nil
}
