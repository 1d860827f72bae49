package prefetch

import (
	"fmt"

	"aggcache/internal/cache"
	"aggcache/internal/trace"
)

// Stats counts a prefetching cache's activity. Unlike the aggregating
// cache — where one miss costs exactly one (group) request — an explicit
// prefetcher issues a separate request per predicted file, so its load on
// the server is DemandFetches + PrefetchFetches.
type Stats struct {
	Hits            uint64
	Misses          uint64
	PrefetchFetches uint64
	// PrefetchHits counts demand hits served by a prefetched file that
	// had not been demanded since arriving.
	PrefetchHits uint64
	Evictions    uint64
}

// DemandFetches is the number of demand-driven requests (== Misses).
func (s Stats) DemandFetches() uint64 { return s.Misses }

// TotalRequests is the total load placed on the remote server.
func (s Stats) TotalRequests() uint64 { return s.Misses + s.PrefetchFetches }

// HitRate returns demand hits over demand accesses.
func (s Stats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Accuracy is PrefetchHits over PrefetchFetches.
func (s Stats) Accuracy() float64 {
	if s.PrefetchFetches == 0 {
		return 0
	}
	return float64(s.PrefetchHits) / float64(s.PrefetchFetches)
}

// PrefetchingCache is a classic prefetching client cache: an LRU cache
// plus a Predictor; after every demand access it issues explicit prefetch
// requests for the predictor's suggestions. Prefetched files are placed by
// the very rule the aggregating cache uses (cache.GroupLRU: tail
// placement, the batch protected from its own evictions) so the
// comparison isolates *how* data is brought in, not where it is placed.
type PrefetchingCache struct {
	depth     int
	lru       *cache.GroupLRU
	predictor Predictor
	batch     []trace.FileID // reused [current, predictions...] scratch
	stats     Stats
}

// NewPrefetchingCache builds a prefetching cache of the given capacity
// that asks predictor for up to depth suggestions per access.
func NewPrefetchingCache(capacity, depth int, predictor Predictor) (*PrefetchingCache, error) {
	if predictor == nil {
		return nil, fmt.Errorf("prefetch: predictor must not be nil")
	}
	if depth < 0 {
		return nil, fmt.Errorf("prefetch: depth must be >= 0, got %d", depth)
	}
	lru, err := cache.NewGroupLRU(capacity)
	if err != nil {
		return nil, err
	}
	return &PrefetchingCache{depth: depth, lru: lru, predictor: predictor}, nil
}

// Access processes a demand open, then prefetches.
func (c *PrefetchingCache) Access(id trace.FileID) bool {
	c.predictor.Observe(id)
	c.batch = append(c.batch[:0], id)
	hit, speculative := c.lru.Demand(id)
	if hit {
		c.stats.Hits++
		if speculative {
			c.stats.PrefetchHits++
		}
	} else {
		c.stats.Misses++
		c.lru.Install(c.batch, false) // the demand fetch: a one-file group
	}
	// Explicit fetches for the predictor's suggestions that are not
	// already resident, installed as a group led by the file just
	// demanded: it is resident, so only the predictions can enter, none of
	// them at its expense or each other's, and when only the batch's own
	// files remain the deeper (less likely) predictions are dropped.
	if c.depth > 0 {
		c.batch = append(c.batch, c.predictor.Predict(c.depth)...)
		c.stats.PrefetchFetches += uint64(c.lru.Install(c.batch, false))
	}
	return hit
}

// Contains reports residency without changing state.
func (c *PrefetchingCache) Contains(id trace.FileID) bool { return c.lru.Contains(id) }

// Len returns the number of resident files.
func (c *PrefetchingCache) Len() int { return c.lru.Len() }

// Cap returns the capacity in files.
func (c *PrefetchingCache) Cap() int { return c.lru.Cap() }

// Stats returns a copy of the statistics.
func (c *PrefetchingCache) Stats() Stats {
	s := c.stats
	s.Evictions = c.lru.Evictions()
	return s
}
