// Package cache provides the whole-file cache simulators the paper's
// experiments are built on: LRU and LFU (the baselines of Figure 4), plus
// ARC (Megiddo & Modha 2003), the strongest online demand-only policy of
// the extension bake-off, and Belady's OPT as the offline bound.
//
// Caches here model whole-file caching driven by open requests, exactly as
// in the paper's evaluation: an Access is a demand reference that counts a
// hit or a miss and inserts the file on a miss.
//
// LRU, GroupLRU, LFU and ARC (four LRUs) find a file by indexing a table
// with its FileID, so besides a node slab bounded by capacity each holds
// memory proportional to the largest FileID it has inserted: 4 bytes per
// id, up to 1.5 x (largest id + 1). FileIDs are dense (trace.FileID),
// which keeps that near the number of distinct files seen. A cache holds
// at most math.MaxInt32 files.
package cache

import (
	"fmt"

	"aggcache/internal/trace"
)

// Cache is a fixed-capacity whole-file cache simulator.
type Cache interface {
	// Access records a demand reference to id. On a miss the file is
	// inserted (evicting per policy if full). Reports whether the
	// reference hit.
	Access(id trace.FileID) bool
	// Contains reports whether id is resident without perturbing any
	// replacement state or statistics.
	Contains(id trace.FileID) bool
	// Len returns the number of resident files.
	Len() int
	// Cap returns the capacity in files.
	Cap() int
	// Stats returns a copy of the access statistics so far.
	Stats() Stats
}

// Stats counts the demand activity of a cache.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Accesses returns the number of demand references.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns hits over accesses, or 0 for an idle cache.
func (s Stats) HitRate() float64 {
	if n := s.Accesses(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d hit-rate=%.3f",
		s.Hits, s.Misses, s.Evictions, s.HitRate())
}

// Policy names a replacement policy for construction by tools and sweeps.
type Policy string

// Replacement policies available from New.
const (
	PolicyLRU Policy = "lru"
	PolicyLFU Policy = "lfu"
	PolicyARC Policy = "arc"
)

// Policies lists every policy New builds, in the order tables report them.
var Policies = []Policy{PolicyLRU, PolicyLFU, PolicyARC}

// New constructs a cache of the given policy and capacity. OPT is excluded
// because it needs the future reference string; build it with NewOPT.
func New(p Policy, capacity int) (Cache, error) {
	switch p {
	case PolicyLRU:
		return NewLRU(capacity)
	case PolicyLFU:
		return NewLFU(capacity)
	case PolicyARC:
		return NewARC(capacity)
	default:
		return nil, fmt.Errorf("cache: unknown policy %q", p)
	}
}

func checkCapacity(capacity int) error {
	if capacity <= 0 {
		return fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	return nil
}
