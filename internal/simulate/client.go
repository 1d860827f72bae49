// Package simulate drives traces through cache configurations: the
// single-level client simulations of Figure 3, the two-level
// filter-then-server simulations of Figure 4, and the LRU filtering used
// by the entropy study of Figure 8.
package simulate

import (
	"fmt"

	"aggcache/internal/cache"
	"aggcache/internal/core"
	"aggcache/internal/trace"
)

// ClientResult is one cell of the Figure-3 sweep: an aggregating client
// cache of a given capacity and group size run over an open sequence.
type ClientResult struct {
	Capacity  int
	GroupSize int
	// Fetches is the number of demand fetches the client sent to the
	// remote server — the paper's y-axis, proportional to miss rate.
	Fetches uint64
	// HitRate is demand hits over accesses.
	HitRate float64
	// Stats is the full aggregating-cache accounting.
	Stats core.Stats
}

// RunClient simulates an aggregating client cache over the open sequence.
// GroupSize 1 is plain LRU.
func RunClient(ids []trace.FileID, capacity, groupSize int) (ClientResult, error) {
	return RunClientConfig(ids, core.Config{Capacity: capacity, GroupSize: groupSize})
}

// RunClientConfig is RunClient for any aggregating-cache configuration,
// such as one that cuts weak links.
func RunClientConfig(ids []trace.FileID, cfg core.Config) (ClientResult, error) {
	agg, err := core.New(cfg)
	if err != nil {
		return ClientResult{}, fmt.Errorf("client sim: %w", err)
	}
	for _, id := range ids {
		agg.Access(id)
	}
	s := agg.Stats()
	return ClientResult{
		Capacity:  cfg.Capacity,
		GroupSize: agg.GroupSize(),
		Fetches:   s.DemandFetches(),
		HitRate:   s.HitRate(),
		Stats:     s,
	}, nil
}

// ClientSweep runs RunClient for every (groupSize, capacity) pair,
// returning results[i][j] for groupSizes[i] x capacities[j] — the exact
// grid behind each Figure-3 panel. The grid cells are independent
// simulations sharing only the read-only open sequence, so opt fans them
// out (ForEach); each cell stays single-threaded internally and writes
// its result into a pre-sized slot by index, keeping the grid
// bit-identical to a sequential sweep.
func ClientSweep(ids []trace.FileID, groupSizes, capacities []int, opt Options) ([][]ClientResult, error) {
	out := make([][]ClientResult, len(groupSizes))
	for i := range out {
		out[i] = make([]ClientResult, len(capacities))
	}
	nc := len(capacities)
	err := ForEach(len(groupSizes)*nc, opt, func(cell int) error {
		i, j := cell/nc, cell%nc
		r, err := RunClient(ids, capacities[j], groupSizes[i])
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

// FilterLRU returns the miss stream of an LRU cache of the given capacity
// — the workload an NFS-like server sees after an intervening client cache
// (§4.3), and the input to the filtered-entropy study of Figure 8.
func FilterLRU(ids []trace.FileID, capacity int) ([]trace.FileID, error) {
	c, err := cache.NewLRU(capacity)
	if err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	var misses []trace.FileID
	for _, id := range ids {
		if !c.Access(id) {
			misses = append(misses, id)
		}
	}
	return misses, nil
}
