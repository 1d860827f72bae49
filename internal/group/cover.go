package group

import (
	"slices"

	"aggcache/internal/successor"
	"aggcache/internal/trace"
)

// Cover is an overlapping covering set of groups over the relationship
// graph: every file that appears in the tracker belongs to at least one
// group, and popular files may appear in many (§2.1 explicitly rejects
// disjoint partitions because shared files like a shell executable belong
// to several working sets).
type Cover struct {
	Groups [][]trace.FileID
}

// BuildCover computes a minimal-covering-set style grouping: seed files are
// considered in decreasing access-count order (hot files first, as in
// placement optimization); any file not yet covered seeds a new group built
// by the Builder's strategy, and group members may already be covered —
// that is the permitted overlap.
func BuildCover(t *successor.Tracker, b *Builder, files []trace.FileID) *Cover {
	// Deduplicate and sort seeds hot first (Tracker.CompareHeat).
	uniq := make(map[trace.FileID]bool, len(files))
	seeds := make([]trace.FileID, 0, len(files))
	for _, id := range files {
		if !uniq[id] {
			uniq[id] = true
			seeds = append(seeds, id)
		}
	}
	slices.SortFunc(seeds, t.CompareHeat)

	covered := make(map[trace.FileID]bool, len(seeds))
	var c Cover
	for _, id := range seeds {
		if covered[id] {
			continue
		}
		g := b.Build(id)
		for _, m := range g {
			covered[m] = true
		}
		c.Groups = append(c.Groups, g)
	}
	return &c
}

// Covers reports whether id is a member of at least one group.
func (c *Cover) Covers(id trace.FileID) bool {
	for _, g := range c.Groups {
		for _, m := range g {
			if m == id {
				return true
			}
		}
	}
	return false
}

// Members returns the total membership count across groups (>= the number
// of distinct files when groups overlap).
func (c *Cover) Members() int {
	var n int
	for _, g := range c.Groups {
		n += len(g)
	}
	return n
}

// OverlapFactor is total membership over distinct files: 1.0 means the
// cover is a partition, larger values quantify replication of shared files.
func (c *Cover) OverlapFactor() float64 {
	distinct := make(map[trace.FileID]bool)
	for _, g := range c.Groups {
		for _, m := range g {
			distinct[m] = true
		}
	}
	if len(distinct) == 0 {
		return 0
	}
	return float64(c.Members()) / float64(len(distinct))
}

// CoverStats quantifies a cover's storage footprint — the analysis the
// paper's §6 asks for ("the effects of group formation on storage
// requirements"): when groups drive *placement*, every extra membership
// of a shared file is a physical replica.
type CoverStats struct {
	// Groups is the number of groups in the cover.
	Groups int
	// Distinct is the number of distinct files covered.
	Distinct int
	// Members is total membership (>= Distinct under overlap).
	Members int
	// Replicas is Members - Distinct: the extra storage grouping costs
	// when placed physically.
	Replicas int
	// MaxMemberships is the largest number of groups any single file
	// belongs to (the hub files of §2.1).
	MaxMemberships int
	// MeanGroupLen is the average achieved group length (<= the target
	// g when metadata runs short).
	MeanGroupLen float64
}

// Stats computes the cover's storage accounting.
func (c *Cover) Stats() CoverStats {
	st := CoverStats{Groups: len(c.Groups)}
	memberships := make(map[trace.FileID]int)
	for _, g := range c.Groups {
		st.Members += len(g)
		for _, m := range g {
			memberships[m]++
		}
	}
	st.Distinct = len(memberships)
	st.Replicas = st.Members - st.Distinct
	for _, n := range memberships {
		if n > st.MaxMemberships {
			st.MaxMemberships = n
		}
	}
	if st.Groups > 0 {
		st.MeanGroupLen = float64(st.Members) / float64(st.Groups)
	}
	return st
}
