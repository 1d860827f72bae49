package fsnet

import (
	"aggcache/internal/core"
	"aggcache/internal/ring"
	"aggcache/internal/trace"
)

// ownership is the core.Owner of a server with a view: the files this
// node owns on the ring its clients route by (ring.Of over the view's
// members, as Client.pullView builds it), so that Stage keeps only the
// files requests can demand of this node, and the owner of each file it
// does not own, so that its deep build's other members go to their owners
// as stage hints (hint). A Ring.Owner call is a hash and a binary search,
// so each file's owner is kept for the view's epoch in a dense table
// indexed by FileID; the table starts over when the epoch moves. Guarded
// by the server's aggMu.
//
// A view that changes its members without moving its epoch (a same-epoch
// tie-break) is picked up at the next epoch; until then the node stages by
// the placement it had, which costs hits, never correctness.
type ownership struct {
	views ViewSource
	ids   *trace.SyncInterner

	epoch  uint64
	owners *ring.Ring // nil until the first staging
	// members are the view's members in ring order, and self this node's
	// index among them (-1: not a member).
	members []string
	self    int
	// solo: the view is this node alone, which owns every file.
	solo bool
	// owner holds one answer per FileID: the owner's index in members
	// plus one, or 0 until asked.
	owner []uint16

	// byOwner collects a hint's paths per member index, and touched the
	// indexes with paths (hint's scratch).
	byOwner [][]string
	touched []int
	// builds counts the deep builds hint was handed, and hinted holds,
	// per FileID, the build that last hinted the file to its owner (0:
	// none this epoch).
	builds uint64
	hinted []uint64
}

// hintRecent is how many builds a file hinted to its owner is not hinted
// again. A re-hint that soon nearly always finds the file still resident
// at its owner, where staging it does nothing: on cluster3 four in five
// hinted paths did. Skipping them cut the hint requests by a quarter and
// left server_miss_rate where it was; a window of 64 builds or more cost
// misses (DESIGN.md §3). Like StageDepth it is a rule, not an option.
const hintRecent = 16

// current returns the Owner for the installed view, or nil when the view
// is this node alone: staging is then what a server without a view does.
// Called with aggMu held.
func (o *ownership) current() core.Owner {
	if o.owners == nil || o.views.Epoch() != o.epoch {
		epoch, members := o.views.ViewSnapshot()
		o.epoch, o.owners = epoch, ring.Of(members...)
		o.members = o.owners.Members()
		o.self = -1
		for i, m := range o.members {
			if m == o.views.Self() {
				o.self = i
			}
		}
		o.solo = len(o.members) == 1 && o.self == 0
		clear(o.owner)
		clear(o.hinted)
		if len(o.byOwner) < len(o.members) {
			o.byOwner = make([][]string, len(o.members))
		}
	}
	if o.solo {
		return nil
	}
	return o
}

// ownerOf returns the index in members of id's owner.
func (o *ownership) ownerOf(id trace.FileID) int {
	if int(id) >= len(o.owner) {
		o.owner = append(o.owner, make([]uint16, int(id)+1-len(o.owner))...)
	}
	if o.owner[id] == 0 {
		owner := o.owners.Owner(o.ids.Path(id))
		for i, m := range o.members {
			if m == owner {
				o.owner[id] = uint16(i + 1)
			}
		}
	}
	return int(o.owner[id]) - 1
}

// Owns implements core.Owner.
func (o *ownership) Owns(id trace.FileID) bool { return o.self >= 0 && o.ownerOf(id) == o.self }

// Members implements core.Owner.
func (o *ownership) Members() int { return len(o.members) }

// hint hands the files of a deep build that this node does not own —
// core.AggregatingCache.Unowned, best prediction first — to the view
// source, one call per owner with that owner's paths in build order and
// keep, the probation bound they are staged under; a file hinted within
// the last hintRecent builds is left out. The paths slice is scratch,
// valid only during the call. Called with aggMu held, after current.
func (o *ownership) hint(ids []trace.FileID, keep int) {
	if len(ids) == 0 {
		return
	}
	o.builds++
	o.touched = o.touched[:0]
	for _, id := range ids {
		i := o.ownerOf(id)
		if i < 0 || i == o.self {
			continue
		}
		if int(id) >= len(o.hinted) {
			o.hinted = trace.GrowDense(o.hinted, id)
		}
		if last := o.hinted[id]; last != 0 && o.builds-last < hintRecent {
			continue
		}
		o.hinted[id] = o.builds
		if len(o.byOwner[i]) == 0 {
			o.touched = append(o.touched, i)
		}
		o.byOwner[i] = append(o.byOwner[i], o.ids.Path(id))
	}
	for _, i := range o.touched {
		o.views.PeerHints(o.members[i], o.byOwner[i], keep)
		clear(o.byOwner[i])
		o.byOwner[i] = o.byOwner[i][:0]
	}
}
