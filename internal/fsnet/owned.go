package fsnet

import (
	"aggcache/internal/core"
	"aggcache/internal/ring"
	"aggcache/internal/trace"
)

// ownership is the core.Owner of a server with a view: the files this
// node owns on the ring its clients route by (ring.Of over the view's
// members, as Client.pullView builds it), so that Stage keeps only the
// files requests can demand of this node. A Ring.Owner call is a hash and
// a binary search, so each file's answer is kept for the view's epoch in a
// dense table indexed by FileID; the table starts over when the epoch
// moves. Guarded by the server's aggMu.
//
// A view that changes its members without moving its epoch (a same-epoch
// tie-break) is picked up at the next epoch; until then the node stages by
// the placement it had, which costs hits, never correctness.
type ownership struct {
	views ViewSource
	ids   *trace.SyncInterner

	epoch  uint64
	owners *ring.Ring // nil until the first staging
	// solo: the view is this node alone, which owns every file.
	solo bool
	// owned holds one answer per FileID: ownedUnknown until asked.
	owned []uint8
}

const (
	ownedUnknown uint8 = iota
	ownedYes
	ownedNo
)

// current returns the Owner for the installed view, or nil when the view
// is this node alone: staging is then what a server without a view does.
// Called with aggMu held.
func (o *ownership) current() core.Owner {
	if o.owners == nil || o.views.Epoch() != o.epoch {
		epoch, members := o.views.ViewSnapshot()
		o.epoch, o.owners = epoch, ring.Of(members...)
		o.solo = o.owners.Len() == 1 && o.owners.Has(o.views.Self())
		clear(o.owned)
	}
	if o.solo {
		return nil
	}
	return o
}

// Owns implements core.Owner.
func (o *ownership) Owns(id trace.FileID) bool {
	if int(id) >= len(o.owned) {
		o.owned = append(o.owned, make([]uint8, int(id)+1-len(o.owned))...)
	}
	if o.owned[id] == ownedUnknown {
		o.owned[id] = ownedNo
		if o.owners.Owner(o.ids.Path(id)) == o.views.Self() {
			o.owned[id] = ownedYes
		}
	}
	return o.owned[id] == ownedYes
}

// Members implements core.Owner.
func (o *ownership) Members() int { return o.owners.Len() }
