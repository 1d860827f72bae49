package cluster

import (
	"errors"
	"strconv"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
	"aggcache/internal/ring"
)

// ErrDraining reports that a drain has already begun; Drain runs at
// most once per node lifetime (a rejoin arrives as a new Update whose
// member list includes Self, which clears the draining flag — but the
// handed-off state is gone either way, so a second drain is an error,
// not a retry).
var ErrDraining = errors.New("cluster: node already draining")

// GroupSource exports a server's learned group state for a drain.
// *fsnet.Server implements it.
type GroupSource interface {
	// ExportGroups returns every group anchored at a path accepted by
	// owned, each as its anchor plus learned members in group order.
	ExportGroups(owned func(path string) bool) []fsnet.HandoffGroup
}

// DrainReport summarizes one graceful drain.
type DrainReport struct {
	// Epoch is the view the drain ran against.
	Epoch uint64
	// GroupsExported is how many owned groups had learned state to move.
	GroupsExported int
	// GroupsSent reached their new owners; GroupsFailed hit a transport
	// or server error; GroupsSkipped had no reachable new owner (the
	// target peer's breaker was open, or the ring was empty without us).
	GroupsSent    int
	GroupsFailed  int
	GroupsSkipped int
	// PerPeer counts delivered groups by receiving peer address.
	PerPeer map[string]int
	// Goodbye accounting: the self-less view's epoch, and how many peers
	// it was pushed to, failed to reach, or was skipped for (breaker
	// open). Survivors that miss the goodbye still converge by gossip
	// from the peers that got it.
	GoodbyeEpoch   uint64
	GoodbyePushed  int
	GoodbyeFailed  int
	GoodbyeSkipped int
}

// Drain begins this node's graceful departure: the node stops reporting
// ready (so a load balancer rotates it out — that is how it stops
// accepting new ownership), exports every group it owns from src, and
// streams each — anchor plus learned successor members — to the peer
// that owns it once this node is gone, so the new owners serve the
// moved paths warm the moment the fleet's membership updates land.
//
// Drain deliberately leaves this node's own view intact: it keeps
// serving every open that still reaches it from its own store, which is
// always correct, and clients holding the old view keep sending it the
// paths it owned until they pull the new one. Peers exclude the
// drained node on their own schedule via their next Update. Callers
// typically trigger Drain from SIGTERM or an HTTP /drain endpoint, wait
// for it to return, and then shut the process down.
func (n *Node) Drain(src GroupSource) (DrainReport, error) {
	if !n.draining.CompareAndSwap(false, true) {
		return DrainReport{}, ErrDraining
	}
	v := n.view.Load()
	rep := DrainReport{Epoch: v.epoch, PerPeer: make(map[string]int)}
	n.events.Record("drain_start",
		obs.F("self", n.self),
		obs.F("epoch", strconv.FormatUint(v.epoch, 10)))

	// The ring as it will be without us decides where each group goes.
	rest := ring.New(0)
	for _, m := range v.ring.Members() {
		if m != n.self {
			rest.Add(m)
		}
	}

	// Goodbye push: offer every reachable peer the view without us, one
	// epoch ahead of the view we drained against, so the fleet converges
	// on our departure with no operator reload. This runs before the
	// handoffs: a survivor that installs the goodbye early serves the
	// moved paths cold until its handoff lands, which is correct either
	// way. Our own view deliberately stays intact (see above); gossip
	// echoing the self-less view back at us is harmless — we keep
	// serving locally whatever the shrunk ring no longer sends us.
	if rest.Len() > 0 {
		rep.GoodbyeEpoch = v.epoch + 1
		goodbye := rest.Members()
		for _, target := range goodbye {
			p := v.peers[target]
			if p == nil || !p.admit() {
				rep.GoodbyeSkipped++
				continue
			}
			_, err := p.client.ViewPush(rep.GoodbyeEpoch, goodbye)
			p.noteOutcome(err)
			if err != nil {
				rep.GoodbyeFailed++
				continue
			}
			rep.GoodbyePushed++
		}
		n.events.Record("drain_goodbye",
			obs.F("self", n.self),
			obs.F("epoch", strconv.FormatUint(rep.GoodbyeEpoch, 10)),
			obs.F("pushed", strconv.Itoa(rep.GoodbyePushed)))
	}

	if rest.Len() > 0 && src != nil {
		groups := src.ExportGroups(func(path string) bool {
			return v.ring.Owner(path) == n.self
		})
		rep.GroupsExported = len(groups)
		for _, g := range groups {
			target := rest.Owner(g.Anchor)
			p := v.peers[target]
			if p == nil || !p.admit() {
				rep.GroupsSkipped++
				continue
			}
			err := p.client.Handoff(g.Anchor, g.Members)
			p.noteOutcome(err)
			if err != nil {
				rep.GroupsFailed++
				n.drainFailed.Add(1)
				continue
			}
			rep.GroupsSent++
			rep.PerPeer[target]++
			n.drainSent.Add(1)
		}
	}

	n.events.Record("drain_done",
		obs.F("self", n.self),
		obs.F("sent", strconv.Itoa(rep.GroupsSent)),
		obs.F("failed", strconv.Itoa(rep.GroupsFailed)),
		obs.F("skipped", strconv.Itoa(rep.GroupsSkipped)))
	return rep, nil
}
