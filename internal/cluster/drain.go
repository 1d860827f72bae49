package cluster

import (
	"errors"
	"strconv"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
)

// ErrDraining reports that a drain has already begun; Drain runs at
// most once per node lifetime (a rejoin arrives as a new Update whose
// member list includes Self, which clears the draining flag — but the
// goodbye has gone out either way, so a second drain is an error, not a
// retry).
var ErrDraining = errors.New("cluster: node already draining")

// DrainReport summarizes one graceful drain.
type DrainReport struct {
	// Epoch is the view the drain ran against.
	Epoch uint64
	// Goodbye accounting: the self-less view's epoch, and how many peers
	// it was pushed to, failed at (the push reached the peer and then
	// failed), or was skipped for (breaker open, no longer in the view, or
	// no connection could be made — a peer that has already exited, as
	// when a whole fleet stops at once). Survivors that miss the goodbye
	// still converge by gossip from the peers that got it.
	GoodbyeEpoch   uint64
	GoodbyePushed  int
	GoodbyeFailed  int
	GoodbyeSkipped int
}

// Drain begins this node's graceful departure, a view change: the node
// stops reporting ready (so a load balancer rotates it out — that is how
// it stops accepting new ownership), and offers every reachable peer the
// view without it, one epoch ahead of the view it drained against, so
// the fleet converges on the departure with no operator reload. A new
// owner learns the moved paths' relationships from the histories its
// clients piggyback, as any owner does (paper §3).
//
// Drain deliberately leaves this node's own view intact: it keeps
// serving every open that still reaches it from its own store, which is
// always correct, and clients holding the old view keep sending it the
// paths it owned until they pull the new one. Gossip echoing the
// self-less view back at it is harmless. Callers typically trigger Drain
// from SIGTERM or an HTTP /drain endpoint, wait for it to return, and
// then shut the process down.
func (n *Node) Drain() (DrainReport, error) {
	if !n.draining.CompareAndSwap(false, true) {
		return DrainReport{}, ErrDraining
	}
	v := n.view.Load()
	rep := DrainReport{Epoch: v.epoch}
	n.events.Record("drain_start",
		obs.F("self", n.self),
		obs.F("epoch", strconv.FormatUint(v.epoch, 10)))

	var goodbye []string
	for _, m := range v.ring.Members() {
		if m != n.self {
			goodbye = append(goodbye, m)
		}
	}
	if len(goodbye) == 0 {
		return rep, nil
	}
	rep.GoodbyeEpoch = v.epoch + 1
	for _, target := range goodbye {
		_, err := n.ViewPushTo(target, rep.GoodbyeEpoch, goodbye)
		switch {
		case errors.Is(err, ErrPeerDown), errors.Is(err, ErrNotMember), errors.Is(err, fsnet.ErrUnreachable):
			rep.GoodbyeSkipped++
		case err != nil:
			rep.GoodbyeFailed++
		default:
			rep.GoodbyePushed++
		}
	}
	n.events.Record("drain_goodbye",
		obs.F("self", n.self),
		obs.F("epoch", strconv.FormatUint(rep.GoodbyeEpoch, 10)),
		obs.F("pushed", strconv.Itoa(rep.GoodbyePushed)),
		obs.F("failed", strconv.Itoa(rep.GoodbyeFailed)),
		obs.F("skipped", strconv.Itoa(rep.GoodbyeSkipped)))
	return rep, nil
}
