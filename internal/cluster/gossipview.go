package cluster

import (
	"errors"
	"fmt"

	"aggcache/internal/fsnet"
)

// This file makes *Node an fsnet.ViewSource and gives the gossip tier
// (internal/gossip) its two verbs — pull a peer's view, push ours — on
// top of the node's existing peer clients and breakers. The transport
// never imports cluster; it sees only the ViewSource interface, and the
// gossiper drives ViewPullFrom/ViewPushTo from outside both packages.

var _ fsnet.ViewSource = (*Node)(nil)

// ErrPeerDown reports a view exchange refused locally because the target
// peer's breaker is open. Anti-entropy treats it like any other failed
// round: pick another peer next tick; the breaker's own probe schedule
// decides when this one is worth retrying.
var ErrPeerDown = errors.New("cluster: peer breaker open")

// ErrNotMember reports a view exchange refused locally because the
// target is not a peer in the installed view.
var ErrNotMember = errors.New("cluster: not a peer in the installed view")

// ViewSnapshot implements fsnet.ViewSource: the installed epoch and
// member list from one view load, so the pair is always consistent.
func (n *Node) ViewSnapshot() (epoch uint64, members []string) {
	v := n.view.Load()
	return v.epoch, v.ring.Members()
}

// ApplyView implements fsnet.ViewSource by delegating to Update. A stale
// epoch is the normal outcome of symmetric gossip — both sides offer,
// the newer one wins — so it reports applied=false with a nil error;
// a non-nil error means the view itself was invalid.
func (n *Node) ApplyView(epoch uint64, members []string) (applied bool, err error) {
	switch err := n.Update(epoch, members); {
	case err == nil:
		return true, nil
	case errors.Is(err, ErrStaleView):
		return false, nil
	default:
		return false, err
	}
}

// ViewPullFrom asks the peer at addr for its view and installs it if it
// is newer than ours. It reports whether a view was installed and the
// peer's (possibly older) epoch, which the caller uses to decide a
// push-back. Only members of the installed view are asked, over their
// peer client and breaker; any other address is refused with
// ErrNotMember (a gossip round that raced an Update picks again next
// round).
func (n *Node) ViewPullFrom(addr string) (applied bool, remoteEpoch uint64, err error) {
	if addr == n.self {
		return false, n.Epoch(), nil
	}
	p, err := n.admitPeer(addr)
	if err != nil {
		return false, 0, err
	}
	epoch, members, err := p.client.ViewPull()
	p.noteOutcome(err)
	if err != nil {
		return false, 0, err
	}
	// Every peer replies with its full view, so divergent same-epoch views
	// tiebreak on content hash. An older view (the caller pushes ours
	// back) or one identical to ours (the steady state of every
	// anti-entropy round) skips Update rather than count a stale
	// rejection per round.
	if cur := n.view.Load(); epoch < cur.epoch || epoch == cur.epoch && viewHash(members) == cur.hash {
		return false, epoch, nil
	}
	applied, err = n.ApplyView(epoch, members)
	return applied, epoch, err
}

// ViewPushTo offers the given view to the peer at addr and returns the
// epoch the peer reports holding afterwards (our epoch if it installed
// the push, a higher one if it was already newer). Peer selection and
// breaker handling mirror ViewPullFrom.
func (n *Node) ViewPushTo(addr string, epoch uint64, members []string) (remoteEpoch uint64, err error) {
	if addr == n.self {
		return n.Epoch(), nil
	}
	p, err := n.admitPeer(addr)
	if err != nil {
		return 0, err
	}
	remoteEpoch, err = p.client.ViewPush(epoch, members)
	p.noteOutcome(err)
	if err != nil {
		return 0, err
	}
	return remoteEpoch, nil
}

// admitPeer returns the installed view's peer at addr if its breaker
// admits an exchange.
func (n *Node) admitPeer(addr string) (*peer, error) {
	p := n.view.Load().peers[addr]
	switch {
	case p == nil:
		return nil, fmt.Errorf("%w: %s", ErrNotMember, addr)
	case !p.admit():
		return nil, fmt.Errorf("%w: %s", ErrPeerDown, addr)
	}
	return p, nil
}
