package cluster

import (
	"errors"
	"fmt"
	"net"

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

// OnViewHint registers the callback invoked for every view-epoch hint
// the transport observes (piggybacked frames and pull/push replies).
// The gossiper registers itself here to turn hints into pulls. fn runs
// on connection reader goroutines: it must not block, and in particular
// must not dial — hand off to a background worker instead. At most one
// callback is active; a later registration replaces the earlier one.
func (n *Node) OnViewHint(fn func(addr string, epoch uint64)) {
	if fn == nil {
		n.viewHint.Store(nil)
		return
	}
	n.viewHint.Store(&fn)
}

// NoteViewEpoch implements fsnet.ViewSource by forwarding the hint to
// the registered OnViewHint callback, if any.
func (n *Node) NoteViewEpoch(addr string, epoch uint64) {
	if fn := n.viewHint.Load(); fn != nil {
		(*fn)(addr, epoch)
	}
}

// ViewPullFrom asks the peer at addr for its view and installs it if it
// is newer than ours. It reports whether a view was installed and the
// peer's (possibly older) epoch, which the caller uses to decide a
// push-back. Peers in the current view reuse their existing client and
// feed their breaker; an address outside the view (a hinted sender we
// do not list yet) gets a transient client, closed after the exchange.
func (n *Node) ViewPullFrom(addr string) (applied bool, remoteEpoch uint64, err error) {
	if addr == n.self {
		return false, n.Epoch(), nil
	}
	if p := n.view.Load().peers[addr]; p != nil {
		if !p.admit() {
			return false, 0, fmt.Errorf("%w: %s", ErrPeerDown, addr)
		}
		epoch, members, err := p.client.ViewPull()
		p.noteOutcome(err)
		if err != nil {
			return false, 0, err
		}
		return n.installPulled(epoch, members)
	}
	client, err := n.transientClient(addr)
	if err != nil {
		return false, 0, err
	}
	defer client.Close()
	epoch, members, err := client.ViewPull()
	if err != nil {
		return false, 0, err
	}
	return n.installPulled(epoch, members)
}

// installPulled is the tail of ViewPullFrom: a nil member list means the
// responder was not newer and answered with a bare epoch hint. Peers at
// our epoch reply with their full view (so divergent same-epoch views
// tiebreak on content hash); when the pulled view is byte-identical to
// ours — the steady state of every anti-entropy round — skip Update
// entirely rather than count a stale rejection per round.
func (n *Node) installPulled(epoch uint64, members []string) (bool, uint64, error) {
	if members == nil {
		return false, epoch, nil
	}
	if cur := n.view.Load(); epoch == cur.epoch && viewHash(members) == cur.hash {
		return false, epoch, nil
	}
	applied, err := n.ApplyView(epoch, members)
	return applied, epoch, err
}

// ViewPushTo offers the given view to the peer at addr and returns the
// epoch the peer reports holding afterwards (our epoch if it installed
// the push, a higher one if it was already newer). Breaker handling
// mirrors ViewPullFrom.
func (n *Node) ViewPushTo(addr string, epoch uint64, members []string) (remoteEpoch uint64, err error) {
	if addr == n.self {
		return n.Epoch(), nil
	}
	if p := n.view.Load().peers[addr]; p != nil {
		if !p.admit() {
			return 0, fmt.Errorf("%w: %s", ErrPeerDown, addr)
		}
		remoteEpoch, err = p.client.ViewPush(epoch, members)
		p.noteOutcome(err)
		if err != nil {
			return 0, err
		}
		return remoteEpoch, nil
	}
	client, err := n.transientClient(addr)
	if err != nil {
		return 0, err
	}
	defer client.Close()
	return client.ViewPush(epoch, members)
}

// noteOutcome resolves the breaker verdict an admit() demands: a
// transport failure feeds the breaker, while anything else — success or
// a typed server error — proves the peer alive. Leaving an admitted
// probe unresolved would wedge the breaker half-open and refuse every
// later exchange, so each exchange must end here.
func (p *peer) noteOutcome(err error) {
	if errors.Is(err, fsnet.ErrConnBroken) {
		p.noteFailure()
		return
	}
	p.noteSuccess()
}

// transientClient dials an address outside the current view for a
// one-shot exchange. The caller closes it.
func (n *Node) transientClient(addr string) (*fsnet.Client, error) {
	dial := n.cfg.Dialer
	return fsnet.NewClient(nil, fsnet.ClientConfig{
		Dialer:     func() (net.Conn, error) { return dial(addr) },
		Timeout:    n.cfg.PeerTimeout,
		MaxRetries: 0,
		Views:      n,
	})
}
