package cluster

import (
	"sync"

	"aggcache/internal/obs"
)

// This file makes *Node the sink of its server's stage hints
// (fsnet.ViewSource.PeerHints). A node's deep build names files its peers
// own: the continuation of a stream it saw and they did not. Each such
// file goes to its owner as a stage hint over the peer's client, which
// the owner stages on its probation list (DESIGN.md §5). A hint is
// advice: one lost costs a hit, never bytes, so hints never wait for a
// peer. The server hands them over under its aggMu; they are buffered per
// peer and a sender goroutine of the peer's own sends them, at most one
// request in flight, so the serving path never blocks on the peer tier.

// peerHints is one peer's outbound stage hints: a coalescing buffer that
// holds at most one probation bound's worth, newest hint first and each
// hint best prediction first, and the sender that drains it.
type peerHints struct {
	mu      sync.Mutex
	paths   []string
	started bool
	stopped bool
	wake    chan struct{} // room for one: a send marks the buffer non-empty
	quit    chan struct{}
	done    chan struct{}

	// The sender's own: the batch in flight and its encoded request.
	batch   []string
	payload []byte
}

// PeerHints implements fsnet.ViewSource: it buffers paths, which the
// server's deep build predicted that member owner owns, for owner's
// sender, shedding the oldest paths beyond keep. A peer whose breaker is
// open, or that is not in the installed view, gets no hints: they are
// shed. It never blocks.
func (n *Node) PeerHints(owner string, paths []string, keep int) {
	p := n.view.Load().peers[owner]
	if p == nil || !p.up() {
		n.hintsShed.Add(uint64(len(paths)))
		return
	}
	n.hintsShed.Add(uint64(p.hints.add(n, p, paths, max(keep, 1))))
}

// add puts paths at the front of the buffer, keeping at most keep of
// them and of what was there, and wakes the sender, starting it on the
// first hint. It returns how many paths were shed.
func (h *peerHints) add(n *Node, p *peer, paths []string, keep int) (shed int) {
	h.mu.Lock()
	if h.stopped {
		h.mu.Unlock()
		return len(paths)
	}
	if len(paths) > keep {
		shed, paths = len(paths)-keep, paths[:keep]
	}
	if over := len(h.paths) + len(paths) - keep; over > 0 {
		shed += over
		clear(h.paths[len(h.paths)-over:])
		h.paths = h.paths[:len(h.paths)-over]
	}
	h.paths = append(h.paths, paths...)
	copy(h.paths[len(paths):], h.paths[:len(h.paths)-len(paths)])
	copy(h.paths, paths)
	if !h.started {
		h.started = true
		h.wake = make(chan struct{}, 1)
		h.quit = make(chan struct{})
		h.done = make(chan struct{})
		go h.send(n, p)
	}
	h.mu.Unlock()
	select {
	case h.wake <- struct{}{}:
	default:
	}
	return shed
}

// send is the peer's hint sender: it takes the whole buffer as one
// request and waits for its ack before it takes the next, so a peer has
// at most one hint request in flight and hints arriving meanwhile
// coalesce. Hints read the peer's breaker and never feed it: a batch for
// a peer whose breaker is open is shed, and a failed send is shed too,
// not counted against the peer. The breaker stays the verdict of the
// cluster's own exchanges (view pulls and pushes, a drain's goodbye), and
// a lost hint costs a hit at most.
func (h *peerHints) send(n *Node, p *peer) {
	defer close(h.done)
	for {
		select {
		case <-h.quit:
			return
		case <-h.wake:
		}
		h.mu.Lock()
		h.batch, h.paths = h.paths, h.batch[:0]
		h.mu.Unlock()
		if len(h.batch) == 0 {
			continue
		}
		count := uint64(len(h.batch))
		sent := false
		if p.up() {
			var err error
			h.payload, err = p.client.PeerHint(h.payload, h.batch)
			sent = err == nil
		}
		if sent {
			n.hintsSent.Add(count)
		} else {
			n.hintsShed.Add(count)
		}
		h.mu.Lock()
		clear(h.batch)
		h.batch = h.batch[:0]
		h.mu.Unlock()
	}
}

// idle reports whether the peer's hints are all accounted for: none
// buffered and none in flight.
func (h *peerHints) idle() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.paths) == 0 && len(h.batch) == 0
}

// stop ends the sender, if it started, and waits for it: the peer's
// client must be closed first, so a send in flight fails at once. Later
// hints are shed.
func (h *peerHints) stop() {
	h.mu.Lock()
	h.stopped = true
	started := h.started
	h.mu.Unlock()
	if started {
		close(h.quit)
		<-h.done
	}
}

// wireHintMetrics registers the node's hint counters.
func (n *Node) wireHintMetrics(reg *obs.Registry) {
	n.hintsSent = reg.LiveCounter("cluster_peer_hints_sent_total", "stage-hint paths sent to their owners and acknowledged")
	n.hintsShed = reg.LiveCounter("cluster_peer_hints_shed_total", "stage-hint paths dropped: a full buffer's oldest, a peer whose breaker was open or not in the view, a failed send")
}
