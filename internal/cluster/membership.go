package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"aggcache/internal/obs"
	"aggcache/internal/ring"
)

// ErrStaleView rejects a membership update that does not advance the
// installed view. Concurrent operators (a SIGHUP racing an HTTP reload,
// two config pushes crossing) resolve deterministically: the higher
// epoch wins, and between two views minting the *same* epoch — two
// operators racing the same epoch+1 with different member lists — the
// higher view-content hash wins, so every node converges on one of the
// two without coordination. The losing update is refused and counted.
var ErrStaleView = errors.New("cluster: stale membership view")

// view is one immutable membership generation: an epoch number, the
// consistent-hash ring it induces, the live peer set (Self excluded),
// and the member list's content hash (the equal-epoch tiebreak). Node
// readers load the current view once and use it to completion, so a
// ring swap is atomic — in-flight opens finish against the view they
// started with, and the next open sees the new one.
type view struct {
	epoch uint64
	ring  *ring.Ring
	peers map[string]*peer
	hash  uint64
}

// viewHash fingerprints a member list with FNV-1a over the sorted
// addresses (Ring.Members order), a NUL separating entries. Identical
// member sets hash identically on every node — addresses contain no
// NUL — which is what makes the equal-epoch tiebreak coordination-free.
func viewHash(members []string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, m := range members {
		for i := 0; i < len(m); i++ {
			h ^= uint64(m[i])
			h *= prime64
		}
		h *= prime64 // NUL separator: XOR with 0 is a no-op, the multiply is not
	}
	return h
}

// Epoch returns the installed view's epoch (1 at construction).
func (n *Node) Epoch() uint64 { return n.view.Load().epoch }

// Members returns the installed view's member addresses, sorted.
func (n *Node) Members() []string { return n.view.Load().ring.Members() }

// Ready reports readiness for traffic: the node is in the installed
// ring and not draining. Surfaced as /readyz by aggserve so a load
// balancer rotates a draining node out before its process exits.
func (n *Node) Ready() bool {
	return !n.draining.Load() && n.view.Load().ring.Has(n.self)
}

// Draining reports whether a graceful drain has begun.
func (n *Node) Draining() bool { return n.draining.Load() }

// Update installs a new membership view. The update must advance the
// installed view — a higher epoch, or the same epoch with a higher
// member-list hash — or it is refused with ErrStaleView. Version
// numbering is what lets racing reloads land in any order with a
// deterministic winner, and the content-hash tiebreak extends that to
// two operators racing the *same* epoch mint: whichever list hashes
// higher wins on every node, so the fleet converges without any
// coordination. peers is the complete new member list; Self need not be
// in it (a node that has been drained out keeps running and serves
// whatever still reaches it).
//
// Surviving peers keep their breaker state and client connections;
// joining peers get fresh ones. Removed peers are garbage-collected:
// their clients are closed and their breaker entries are dropped.
//
// An update whose member list includes Self ends a drain: the operator
// has explicitly put this node back in the ring, so it becomes ready
// again (the rejoin half of a rolling restart).
func (n *Node) Update(epoch uint64, peers []string) error {
	n.viewMu.Lock()
	defer n.viewMu.Unlock()
	if n.closed {
		return errors.New("cluster: node closed")
	}
	cur := n.view.Load()
	if epoch < cur.epoch {
		n.staleUpdates.Add(1)
		return fmt.Errorf("%w: epoch %d < installed %d", ErrStaleView, epoch, cur.epoch)
	}
	r := ring.Of(peers...)
	if r.Len() == 0 {
		return errors.New("cluster: membership view has no members")
	}
	hash := viewHash(r.Members())
	if epoch == cur.epoch && hash <= cur.hash {
		n.staleUpdates.Add(1)
		return fmt.Errorf("%w: epoch %d content hash %016x does not beat installed %016x",
			ErrStaleView, epoch, hash, cur.hash)
	}
	next := &view{epoch: epoch, ring: r, peers: make(map[string]*peer), hash: hash}
	for _, addr := range r.Members() {
		if addr == n.self {
			continue
		}
		if p := cur.peers[addr]; p != nil {
			next.peers[addr] = p
			continue
		}
		p, err := n.newPeer(addr)
		if err != nil {
			return err
		}
		next.peers[addr] = p
	}
	n.view.Store(next)

	// Close the clients of departed peers. This runs after the swap so no
	// new exchange can pick a removed peer.
	for addr, p := range cur.peers {
		if next.peers[addr] == nil {
			_ = p.close()
		}
	}

	if r.Has(n.self) && n.draining.CompareAndSwap(true, false) {
		n.events.Record("cluster_rejoin",
			obs.F("self", n.self),
			obs.F("epoch", strconv.FormatUint(epoch, 10)))
	}
	n.updates.Add(1)
	n.events.Record("membership_update",
		obs.F("epoch", strconv.FormatUint(epoch, 10)),
		obs.F("members", strconv.Itoa(r.Len())))
	return nil
}

// ParsePeersFile reads a peers file: one member address per line, blank
// lines and '#' comments ignored, plus an optional "epoch N" directive
// line. A file without an epoch directive parses as epoch 0, meaning
// "auto": the caller installs it with the current epoch + 1.
//
//	# rolling out node 4
//	epoch 7
//	10.0.0.1:7070
//	10.0.0.2:7070
func ParsePeersFile(r io.Reader) (epoch uint64, peers []string, err error) {
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(text, "epoch "); ok {
			e, perr := strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
			if perr != nil {
				return 0, nil, fmt.Errorf("cluster: peers file line %d: bad epoch %q", line, rest)
			}
			if epoch != 0 {
				return 0, nil, fmt.Errorf("cluster: peers file line %d: duplicate epoch directive", line)
			}
			if e == 0 {
				return 0, nil, fmt.Errorf("cluster: peers file line %d: epoch must be >= 1", line)
			}
			epoch = e
			continue
		}
		if strings.ContainsAny(text, " \t") {
			return 0, nil, fmt.Errorf("cluster: peers file line %d: malformed member %q", line, text)
		}
		peers = append(peers, text)
	}
	if err := sc.Err(); err != nil {
		return 0, nil, err
	}
	if len(peers) == 0 {
		return 0, nil, errors.New("cluster: peers file lists no members")
	}
	return epoch, peers, nil
}
