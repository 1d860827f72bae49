package cluster

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"aggcache/internal/fsnet"
	"aggcache/internal/obs"
)

// hintTable stages access paths bound for down peers — the hinted half
// of hinted handoff. While a peer's breaker is open, every open the node
// would have forwarded to it instead records its path (and the
// downstream client's piggybacked history) here, keyed by the dead
// peer's address; when the peer heals, the whole queue is replayed so
// the owner's successor metadata catches up on the outage it missed.
//
// Each queue is bounded: overflow drops the oldest entries first (the
// newest transitions are the ones the owner's successor lists would
// keep anyway), and the caller counts every drop.
type hintTable struct {
	mu       sync.Mutex
	capacity int // per-peer; <0 disables the table entirely
	queues   map[string][]string
}

// newHintTable returns a table with the given per-peer bound, or nil
// when hinting is disabled (capacity < 0). A nil *hintTable is a valid
// receiver: every operation no-ops.
func newHintTable(capacity int) *hintTable {
	if capacity < 0 {
		return nil
	}
	if capacity == 0 {
		capacity = defaultHintCapacity
	}
	return &hintTable{capacity: capacity, queues: make(map[string][]string)}
}

// add stages paths for addr, oldest first, reporting how many were
// queued and how many existing entries were dropped to make room.
func (t *hintTable) add(addr string, paths []string) (queued, dropped int) {
	if t == nil || len(paths) == 0 {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.queues[addr]
	if len(paths) >= t.capacity {
		// The new batch alone fills the queue: everything staged so far
		// drops, and only the newest capacity entries of the batch stay.
		dropped = len(q) + len(paths) - t.capacity
		t.queues[addr] = append(q[:0:0], paths[len(paths)-t.capacity:]...)
		return len(paths), dropped
	}
	if over := len(q) + len(paths) - t.capacity; over > 0 {
		dropped = over
		q = append(q[:0:0], q[over:]...) // copy: shed the dead prefix's capacity
	}
	t.queues[addr] = append(q, paths...)
	return len(paths), dropped
}

// take removes and returns addr's whole queue.
func (t *hintTable) take(addr string) []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	q := t.queues[addr]
	delete(t.queues, addr)
	return q
}

// drop discards addr's queue (the peer left the membership), reporting
// how many staged paths were lost.
func (t *hintTable) drop(addr string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.queues[addr])
	delete(t.queues, addr)
	return n
}

// depth returns the staged path count across all queues.
func (t *hintTable) depth() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, q := range t.queues {
		n += len(q)
	}
	return n
}

// stageHints records one degraded open against its down owner: the
// relayed client history first, then the demanded path, preserving the
// true access order the owner would have learned.
func (n *Node) stageHints(addr, path string, accessed []string) {
	if n.hints == nil {
		return
	}
	paths := make([]string, 0, len(accessed)+1)
	paths = append(paths, accessed...)
	paths = append(paths, path)
	queued, dropped := n.hints.add(addr, paths)
	n.hintsQueued.Add(uint64(queued))
	if dropped > 0 {
		n.hintsDropped.Add(uint64(dropped))
	}
}

// replayHints delivers a healed peer's staged access history. The whole
// queue rides as piggyback on one FetchGroup of the newest staged path:
// the owner learns every transition in order, and the group reply
// re-warms the mirror, which takes its own reference — the replay's is
// released at once. Runs in its own goroutine off the heal edge, so
// the open that probed the peer is never delayed.
//
// On a transport failure the fsnet client restores the un-delivered
// history to its own pending backlog, so the hints still reach the
// owner with the next successful forward — nothing is lost, it is just
// not counted as replayed.
func (n *Node) replayHints(p *peer) {
	if n.hints == nil {
		return
	}
	paths := n.hints.take(p.addr)
	if len(paths) == 0 {
		return
	}
	// A replay is its own trace root (there is no inbound request to
	// parent it); the head sampler decides, same as any entry point.
	tr := n.cfg.Trace
	tctx := tr.Root()
	var tstart time.Time
	if tctx.Sampled {
		tstart = n.cfg.Now()
		defer func() {
			tr.Record(tctx, "handoff_replay", paths[len(paths)-1], tstart, n.cfg.Now().Sub(tstart))
		}()
	}
	p.client.NoteAccess(paths...)
	g, err := p.client.FetchGroup(paths[len(paths)-1], tr.Child(tctx))
	switch {
	case err == nil:
		n.mirMu.Lock()
		n.mirror.put(g, p.addr)
		n.mirMu.Unlock()
		g.Release()
	case errors.Is(err, fsnet.ErrConnBroken):
		p.noteFailure()
		return
	case errors.Is(err, fsnet.ErrNotFound):
		// The owner answered, so it learned the piggybacked history; the
		// newest staged path just no longer exists.
	default:
		return
	}
	n.hintsReplayed.Add(uint64(len(paths)))
	n.events.Record("hints_replayed",
		obs.F("peer", p.addr),
		obs.F("count", strconv.Itoa(len(paths))))
}
