package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aggcache/internal/fsnet"
)

// Tracing is done entirely from outside the program: the benchmark decorates
// the interfaces fsnet and cluster already accept (a client Dialer, the
// server's net.Listener, its Router, the cluster's peer Dialer) and times the
// calls that cross them. Every worker keeps exactly one request in flight on
// its one connection, so whatever crosses a connection belongs to that
// worker's current operation.

type spanKind uint8

const (
	spanClientOpen spanKind = iota
	spanWireRTT
	spanServerResidency
	spanClusterRoute
	spanClusterForward
	spanKinds
)

var spanNames = [spanKinds]string{"client.open", "wire.rtt", "server.residency", "cluster.route", "cluster.forward"}

// Span tags: what kind of operation a client.open was, how a request reached
// a server, and what cluster.RouteOpen did with it.
const (
	tagHit uint8 = iota
	tagFetch
	tagWrite
	tagDirect
	tagForwarded
	tagRouteForward
	tagRouteMirror
	tagRouteLocal
)

var tagNames = [...]string{"hit", "fetch", "write", "direct", "forwarded", "forward", "mirror", "declined-local"}

// span is one timed interval at a layer boundary. Its parent is implied by
// the nesting of the five kinds within one operation (see parentOf).
type span struct {
	op         uint64 // worker<<48 | sequence number, never 0
	start, end int64  // ns since processEpoch
	kind       spanKind
	tag        uint8
	node       uint8
}

func (s span) dur() int64 { return s.end - s.start }

func opID(worker int, seq uint64) uint64 { return uint64(worker)<<48 | seq }

// spanLog collects the spans of one recording site.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// cursor publishes what a worker is doing right now. op is 0 outside the
// measured phase, which is what keeps warm-up and handshakes out of the trace.
type cursor struct {
	op   atomic.Uint64
	path atomic.Pointer[string]
	// routed[n] is the last op that was given a cluster.route span at node n.
	routed [maxNodes]atomic.Uint64
}

const maxNodes = 8

type origin struct {
	cur *cursor
	via uint8 // tagDirect or tagForwarded
}

// tracer owns the cursors, the recording sites and the address registry that
// lets an accepted connection find out whose requests it carries.
type tracer struct {
	cursors []*cursor
	origins sync.Map // dialer-side local address -> origin

	mu       sync.Mutex
	logs     []*spanLog
	accepted []*residencyConn
	dialed   []*rttConn
}

func newTracer(workers int) *tracer {
	t := &tracer{cursors: make([]*cursor, workers)}
	for i := range t.cursors {
		t.cursors[i] = new(cursor)
	}
	return t
}

func (t *tracer) newLog() *spanLog {
	l := new(spanLog)
	t.mu.Lock()
	t.logs = append(t.logs, l)
	t.mu.Unlock()
	return l
}

// rttConn times request/reply exchanges on the dialling side of a
// connection: first Write of a request to first Read that returns reply
// bytes. It is a wire.rtt span on a worker's connection and a cluster.forward
// span on a node's peer connection.
type rttConn struct {
	net.Conn
	cur  *cursor
	log  *spanLog
	kind spanKind
	node uint8
	// forwards, on peer connections, counts completed exchanges so the
	// router decorator can tell a forward from a mirror hit.
	forwards *atomic.Uint64

	mu       sync.Mutex
	op       uint64
	start    int64
	awaiting bool
	wire     wireCounts
}

// wireCounts are the conn-wrapper counters of the measured phase.
type wireCounts struct {
	writes, reads, bytesOut, bytesIn uint64
}

func (t *tracer) dial(addr string, cur *cursor, kind spanKind, node int, via uint8, forwards *atomic.Uint64) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &rttConn{Conn: conn, cur: cur, log: t.newLog(), kind: kind, node: uint8(node), forwards: forwards}
	t.origins.Store(conn.LocalAddr().String(), origin{cur: cur, via: via})
	t.mu.Lock()
	t.dialed = append(t.dialed, c)
	t.mu.Unlock()
	return c, nil
}

func (c *rttConn) Write(b []byte) (int, error) {
	if op := c.cur.op.Load(); op != 0 {
		c.mu.Lock()
		if c.op != op {
			c.op, c.start, c.awaiting = op, nowNs(), true
		}
		c.wire.writes++
		c.wire.bytesOut += uint64(len(b))
		c.mu.Unlock()
	}
	return c.Conn.Write(b)
}

func (c *rttConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 && c.cur.op.Load() != 0 {
		end := nowNs()
		c.mu.Lock()
		if c.awaiting {
			c.awaiting = false
			c.log.add(span{op: c.op, start: c.start, end: end, kind: c.kind, node: c.node})
			if c.forwards != nil {
				c.forwards.Add(1)
			}
		}
		c.wire.reads++
		c.wire.bytesIn += uint64(n)
		c.mu.Unlock()
	}
	return n, err
}

// residencyConn times a request's stay in a server, on the accepted side of
// a connection: from the Read that returns the request to the moment the
// reply batch is handed to the kernel.
//
// It embeds *net.TCPConn rather than wrapping net.Conn because the server
// writes replies with net.Buffers.WriteTo, which is one writev only for a
// writer with net's unexported writeBuffers method; a plain wrapper would turn
// every reply into one write syscall per buffer and measure a different
// program. The price is that the writev cannot be intercepted, so the end of
// the span is the SetWriteDeadline call the server makes immediately before
// each reply batch (traced runs set ServerConfig.WriteTimeout for this). The
// writev itself therefore counts as kernel time.
type residencyConn struct {
	*net.TCPConn
	t    *tracer
	log  *spanLog
	node uint8

	mu       sync.Mutex
	from     *origin
	resolved bool
	op       uint64
	start    int64
	end      int64
	busy     bool
	replied  bool
	batches  uint64 // reply batches written during the measured phase
	requests uint64
}

func (c *residencyConn) Read(b []byte) (int, error) {
	n, err := c.TCPConn.Read(b)
	if n > 0 {
		now := nowNs()
		c.mu.Lock()
		if !c.resolved {
			// The dialler registered before it wrote, so by the time
			// bytes arrive the registry knows this connection.
			if o, ok := c.t.origins.Load(c.RemoteAddr().String()); ok {
				o := o.(origin)
				c.from = &o
			}
			c.resolved = true
		}
		if c.busy && c.replied {
			c.finish()
		}
		if !c.busy && c.from != nil {
			if op := c.from.cur.op.Load(); op != 0 {
				c.busy, c.replied, c.op, c.start = true, false, op, now
				c.requests++
			}
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *residencyConn) SetWriteDeadline(d time.Time) error {
	now := nowNs()
	c.mu.Lock()
	if c.busy {
		c.end, c.replied = now, true
		c.batches++
	}
	c.mu.Unlock()
	return c.TCPConn.SetWriteDeadline(d)
}

// finish closes the open span; the caller holds c.mu.
func (c *residencyConn) finish() {
	c.log.add(span{op: c.op, start: c.start, end: c.end, kind: spanServerResidency, tag: c.from.via, node: c.node})
	c.busy = false
}

// tracedListener hands the server residencyConns.
type tracedListener struct {
	net.Listener
	t    *tracer
	node uint8
}

func (l *tracedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tcp, ok := conn.(*net.TCPConn)
	if !ok {
		return conn, nil
	}
	c := &residencyConn{TCPConn: tcp, t: l.t, log: l.t.newLog(), node: l.node}
	l.t.mu.Lock()
	l.t.accepted = append(l.t.accepted, c)
	l.t.mu.Unlock()
	return c, nil
}

// tracedRouter times cluster.Node.RouteOpen and names what it did.
type tracedRouter struct {
	inner    fsnet.OpenRouter
	t        *tracer
	log      *spanLog
	node     uint8
	forwards *atomic.Uint64
}

func (r *tracedRouter) RouteOpen(path string, accessed []string) ([]fsnet.GroupFile, bool, error) {
	before := r.forwards.Load()
	start := nowNs()
	files, handled, err := r.inner.RouteOpen(path, accessed)
	end := nowNs()
	tag := tagRouteLocal
	if handled {
		tag = tagRouteMirror
		if r.forwards.Load() != before {
			tag = tagRouteForward
		}
	}
	if op := r.t.attribute(int(r.node), path, handled); op != 0 {
		r.log.add(span{op: op, start: start, end: end, kind: spanClusterRoute, tag: tag, node: r.node})
	}
	return files, handled, err
}

// attribute finds the operation a RouteOpen call at node belongs to. Worker
// n talks to node n, so a call the node handled (forward or mirror) is that
// worker's; a call it declined is either that worker's open of a path the
// node owns or another worker's open forwarded here. The path tells them
// apart, and routed[] breaks the tie when two workers open one path at once.
func (t *tracer) attribute(node int, path string, handled bool) uint64 {
	try := func(w int) uint64 {
		cur := t.cursors[w]
		op := cur.op.Load()
		if op == 0 || cur.routed[node].Load() == op {
			return 0
		}
		if p := cur.path.Load(); p == nil || *p != path {
			return 0
		}
		cur.routed[node].Store(op)
		return op
	}
	if node < len(t.cursors) {
		if op := try(node); op != 0 || handled {
			return op
		}
	}
	if handled {
		return 0
	}
	for w := range t.cursors {
		if w != node {
			if op := try(w); op != 0 {
				return op
			}
		}
	}
	return 0
}

// collect closes every open residency span and returns all spans recorded,
// the workers' connection counters summed, and the servers' reply batches and
// requests.
func (t *tracer) collect() (spans []span, client wireCounts, batches, requests uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.accepted {
		c.mu.Lock()
		if c.busy && c.replied {
			c.finish()
		}
		batches += c.batches
		requests += c.requests
		c.mu.Unlock()
	}
	for _, c := range t.dialed {
		if c.kind != spanWireRTT {
			continue
		}
		c.mu.Lock()
		client.writes += c.wire.writes
		client.reads += c.wire.reads
		client.bytesOut += c.wire.bytesOut
		client.bytesIn += c.wire.bytesIn
		c.mu.Unlock()
	}
	for _, l := range t.logs {
		l.mu.Lock()
		spans = append(spans, l.spans...)
		l.mu.Unlock()
	}
	return spans, client, batches, requests
}

// opTree is the spans of one operation, slotted by where they sit on its
// blocking path: worker -> entry server -> (router -> peer hop -> owner).
type opTree struct {
	spans [slots]span
	have  [slots]bool
}

const (
	slotRoot       = iota // client.open
	slotRTT               // wire.rtt
	slotEntry             // server.residency where the worker's request arrived
	slotEntryRoute        // cluster.route there
	slotForward           // cluster.forward to the owner
	slotOwner             // server.residency at the owner
	slotOwnerRoute        // cluster.route there (always declined-local)
	slots
)

// slotOf places a span in its operation's tree. A worker's requests enter at
// the node with the worker's own number; any other node is the owner's side.
func slotOf(s span) int {
	entryNode := uint8(s.op >> 48)
	switch s.kind {
	case spanClientOpen:
		return slotRoot
	case spanWireRTT:
		return slotRTT
	case spanClusterForward:
		return slotForward
	case spanServerResidency:
		if s.tag == tagForwarded {
			return slotOwner
		}
		return slotEntry
	default:
		if s.node == entryNode {
			return slotEntryRoute
		}
		return slotOwnerRoute
	}
}

// parentOf names the slot whose span encloses a span in the given slot.
var parentOf = [slots]int{slotRoot: -1, slotRTT: slotRoot, slotEntry: slotRTT, slotEntryRoute: slotEntry,
	slotForward: slotEntryRoute, slotOwner: slotForward, slotOwnerRoute: slotOwner}

func buildTrees(spans []span) map[uint64]*opTree {
	trees := make(map[uint64]*opTree)
	for _, s := range spans {
		tr := trees[s.op]
		if tr == nil {
			tr = new(opTree)
			trees[s.op] = tr
		}
		slot := slotOf(s)
		tr.spans[slot], tr.have[slot] = s, true
	}
	return trees
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent and overlapping children are counted
// once, so the result is never negative.
func selfTime(parent span, children ...span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	// Insertion sort: an operation has at most a handful of children.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].lo < ivs[j-1].lo; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	covered, edge := int64(0), parent.start
	for _, v := range ivs {
		if v.hi <= edge {
			continue
		}
		covered += v.hi - max(v.lo, edge)
		edge = v.hi
	}
	return parent.dur() - covered
}

// traceFile is the JSON document written to -trace-out.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Note     string      `json:"note"`
	Spans    []traceSpan `json:"spans"`
}

type traceSpan struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Op      uint64 `json:"op"`
	Worker  int    `json:"worker"`
	Name    string `json:"name"`
	Tag     string `json:"tag,omitempty"`
	Node    int    `json:"node"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace writes the span trees of up to limit operations as JSON.
func writeTrace(path, workload string, seed int64, trees map[uint64]*opTree, limit int) error {
	doc := traceFile{Workload: workload, Seed: seed,
		Note: "times are ns since process start; parent is the id of the enclosing span; op = worker<<48 | sequence"}
	for op, tr := range trees {
		if !tr.have[slotRoot] {
			continue
		}
		if limit--; limit < 0 {
			break
		}
		var ids [slots]int
		for slot := 0; slot < slots; slot++ {
			if !tr.have[slot] {
				continue
			}
			s := tr.spans[slot]
			ids[slot] = len(doc.Spans) + 1
			parent := 0
			for p := parentOf[slot]; p >= 0; p = parentOf[p] {
				if tr.have[p] {
					parent = ids[p]
					break
				}
			}
			ts := traceSpan{ID: ids[slot], Parent: parent, Op: op, Worker: int(op >> 48), Name: spanNames[s.kind],
				Node: int(s.node), StartNs: s.start, EndNs: s.end}
			if s.kind == spanClientOpen || s.kind == spanClusterRoute || s.kind == spanServerResidency {
				ts.Tag = tagNames[s.tag]
			}
			doc.Spans = append(doc.Spans, ts)
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
