// Package otrace is the distributed-tracing layer: 128-bit trace IDs
// minted at the client edge, span contexts propagated hop-by-hop over
// the fsnet wire, and completed spans recorded into a per-node
// bounded ring that /traces and /trace/<id> expose for fleet-wide
// stitching (see cmd/aggbench -trace-collect).
//
// The design rule is zero allocations when unsampled: a Ctx is a small
// value struct, the head-sampling decision is one atomic add, and an
// unsampled request never touches the ring, the heap, or the wire. Only
// two paths pay: head-sampled requests (1-in-SampleRate, default
// 1/1024) and tail-captured ones (any request slower than the server's
// SlowRequest threshold, recorded even when the head sampler said no,
// so the ring always holds the outliers worth debugging).
//
// Every Tracer method is nil-receiver safe, mirroring the obs package:
// an unwired component calls the same code and pays only a nil check.
package otrace

import (
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSampleRate head-samples one request in this many.
const DefaultSampleRate = 1024

// DefaultCapacity is the span ring's default bound.
const DefaultCapacity = 4096

// Ctx is one hop's trace context. The zero value means "not traced":
// it costs nothing to pass around and nothing downstream reacts to it.
// Hi/Lo form the 128-bit trace ID shared by every span of the trace;
// Span is this hop's own span ID and Parent the upstream hop's (0 at
// the root). Sampled is what travels on the wire: a downstream peer
// records its spans iff the bit is set.
type Ctx struct {
	Hi, Lo  uint64
	Span    uint64
	Parent  uint64
	Sampled bool
}

// Valid reports whether the context carries a real trace ID.
func (c Ctx) Valid() bool { return c.Hi|c.Lo != 0 }

// TraceID renders the 128-bit trace ID as 32 lowercase hex digits —
// the form /trace/<id> accepts and exemplars embed. Allocates; call it
// only on sampled paths.
func (c Ctx) TraceID() string {
	var b [32]byte
	hex16(b[:16], c.Hi)
	hex16(b[16:], c.Lo)
	return string(b[:])
}

const hexDigits = "0123456789abcdef"

func hex16(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// ParseTraceID parses the 32-hex-digit form back into (hi, lo).
func ParseTraceID(s string) (hi, lo uint64, ok bool) {
	if len(s) != 32 {
		return 0, 0, false
	}
	for i := 0; i < 32; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, 0, false
		}
		if i < 16 {
			hi = hi<<4 | d
		} else {
			lo = lo<<4 | d
		}
	}
	return hi, lo, true
}

// Span is one completed unit of work: a phase of a request (hit, stage,
// …), a whole client call, or a gossip round. Spans
// sharing (Hi, Lo) belong to one trace; Parent links them into a tree.
type Span struct {
	Hi, Lo uint64
	ID     uint64
	Parent uint64
	// Node is the recording node's advertised address; Name the phase.
	Node string
	Name string
	Path string
	// Start is wall-clock unix nanoseconds; Dur the span length.
	Start int64
	Dur   int64
	// Tail marks a span recorded by tail capture (slow request) whose
	// trace was not head-sampled — such traces are single-node.
	Tail bool
}

// Config configures one node's tracer.
type Config struct {
	// Node is the recording node's name, stamped on every span.
	Node string
	// SampleRate head-samples one root mint in N. 0 selects
	// DefaultSampleRate; 1 samples everything; negative disables head
	// sampling (tail capture still records).
	SampleRate int
	// Capacity bounds the span ring (0 selects DefaultCapacity).
	Capacity int
	// Now is the clock; nil selects time.Now. Tests inject a fake.
	Now func() time.Time
}

// Tracer mints trace contexts and records completed spans into a
// bounded ring. All methods are safe for concurrent use and safe on a
// nil receiver.
type Tracer struct {
	node   string
	rate   uint64 // 0 = head sampling off
	now    func() time.Time
	ticket atomic.Uint64 // head-sampling cadence
	idgen  atomic.Uint64 // splitmix64 state for IDs

	mu      sync.Mutex
	ring    []Span
	next    int
	full    bool
	total   uint64 // spans ever recorded
	sampled uint64 // root mints that sampled
	tails   uint64 // tail captures
}

// New builds a tracer. A nil return is deliberate API: callers may hold
// a nil *Tracer and every method no-ops.
func New(cfg Config) *Tracer {
	rate := cfg.SampleRate
	if rate == 0 {
		rate = DefaultSampleRate
	}
	if rate < 0 {
		rate = 0 // tail capture only
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	t := &Tracer{
		node: cfg.Node,
		rate: uint64(rate),
		now:  now,
		ring: make([]Span, capacity),
	}
	// Seed ID generation off the wall clock once so restarts do not
	// reuse trace IDs; every subsequent draw is one atomic add.
	t.idgen.Store(uint64(now().UnixNano()))
	return t
}

// splitmix64 turns the sequential idgen counter into well-mixed IDs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) id() uint64 {
	v := splitmix64(t.idgen.Add(0x9e3779b97f4a7c15))
	if v == 0 {
		v = 1
	}
	return v
}

// Node returns the tracer's node name ("" on nil).
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.node
}

// Root mints a new root context at a trace's entry point (a client
// Open, a server request with no inbound context, a gossip round). The
// head sampler admits one mint in SampleRate; unsampled mints return
// the zero Ctx without touching the heap.
func (t *Tracer) Root() Ctx {
	if t == nil || t.rate == 0 {
		return Ctx{}
	}
	if t.ticket.Add(1)%t.rate != 0 {
		return Ctx{}
	}
	c := Ctx{Hi: t.id(), Lo: t.id(), Span: t.id(), Sampled: true}
	t.mu.Lock()
	t.sampled++
	t.mu.Unlock()
	return c
}

// Child derives this hop's context from an inbound parent: same trace,
// fresh span ID, parent set to the upstream span. An unsampled or zero
// parent yields the zero Ctx.
func (t *Tracer) Child(parent Ctx) Ctx {
	if t == nil || !parent.Sampled || !parent.Valid() {
		return Ctx{}
	}
	return Ctx{Hi: parent.Hi, Lo: parent.Lo, Span: t.id(), Parent: parent.Span, Sampled: true}
}

// Record stores a completed span for a sampled context. Returns the
// context unchanged so call sites can chain into exemplar attachment.
func (t *Tracer) Record(ctx Ctx, name, path string, start time.Time, dur time.Duration) Ctx {
	if t == nil || !ctx.Sampled {
		return ctx
	}
	t.push(Span{
		Hi: ctx.Hi, Lo: ctx.Lo, ID: ctx.Span, Parent: ctx.Parent,
		Node: t.node, Name: name, Path: path,
		Start: start.UnixNano(), Dur: int64(dur),
	})
	return ctx
}

// Tail records a span for a request the head sampler skipped but whose
// latency crossed the slow threshold: a fresh single-node trace ID is
// minted so the span resolves via /trace/<id> and can anchor an
// exemplar. Returns the minted context.
func (t *Tracer) Tail(name, path string, start time.Time, dur time.Duration) Ctx {
	if t == nil {
		return Ctx{}
	}
	ctx := Ctx{Hi: t.id(), Lo: t.id(), Span: t.id(), Sampled: true}
	t.push(Span{
		Hi: ctx.Hi, Lo: ctx.Lo, ID: ctx.Span,
		Node: t.node, Name: name, Path: path,
		Start: start.UnixNano(), Dur: int64(dur),
		Tail: true,
	})
	t.mu.Lock()
	t.tails++
	t.mu.Unlock()
	return ctx
}

func (t *Tracer) push(s Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.full = true
	}
	t.total++
	t.mu.Unlock()
}

// Spans returns the ring's contents oldest-first. For inspection and
// tests; the HTTP handlers use the filtered forms below.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansLocked()
}

func (t *Tracer) spansLocked() []Span {
	if !t.full {
		return append([]Span(nil), t.ring[:t.next]...)
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// TraceSpans returns every ring span belonging to the given trace ID.
func (t *Tracer) TraceSpans(hi, lo uint64) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spansLocked() {
		if s.Hi == hi && s.Lo == lo {
			out = append(out, s)
		}
	}
	return out
}

// Stats is a point-in-time snapshot of the tracer's accounting.
type Stats struct {
	// Recorded counts spans ever pushed (ring overwrites included);
	// Resident is the current ring occupancy.
	Recorded uint64
	Resident int
	// Sampled counts head-sampled root mints, Tails tail captures.
	Sampled uint64
	Tails   uint64
}

// Stats returns the tracer's counters (zero value on nil).
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.full {
		n = len(t.ring)
	}
	return Stats{Recorded: t.total, Resident: n, Sampled: t.sampled, Tails: t.tails}
}
