// Package obs is the unified observability layer: atomic counters,
// gauges, and power-of-two-bucket latency histograms behind a named
// registry with label support, Prometheus text-format exposition, a JSON
// snapshot, and a bounded structured event log.
//
// The package is zero-dependency (standard library only) and built for
// hot paths: recording a counter or histogram sample is one atomic add,
// and every mutating method is nil-safe — a nil *Counter, *Gauge,
// *Histogram, *EventLog, or *Registry no-ops — so instrumented code pays
// only a predictable nil-check branch when no registry is configured.
// That property is what keeps the simulator hot path allocation-free
// (DESIGN.md §8) while the same code serves scraped metrics in aggserve.
//
// Typical wiring:
//
//	reg := obs.NewRegistry()
//	opens := reg.Counter("fsnet_server_requests_total", "open requests served")
//	lat := reg.Histogram("fsnet_server_request_latency_ns", "per-request latency",
//		obs.L("phase", "hit"))
//	...
//	opens.Inc()
//	lat.Observe(uint64(time.Since(t0)))
//	...
//	http.Handle("/metrics", reg.MetricsHandler())
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Label is one name=value dimension attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter discards updates and loads as zero, so
// instrumentation sites never need to guard against an absent registry.
type Counter struct {
	v atomic.Uint64
}

// NewCounter returns a standalone (unregistered) counter. Components use
// standalone counters when no registry is configured, so their stats
// snapshots keep working from the same atomics either way.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (may go up and down). The zero
// value is ready; a nil *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// NewGauge returns a standalone (unregistered) gauge.
func NewGauge() *Gauge { return &Gauge{} }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by delta (negative deltas decrease it).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count: bucket i holds samples v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i), and bucket 0 holds exact
// zeros. 64 value bits plus the zero bucket.
const histBuckets = 65

// Histogram is a fixed power-of-two-bucket histogram: recording is one
// atomic add into the bucket selected by bits.Len64, so the hot path
// never allocates, sorts, or locks. Percentiles come out as bucket upper
// bounds — order-of-magnitude resolution, which is what latency
// reporting needs. Values are plain uint64 (nanoseconds by convention
// for latency series; counts for size distributions). A nil *Histogram
// no-ops.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Uint64
	// exemplars remembers, per bucket, the last traced sample that
	// landed there (nil until one does). Plain Observe never touches
	// this array, so untraced recording stays a single atomic add.
	exemplars [histBuckets]atomic.Pointer[Exemplar]
}

// Exemplar links one histogram bucket to the trace that last landed in
// it, in the OpenMetrics sense: a p99 bucket resolves to a concrete
// reconstructable request via /trace/<id>.
type Exemplar struct {
	// Bucket is the power-of-two bucket index the sample selected.
	Bucket int
	// TraceID is the 32-hex-digit trace identifier.
	TraceID string
	// Value is the observed sample value (nanoseconds for latency).
	Value uint64
}

// NewHistogram returns a standalone (unregistered) histogram.
func NewHistogram() *Histogram { return &Histogram{} }

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
}

// ObserveTrace records one sample and pins traceID as the exemplar of
// the bucket it lands in, replacing any earlier exemplar there. Called
// only on sampled paths, so the one allocation (the Exemplar) is paid
// at the sampling rate, never per request.
func (h *Histogram) ObserveTrace(v uint64, traceID string) {
	if h == nil {
		return
	}
	b := bits.Len64(v)
	h.buckets[b].Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.exemplars[b].Store(&Exemplar{Bucket: b, TraceID: traceID, Value: v})
	}
}

// ObserveDuration records d in nanoseconds (negative durations clamp to
// zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d.Nanoseconds()))
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Sum returns the total of all recorded sample values.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Percentile returns the upper bound of the bucket holding the p-th
// percentile sample (p in [0,100]). An empty histogram reports 0.
func (h *Histogram) Percentile(p float64) uint64 {
	if h == nil {
		return 0
	}
	var counts [histBuckets]uint64
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen uint64
	for i, n := range counts {
		seen += n
		if seen > rank {
			return bucketBound(i)
		}
	}
	return bucketBound(histBuckets - 1)
}

// bucketBound is bucket i's inclusive upper bound: 2^i - 1 (bucket 0
// holds only zeros).
func bucketBound(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return 1<<64 - 1
	}
	return 1<<uint(i) - 1
}

// Snapshot returns a consistent-enough copy of the histogram state for
// exposition. Individual bucket loads are atomic but not mutually
// consistent under concurrent writes; totals settle at quiescence.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
		if e := h.exemplars[i].Load(); e != nil {
			s.Exemplars = append(s.Exemplars, *e)
		}
	}
	s.Sum = h.sum.Load()
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Sum     uint64
	// Exemplars holds the per-bucket trace exemplars present at
	// snapshot time, ordered by bucket index (sparse: only buckets a
	// traced sample ever landed in appear).
	Exemplars []Exemplar
}

// Percentile mirrors Histogram.Percentile over the frozen copy.
func (s HistogramSnapshot) Percentile(p float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(p / 100 * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for i, n := range s.Buckets {
		seen += n
		if seen > rank {
			return bucketBound(i)
		}
	}
	return bucketBound(histBuckets - 1)
}
