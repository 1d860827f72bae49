package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a metric family.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
	// KindGaugeFunc is a pull-style gauge: its value is computed by a
	// callback at snapshot/exposition time, so components can expose
	// mutex-guarded state (mirror residency, live connections) without
	// paying anything on their hot paths.
	KindGaugeFunc
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindGaugeFunc:
		return "gauge"
	default:
		return "untyped"
	}
}

// Registry is a named collection of metric families. Registration is
// idempotent: asking for a name+label combination that already exists
// returns the existing instrument, so two components may safely share a
// series (their updates aggregate) — but note that a stats snapshot fed
// from a shared series then reports the merged count, so wire one
// registry per server/node when per-instance numbers matter.
//
// All methods are safe for concurrent use, and every method is nil-safe:
// a nil *Registry returns nil instruments, whose methods no-op. That is
// the "no registry configured" fast path.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order, which is exposition order
	byName   map[string]*family
	events   *EventLog
}

// family is one metric name: shared help/kind, one series per label set.
type family struct {
	name   string
	help   string
	kind   Kind
	series []*series
	byKey  map[string]*series
}

// series is one label combination of a family.
type series struct {
	labels  []Label // sorted by key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64
}

// NewRegistry returns an empty registry with an event log of the default
// capacity (256 events).
func NewRegistry() *Registry {
	return &Registry{
		byName: make(map[string]*family),
		events: NewEventLog(0),
	}
}

// Events returns the registry's structured event log (nil for a nil
// registry, and a nil *EventLog no-ops).
func (r *Registry) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Counter returns the counter registered under name and labels, creating
// it on first use. Panics if name is invalid or already registered as a
// different kind — both programmer errors caught at wiring time.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindCounter, labels).counter
}

// LiveCounter is Counter for a counter its owner also reads back (a stats
// snapshot fed from the same storage /metrics exposes): the registered
// series, or a standalone counter when r is nil, so the owner writes its
// counter list once and never holds a nil.
func (r *Registry) LiveCounter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return NewCounter()
	}
	return r.Counter(name, help, labels...)
}

// Gauge returns the gauge registered under name and labels, creating it
// on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindGauge, labels).gauge
}

// Histogram returns the histogram registered under name and labels,
// creating it on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, KindHistogram, labels).hist
}

// GaugeFunc registers a pull-style gauge whose value is fn() at snapshot
// time. fn must be safe to call from any goroutine; re-registering the
// same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	s := r.register(name, help, KindGaugeFunc, labels)
	r.mu.Lock()
	s.fn = fn
	r.mu.Unlock()
}

// register finds or creates the family and series. Called from the typed
// entry points only.
func (r *Registry) register(name, help string, kind Kind, labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	for _, l := range sorted {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l.Key, name))
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	key := labelKey(sorted)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: sorted}
		// The instrument is created under the registry lock so concurrent
		// registrations of the same series observe one shared instance.
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = &Histogram{}
		}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// labelKey canonicalizes a sorted label set.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('\xff')
		b.WriteString(l.Value)
		b.WriteByte('\xfe')
	}
	return b.String()
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Sample is one series in a registry snapshot.
type Sample struct {
	Name   string
	Help   string
	Kind   Kind
	Labels []Label
	// Value carries counter, gauge, and gauge-func readings.
	Value float64
	// Hist carries the histogram state (KindHistogram only).
	Hist *HistogramSnapshot
}

// Snapshot freezes every registered series, in registration order.
// Individual reads are atomic, but the snapshot as a whole has relaxed
// consistency under concurrent updates (exactly like the exposition a
// scraper sees).
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type pending struct {
		fam *family
		ser *series
		fn  func() float64 // captured under the lock (GaugeFunc may be replaced)
	}
	flat := make([]pending, 0, 16)
	for _, f := range r.families {
		for _, s := range f.series {
			flat = append(flat, pending{f, s, s.fn})
		}
	}
	r.mu.Unlock()

	// Callbacks and atomic loads run outside the registry lock so a slow
	// GaugeFunc can never wedge concurrent registration.
	out := make([]Sample, 0, len(flat))
	for _, p := range flat {
		smp := Sample{Name: p.fam.name, Help: p.fam.help, Kind: p.fam.kind, Labels: p.ser.labels}
		switch p.fam.kind {
		case KindCounter:
			smp.Value = float64(p.ser.counter.Load())
		case KindGauge:
			smp.Value = float64(p.ser.gauge.Load())
		case KindGaugeFunc:
			if p.fn != nil {
				smp.Value = p.fn()
			}
		case KindHistogram:
			h := p.ser.hist.Snapshot()
			smp.Hist = &h
		}
		out = append(out, smp)
	}
	return out
}
