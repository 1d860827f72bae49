package obs

import (
	"testing"
	"time"
)

// The benchmarks below measure the overhead DESIGN.md §7 leaves to
// them: instrument cost on the hot path (counter add, histogram
// observe) and the cost of the nil fast path when no registry is
// configured.

func BenchmarkCounterInc(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncNil(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewCounter()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkHistogramObserveNil(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkHistogramObserveDuration(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i))
	}
}

func BenchmarkEventLogRecord(b *testing.B) {
	l := NewEventLog(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Record("bench", F("k", "v"))
	}
}

func BenchmarkRegistrySnapshot(b *testing.B) {
	r := populated()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Snapshot()
	}
}
