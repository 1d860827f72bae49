package main

import (
	"math"
	"testing"
)

func TestHistBucketsAreNarrowAndContiguous(t *testing.T) {
	prevLow, prevWidth := int64(-1), int64(1)
	for i := 0; i < histBuckets; i++ {
		low, width := histBounds(i)
		if low != prevLow+prevWidth {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, low, prevLow+prevWidth)
		}
		if width > 1 && float64(width)/float64(low) > 1.0/histSub {
			t.Fatalf("bucket %d [%d,+%d) is wider than 1/%d of its value", i, low, width, histSub)
		}
		for _, v := range []int64{low, low + width - 1} {
			if got := histBucket(v); got != i {
				t.Fatalf("value %d lands in bucket %d, want %d", v, got, i)
			}
		}
		prevLow, prevWidth = low, width
	}
	if got := histBucket(math.MaxInt64); got != histBuckets-1 {
		t.Fatalf("huge value lands in bucket %d, want the last (%d)", got, histBuckets-1)
	}
}

func TestHistQuantile(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 1000; v++ {
		h.observe(v * 1000) // 1 us .. 1 ms
	}
	for _, c := range []struct {
		q          float64
		want       float64
		wantBeyond uint64
	}{
		{0.50, 500e3, 500}, {0.95, 950e3, 50}, {0.99, 990e3, 10}, {1.0, 1000e3, 0},
	} {
		got, beyond := h.quantile(c.q)
		if math.Abs(got-c.want)/c.want > 1.0/histSub {
			t.Errorf("q%.2f = %.0f, want %.0f within a bucket", c.q, got, c.want)
		}
		if beyond != c.wantBeyond {
			t.Errorf("q%.2f leaves %d samples beyond, want %d", c.q, beyond, c.wantBeyond)
		}
	}
	// p95 and p99 of a loopback-like distribution must not collapse onto
	// one power-of-two edge, which is what obs.Histogram does.
	p95, _ := h.quantile(0.95)
	p99, _ := h.quantile(0.99)
	if p99 <= p95 {
		t.Errorf("p99 %.0f <= p95 %.0f", p99, p95)
	}
	if mean := float64(h.sum) / float64(h.n); math.Abs(mean-500500) > 1 {
		t.Errorf("sum / n = %.1f, want 500500", mean)
	}
	if v, beyond := newHist().quantile(0.5); v != 0 || beyond != 0 {
		t.Errorf("empty histogram reports %v, %d", v, beyond)
	}
}

func TestMedianAndSegmentQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	if got := median([]float64{math.NaN(), 7, math.NaN()}); got != 7 {
		t.Errorf("median ignoring empty segments = %v", got)
	}

	// Nine quiet segments and one disturbed one: the reported percentile
	// is a quiet segment's, and the sample count is the smallest seen.
	segs := make([]*hist, 10)
	for i := range segs {
		segs[i] = newHist()
		scale := int64(1)
		if i == 4 {
			scale = 50
		}
		for v := int64(1); v <= 200; v++ {
			segs[i].observe(v * 100 * scale)
		}
	}
	segs[7] = newHist() // an empty segment is left out
	got, beyond := segmentQuantile(segs, 0.95)
	if math.Abs(got-19000)/19000 > 1.0/histSub {
		t.Errorf("segment p95 = %.0f, want 19000", got)
	}
	if beyond != 10 {
		t.Errorf("samples beyond = %d, want 10", beyond)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of powers of two = %v %v %v", q1, q2, q3)
	}
}
