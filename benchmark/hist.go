package main

import (
	"math"
	"math/bits"
	"sort"
)

// hist is the benchmark's own latency histogram: log-linear buckets, 128 per
// power of two, so a bucket is at most 1/128 (0.78 %) wide. obs.Histogram's
// power-of-two buckets put p95 and p99 of a loopback open on the same edge;
// these do not. Values are nanoseconds; everything below 256 ns is exact.
type hist struct {
	counts []uint32
	n      uint64
	sum    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxShift caps values at 2^40 ns (18 minutes), far beyond any run.
	histMaxShift = 40 - histSubBits - 1
	histBuckets  = (histMaxShift + 2) * histSub
)

func newHist() *hist { return &hist{counts: make([]uint32, histBuckets)} }

func histBucket(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	if shift > histMaxShift {
		return histBuckets - 1
	}
	return shift*histSub + int(v>>uint(shift))
}

// histBounds returns the lowest value of bucket i and the bucket's width.
func histBounds(i int) (low, width int64) {
	if i < 2*histSub {
		return int64(i), 1
	}
	shift := uint(i/histSub - 1)
	return int64(i%histSub+histSub) << shift, 1 << shift
}

func (h *hist) observe(v int64) {
	h.counts[histBucket(v)]++
	h.n++
	if v > 0 {
		h.sum += uint64(v)
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile (0 < q <= 1) by the nearest-rank rule,
// interpolated linearly inside the bucket that holds the rank, and how many
// samples lie beyond that rank. An empty histogram reports 0.
func (h *hist) quantile(q float64) (value float64, beyond uint64) {
	if h.n == 0 {
		return 0, 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+uint64(c) >= rank {
			low, width := histBounds(i)
			within := (float64(rank-seen) - 0.5) / float64(c)
			return float64(low) + within*float64(width), h.n - rank
		}
		seen += uint64(c)
	}
	return 0, 0
}

// median of a set of per-segment values; segments with nothing to report are
// passed as NaN and left out.
func median(vals []float64) float64 {
	kept := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) {
			kept = append(kept, v)
		}
	}
	if len(kept) == 0 {
		return 0
	}
	sort.Float64s(kept)
	m := len(kept) / 2
	if len(kept)%2 == 1 {
		return kept[m]
	}
	return (kept[m-1] + kept[m]) / 2
}

// segmentQuantile is the rule every reported percentile follows: the
// q-quantile of each segment's histogram, then the median over segments. It
// also returns the smallest "samples beyond the rank" any segment had.
func segmentQuantile(segs []*hist, q float64) (value float64, minBeyond uint64) {
	vals := make([]float64, len(segs))
	minBeyond = math.MaxUint64
	for i, h := range segs {
		if h.n == 0 {
			vals[i] = math.NaN()
			continue
		}
		v, beyond := h.quantile(q)
		vals[i] = v
		minBeyond = min(minBeyond, beyond)
	}
	if minBeyond == math.MaxUint64 {
		minBeyond = 0
	}
	return median(vals), minBeyond
}
