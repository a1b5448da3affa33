package main

import (
	"math/bits"
	"slices"
)

// hist is a log-linear histogram of nanosecond durations: 128 linear
// sub-buckets per power of two, so a bucket is at most 1/128 (0.8 %) of its
// value wide, and quantiles interpolate by rank inside the bucket. It is the
// benchmark's own (internal/bench's is too coarse for a 10 % bound, and
// ROADMAP item 1 moves it).
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	max    uint64
}

const (
	histSub     = 128
	histMaxBits = 40 // values are clamped below 2^40 ns (18 minutes)
	histBuckets = histSub * (histMaxBits - 6)
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 8
	return histSub*(shift+1) + int(v>>shift) - histSub
}

// histBounds returns bucket i's lowest value and its width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	shift := i/histSub - 1
	return float64(uint64(histSub+i%histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) record(ns int64) {
	v := uint64(max(ns, 0))
	h.max = max(h.max, v)
	h.counts[histIndex(min(v, 1<<histMaxBits-1))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// quantile returns the q-quantile in nanoseconds (0 when empty).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	seen := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return float64(h.max)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(vs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
