package main

import (
	"math"
	"sort"
	"testing"
)

func TestHistBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 123456789, 1<<histMaxBits - 1} {
		i := histIndex(v)
		lo, width := histBounds(i)
		if i < 0 || i >= histBuckets || float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d: bucket %d covers [%g, %g)", v, i, lo, lo+width)
		}
		if v >= histSub && width/lo > 1.0/histSub {
			t.Errorf("value %d: bucket is %.4f of its value wide", v, width/lo)
		}
	}
}

func TestHistQuantileError(t *testing.T) {
	r := rng(3)
	var h hist
	var exact []float64
	for i := 0; i < 200000; i++ {
		// Log-uniform over 100 ns .. 100 ms, the range latencies live in.
		v := int64(100 * math.Pow(1e6, r.float()))
		h.record(v)
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		if got := h.quantile(q); math.Abs(got-want)/want > 0.01 {
			t.Errorf("q%g = %g, exact %g: off by more than 1 %%", q, got, want)
		}
	}
	if h.max != uint64(exact[len(exact)-1]) {
		t.Errorf("max %d, want %g", h.max, exact[len(exact)-1])
	}
	var merged hist
	merged.merge(&h)
	merged.merge(&h)
	if merged.n != 2*h.n || merged.quantile(0.5) != h.quantile(0.5) {
		t.Errorf("merging a histogram with itself moved its median")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
