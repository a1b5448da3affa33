package main

import (
	"fmt"
	"time"
)

// repetitions is how many independent times a run sets the system up and
// measures it; every gated metric is the median over them. A server
// process settles into a rhythm of its own (how its connections and
// group-commit timers interleave, how its fsyncs batch in the journal) and
// keeps it for life, so slices of one process agree with each other and
// disagree with the next process. Fresh processes are what averages that
// out, and the same repetitions give setup_s its several samples.
const repetitions = 5

// window is one repetition's measured interval, on a clock shared by every
// client: a warm-up of a quarter of the interval, then the interval.
type window struct {
	t0         time.Time
	start, end int64 // ns after t0
}

func newWindow(seconds float64) window {
	d := int64(seconds * 1e9)
	return window{t0: time.Now(), start: d / 4, end: d/4 + d}
}

func (w window) now() int64 { return int64(time.Since(w.t0)) }

// in reports whether t falls inside the measured interval.
func (w window) in(t int64) bool { return t >= w.start && t < w.end }

func (w window) seconds() float64 { return float64(w.end-w.start) / 1e9 }

// tally is what one client measured inside the window, and the oracle's
// verdict on every reply it checked (warm-up and drain included).
type tally struct {
	ops           uint64
	reads, writes hist
	acked         uint64 // writes acknowledged inside the window

	attempted, failed uint64
	firstFailure      string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o *tally) {
	t.ops += o.ops
	t.reads.merge(&o.reads)
	t.writes.merge(&o.writes)
	t.acked += o.acked
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// metric is one reported number. Gated metrics are the end-to-end ones
// BENCHMARK.json declares; the rest are printed beside them as information.
type metric struct {
	name  string
	value float64
	unit  string
}

// summarize turns one repetition's tally into its throughput and latency
// metrics. A quantile of a 1-in-8 sample estimates the same quantile, so
// sampled latencies are not scaled.
func summarize(t *tally, w window) []metric {
	return []metric{
		{"ops_s", float64(t.ops) / w.seconds(), "ops/s"},
		{"read_p50_us", t.reads.quantile(0.50) / 1e3, "us"},
		{"read_p95_us", t.reads.quantile(0.95) / 1e3, "us"},
		{"write_p50_us", t.writes.quantile(0.50) / 1e3, "us"},
		{"write_p95_us", t.writes.quantile(0.95) / 1e3, "us"},
	}
}

// tails are the ungated latency figures of a whole run: with the MaxDelay
// floor removed, five 3 s runs gave p99 between 0.87 and 1.25 ms, so p99
// cannot be gated at these run lengths on a shared 2-CPU machine.
func tails(t *tally) (info []metric) {
	for _, k := range []struct {
		name string
		h    *hist
	}{{"read", &t.reads}, {"write", &t.writes}} {
		info = append(info,
			metric{k.name + "_p99_us", k.h.quantile(0.99) / 1e3, "us"},
			metric{k.name + "_p99.9_us", k.h.quantile(0.999) / 1e3, "us"},
			metric{k.name + "_max_us", float64(k.h.max) / 1e3, "us"},
			metric{k.name + "_samples", float64(k.h.n), "count"},
		)
	}
	return info
}
