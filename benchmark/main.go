// Command benchmark is the repository's benchmark: six workloads from the
// bare in-process structure to a replicated server with a write quorum,
// each reporting the same gated end-to-end metrics, plus a traced run that
// prices the layers one by one from outside. See README.md.
//
//	bash benchmark/run.sh                                  # every workload
//	bash benchmark/run.sh --workload wire-a --seed 3       # one workload
//	bash benchmark/run.sh --workload wire-a --trace 1      # the latency ladder
//	bash benchmark/run.sh --repeat 5 --out a               # five runs each into a/results.json
//	bash benchmark/run.sh --compare a/results.json b/results.json
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// record is one run of one workload: the last line of its output, and an
// entry of results.json.
type record struct {
	Workload  string             `json:"workload,omitempty"`
	Seed      uint64             `json:"seed,omitempty"`
	Seconds   float64            `json:"seconds,omitempty"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
	Info      map[string]reading `json:"info,omitempty"`
}

// reading is a metric's value as the output carries it.
type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all of them)")
		seed    = fs.Uint64("seed", 1, "seed of the generated request streams")
		seconds = fs.Float64("seconds", 10, "length of the measured window")
		trace   = fs.Int("trace", 0, "1 runs the traced latency ladder and reports the per-layer metrics instead")
		out     = fs.String("out", "", "directory for results.json and trace.json (default .bench_build/out)")
		repeat  = fs.Int("repeat", 1, "runs per workload")
		compare = fs.Bool("compare", false, "compare two results.json files (arguments) against the declared bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles(fs.Args())
	}
	selected := workloads
	if *trace == 1 {
		// The ladder is one run, the same whatever workload it is asked
		// under; a name only labels it.
		selected = []workload{{name: "ladder"}}
	}
	if *name != "" {
		selected = nil
		for _, wl := range workloads {
			if wl.name == *name {
				selected = []workload{wl}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
	}

	e, err := newEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Children and the temporary directory go on every exit path: normal
	// return, a panic on this goroutine, and SIGINT/SIGTERM. A death no
	// handler sees is covered by childAttr.
	defer e.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.cleanup()
		os.Exit(130)
	}()
	if err := e.buildServer(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out == "" {
		*out = filepath.Join(e.root, buildDir, "out")
	}

	var records []record
	code := 0
	for i := 0; i < *repeat; i++ {
		for _, wl := range selected {
			var rec record
			if *trace == 1 {
				rec, err = runLadder(e, *seed, *seconds, *out)
			} else {
				rec, err = runWorkload(e, wl, *seed, *seconds, repetitions)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", wl.name, err)
				return 1
			}
			rec.Workload, rec.Seed, rec.Seconds = wl.name, *seed, *seconds
			records = append(records, rec)
			printRecord(rec)
			if !rec.Correct {
				code = 1
			}
		}
	}
	if err := appendRecords(*out, records); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// runWorkload measures one workload: reps independent repetitions of set-up,
// warm-up, measured interval and verification, each on a fresh system and
// its own sub-stream of the seed. Every gated metric is the median over the
// repetitions; seconds is the measuring time of the whole run.
func runWorkload(e *env, wl workload, seed uint64, seconds float64, reps int) (record, error) {
	defer e.watchdog(seconds).Stop()

	samples := map[string][]float64{}
	units := map[string]string{}
	sample := func(ms []metric) {
		for _, m := range ms {
			samples[m.name] = append(samples[m.name], m.value)
			units[m.name] = m.unit
		}
	}
	var total tally
	counters := map[string]float64{}
	var info []metric
	for rep := 0; rep < reps; rep++ {
		err := func() error {
			start := time.Now()
			in, err := wl.setup(e, seed*repetitions+uint64(rep))
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			defer in.close()
			setup := time.Since(start).Seconds()

			w := newWindow(seconds / float64(reps))
			edges := make(chan edge, 2)
			go func() {
				// The public counters and the data directory are read at
				// the edges of the measured interval, not of the warm-up.
				for _, at := range []int64{w.start, w.end} {
					time.Sleep(time.Duration(at - w.now()))
					c, err := in.counters()
					edges <- edge{c, in.diskBytes(), err}
				}
			}()
			t, err := in.run(w)
			before, after := <-edges, <-edges
			if err = cmp.Or(err, before.err, after.err); err != nil {
				return err
			}
			for k, v := range after.counters {
				counters[k] += v - before.counters[k]
			}
			disk := after.disk - before.disk
			sample(summarize(t, w))
			// The 16-byte payload keeps the metric off zero where nothing
			// is stored.
			sample([]metric{
				{"bytes_per_write", 16 + float64(disk)/float64(max(t.acked, 1)), "B"},
				{"setup_s", setup, "s"},
			})
			if info, err = in.verify(t); err != nil {
				return err
			}
			total.add(t)
			return nil
		}()
		if err != nil {
			return record{}, err
		}
	}

	rec := record{
		Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed,
		Metrics: map[string]reading{}, Info: map[string]reading{},
	}
	for name, vs := range samples {
		rec.Metrics[name] = reading{median(vs), units[name]}
	}
	info = append(info,
		metric{"ops_s_min", slices.Min(samples["ops_s"]), "ops/s"},
		metric{"ops_s_max", slices.Max(samples["ops_s"]), "ops/s"})
	info = append(info, tails(&total)...)
	info = append(info, counterInfo(counters)...)
	for _, m := range info {
		rec.Info[m.name] = reading{m.value, m.unit}
	}
	if total.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed; first: %s\n", wl.name, total.failed, total.attempted, total.firstFailure)
	}
	return rec, nil
}

// edge is what the system's public calls and its data directory show at one
// end of the measured interval.
type edge struct {
	counters map[string]float64
	disk     int64
	err      error
}

// counterInfo turns what the system's public counters added up to over the
// measured intervals into per-operation ratios, printed beside the gated
// metrics.
func counterInfo(d map[string]float64) (ms []metric) {
	for _, r := range []struct{ name, num, den string }{
		{"pmem.flush_per_op", "flushes", "ops"},
		{"pmem.flush_elided_per_op", "flushes_elided", "ops"},
		{"pmem.fence_per_op", "fences", "ops"},
		{"batcher.ops_per_flush", "batch_ops", "batch_flushes"},
		{"batcher.groups_per_flush", "batch_groups", "batch_flushes"},
	} {
		if d[r.den] != 0 {
			ms = append(ms, metric{r.name, d[r.num] / d[r.den], "count"})
		}
	}
	return ms
}

func printRecord(rec record) {
	verdict := "correct"
	if !rec.Correct {
		verdict = "INCORRECT"
	}
	fmt.Printf("%s  seed %d  %gs  %s  (%d checked, %d failed)\n", rec.Workload, rec.Seed, rec.Seconds, verdict, rec.Attempted, rec.Failed)
	for _, group := range []struct {
		tag string
		ms  map[string]reading
	}{{"", rec.Metrics}, {"info ", rec.Info}} {
		for _, name := range slices.Sorted(maps.Keys(group.ms)) {
			fmt.Printf("  %s%-28s %14.4f %s\n", group.tag, name, group.ms[name].Value, group.ms[name].Unit)
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted uint64             `json:"attempted"`
		Failed    uint64             `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Printf("%s\n", line)
}

// appendRecords adds the records to <dir>/results.json. The file grows, so
// two checkouts can be run in turn into two directories and compared.
func appendRecords(dir string, records []record) error {
	path := filepath.Join(dir, "results.json")
	var all []record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(append(all, records...), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
