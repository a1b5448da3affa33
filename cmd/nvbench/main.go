// Command nvbench regenerates the paper's evaluation figures (§5) on the
// simulated persistent-memory substrate, and runs the YCSB suite against
// the durable KV store (store.Open, one shard unless -shards says more).
//
// Usage:
//
//	nvbench -panel 5a                 # one figure panel
//	nvbench -all                      # every panel (Figures 5 and 6 + shard panels)
//	nvbench -panel 5c -csv            # CSV for plotting
//	nvbench -list                     # list the panels
//	nvbench -scale 4 -threads 16 -dur 500ms -panel 6g
//	nvbench -ycsb A -shards 8         # one YCSB point against an 8-shard store
//	nvbench -ycsb C -shards 8 -batch 32
//	nvbench -ycsb E -kind skiplist    # range scans (ordered kinds only)
//	nvbench -ycsb U -kind list        # atomic in-place RMW workload
//	nvbench -panel yE                 # YCSB-E panel: ordered kinds x policies,
//	                                  # 1-shard + 4-shard store
//	nvbench -flushstats               # flushes/op per structure, NVTraverse
//	                                  # vs flush-everything, YCSB A/B/C
//
// The -scale flag divides the paper's structure sizes (all competitors
// share the substrate, so relative ordering is preserved); -threads caps
// the thread sweeps; -dur sets the measurement time per point (the
// NVBENCH_DUR environment variable overrides every duration). For -ycsb
// runs, -kind/-policy/-range/-threads/-shards/-batch pick the target.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pmem"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nvbench", flag.ContinueOnError)
	var (
		panelID = fs.String("panel", "", "figure panel to run (e.g. 5a, 6k, sA)")
		all     = fs.Bool("all", false, "run every panel")
		list    = fs.Bool("list", false, "list available panels")
		csv     = fs.Bool("csv", false, "emit CSV instead of a table")
		scale   = fs.Int("scale", 16, "divide the paper's structure sizes by this factor")
		threads = fs.Int("threads", 8, "cap thread sweeps (or thread count for -ycsb)")
		dur     = fs.Duration("dur", 150*time.Millisecond, "measurement duration per point")

		jsonOut    = fs.String("json", "", "run the baseline suite and write a BenchDoc JSON to this path")
		jsonCmp    = fs.String("cmp", "", "baseline BenchDoc to compare against (embeds rows + speedups into -json output)")
		jsonLabel  = fs.String("label", "", "label recorded in the -json document")
		jsonVerify = fs.String("verifyjson", "", "parse a BenchDoc JSON and assert every row has nonzero ops/s")
		tolerance  = fs.Float64("tolerance", 0, "with -cmp: fail when a zero-profile panel regressed beyond this fraction (0.35 = fail below 0.65x; 0 disables the gate)")

		flushes = fs.Bool("flushstats", false, "run the flush-accounting ablation (panels fA/fB/fC) and summarize flushes/op")
		ycsb    = fs.String("ycsb", "", "run one YCSB workload (A, B, C, D, E, F, U) instead of a panel")
		shards  = fs.Int("shards", 1, "store shard count for -ycsb")
		batch   = fs.Int("batch", 0, "read batch size for -ycsb")
		kind    = fs.String("kind", "hash", "structure kind for -ycsb")
		policy  = fs.String("policy", "nvtraverse", "persistence policy for -ycsb")
		keys    = fs.Uint64("range", 1<<16, "key range for -ycsb")
		profile = fs.String("profile", "nvram", "latency profile for -ycsb: nvram, dram, zero")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *scale < 1 || *threads < 1 || *keys < 1 {
		return fmt.Errorf("-scale, -threads and -range must be >= 1")
	}

	opts := bench.PanelOptions{SizeScale: *scale, ThreadCap: *threads, Duration: *dur}

	if *jsonVerify != "" {
		doc, err := bench.LoadBenchDoc(*jsonVerify)
		if err != nil {
			return err
		}
		if err := doc.Verify(); err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: ok (%d rows", *jsonVerify, len(doc.Rows))
		if len(doc.Speedups) > 0 {
			fmt.Fprintf(out, ", %d speedups", len(doc.Speedups))
		}
		fmt.Fprintln(out, ")")
		return nil
	}

	if *jsonOut != "" {
		rows, err := bench.RunBaseline(*dur, func(line string) { fmt.Fprintln(out, line) })
		if err != nil {
			return err
		}
		doc := bench.NewBenchDoc(*jsonLabel, rows)
		if *jsonCmp != "" {
			base, err := bench.LoadBenchDoc(*jsonCmp)
			if err != nil {
				return err
			}
			doc.Compare(base)
			for _, s := range doc.Speedups {
				fmt.Fprintf(out, "%-12s %10.0f -> %10.0f ops/s  %.2fx\n",
					s.Panel, s.BaseOpsPerSec, s.NewOpsPerSec, s.Speedup)
			}
			if warn := doc.MachineMismatch(); warn != "" {
				fmt.Fprintf(out, "warning: %s\n", warn)
			}
		}
		if err := doc.WriteFile(*jsonOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonOut)
		// Gate after writing: the capture exists as an artifact even when a
		// regression fails the run.
		if *jsonCmp != "" && *tolerance > 0 {
			if err := doc.GateRegressions(*tolerance); err != nil {
				return err
			}
			fmt.Fprintf(out, "regression gate: ok (zero-profile panels within %.0f%% of %s)\n",
				*tolerance*100, *jsonCmp)
		}
		return nil
	}

	if *list {
		for _, p := range bench.Panels(opts) {
			fmt.Fprintf(out, "%-3s %s (%d points)\n", p.ID, p.Title, len(p.Configs))
		}
		return nil
	}

	if *ycsb != "" {
		prof, err := profileByName(*profile)
		if err != nil {
			return err
		}
		cfg := bench.Config{
			Kind: core.Kind(*kind), Policy: *policy, Profile: prof,
			Threads: *threads, Range: *keys, Duration: *dur,
			Workload: *ycsb, Shards: *shards, BatchSize: *batch,
		}
		res, err := bench.Run(cfg)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprintln(out, bench.CSVHeader())
			fmt.Fprintln(out, res.CSV())
		} else {
			fmt.Fprintln(out, bench.Header())
			fmt.Fprintln(out, res.Row())
		}
		return nil
	}

	if *flushes {
		for _, p := range bench.FlushStatPanels(opts) {
			fmt.Fprintf(out, "\n== Panel %s: %s ==\n%s\n", p.ID, p.Title, bench.Header())
			var rs []bench.Result
			for _, cfg := range p.Configs {
				res, err := bench.Run(cfg)
				if err != nil {
					return fmt.Errorf("panel %s: %w", p.ID, err)
				}
				rs = append(rs, res)
				fmt.Fprintln(out, res.Row())
			}
			fmt.Fprintln(out)
			for _, line := range bench.FlushStatSummary(rs) {
				fmt.Fprintln(out, line)
			}
		}
		return nil
	}

	var panels []bench.Panel
	switch {
	case *all:
		panels = bench.Panels(opts)
	case *panelID != "":
		p, err := bench.PanelByID(opts, *panelID)
		if err != nil {
			return err
		}
		panels = []bench.Panel{p}
	default:
		return fmt.Errorf("need -panel <id>, -all, -list or -ycsb <wl>")
	}

	if *csv {
		fmt.Fprintln(out, bench.CSVHeader())
	}
	for _, p := range panels {
		if !*csv {
			fmt.Fprintf(out, "\n== Panel %s: %s ==\n%s\n", p.ID, p.Title, bench.Header())
		}
		for _, cfg := range p.Configs {
			res, err := bench.Run(cfg)
			if err != nil {
				return fmt.Errorf("panel %s: %w", p.ID, err)
			}
			if *csv {
				fmt.Fprintln(out, res.CSV())
			} else {
				fmt.Fprintln(out, res.Row())
			}
		}
	}
	return nil
}

func profileByName(name string) (pmem.Profile, error) {
	switch name {
	case "nvram":
		return pmem.ProfileNVRAM, nil
	case "dram":
		return pmem.ProfileDRAM, nil
	case "zero":
		return pmem.ProfileZero, nil
	}
	return pmem.Profile{}, fmt.Errorf("unknown profile %q", name)
}
