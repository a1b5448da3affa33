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
//	nvbench -flushstats               # the claims table: exact flush and fence
//	                                  # counts, and the paper's findings checked
//
// The -scale flag divides the paper's structure sizes (all competitors
// share the substrate, so relative ordering is preserved); -threads caps
// the thread sweeps; -dur sets the measurement time per point (the
// NVBENCH_DUR environment variable overrides every duration). For -ycsb
// runs, -kind/-policy/-range/-threads/-shards/-batch pick the target.
// -flushstats takes none of these: its runs are fixed and seeded (see
// bench.ClaimRuns), and it exits non-zero when a claim fails. The flush
// ablation panels fA, fB and fC time the same comparison under -panel.
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

		flushes = fs.Bool("flushstats", false, "print the claims table (exact seeded flush/fence counts) and check the paper's findings on it")
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
		return flushStats(out)
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

// flushStats prints the claims table: every claims run's exact counts, then
// each of the paper's findings with ok or FAIL. A failed claim is an error.
func flushStats(out io.Writer) error {
	counts, err := bench.RunClaimCounts()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-32s %9s %7s %9s %9s %8s %8s\n",
		"run", "flushes", "elided", "fences", "flush/op", "elide/op", "fence/op")
	for _, r := range bench.ClaimRuns() {
		c := counts[r.Name()]
		fmt.Fprintf(out, "%-32s %9d %7d %9d %9.2f %8.2f %8.2f\n", r.Name(),
			c.Flushes, c.Elided, c.Fences, c.FlushPerOp(), c.ElidePerOp(), c.FencePerOp())
	}
	failed := 0
	fmt.Fprintln(out)
	for _, cl := range bench.Claims() {
		if err := cl.Check(counts); err != nil {
			failed++
			fmt.Fprintf(out, "FAIL %s\n     %v\n", cl.Finding, err)
			continue
		}
		fmt.Fprintf(out, "ok   %s\n", cl.Finding)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d claims failed", failed, len(bench.Claims()))
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
