// Package bench is the throughput harness that regenerates the paper's
// evaluation (§5): prefill a structure to half its key range, run T worker
// threads issuing a YCSB-style uniform-key mix of lookups, inserts and
// deletes for a fixed duration, and report throughput plus the per-
// operation flush and fence counts (the hardware-independent quantity the
// NVTraverse transformation controls).
package bench

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/onefile"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// Config is one benchmark run.
type Config struct {
	Kind      core.Kind
	Policy    string // a persist.ByName name, or "onefile"
	Profile   pmem.Profile
	Threads   int
	Range     uint64 // keys drawn from [1, Range]; prefill Range/2
	UpdatePct int    // percent updates (split evenly insert/delete)
	Duration  time.Duration

	// Workload selects a YCSB-style workload (see Workloads); empty runs
	// the paper's uniform lookup/insert/delete mix above on a bare
	// structure.
	Workload string
	// Shards is the shard count of the store a YCSB run opens (≤ 0 opens
	// one shard). Shards > 0 with an empty Workload runs RunYCSB's uniform
	// read/upsert mix on the store.
	Shards int
	// BatchSize > 1 groups YCSB reads into MultiGet batches of this size
	// (one commit fence per shard group per batch).
	BatchSize int
}

// Result is one benchmark outcome. FlushPerOp counts clwb instructions
// actually issued per operation; ElidePerOp counts Flush calls the line
// model coalesced away (see pmem.Stats.FlushesElided) — their sum is the
// number of Flush calls the persistence policy made.
type Result struct {
	Config
	Ops        uint64
	Mops       float64 // million operations per second
	FlushPerOp float64
	ElidePerOp float64
	FencePerOp float64
}

// Target is the operation surface the harness drives.
type Target interface {
	Insert(t *pmem.Thread, key, value uint64) bool
	Delete(t *pmem.Thread, key uint64) bool
	Find(t *pmem.Thread, key uint64) (uint64, bool)
}

// Build constructs the structure for cfg on a fresh fast-mode memory and
// returns it with the memory.
func Build(cfg Config) (Target, *pmem.Memory, error) {
	mem := pmem.New(pmem.Config{
		Mode:       pmem.ModeFast,
		Profile:    cfg.Profile,
		MaxThreads: cfg.Threads + 10,
	})
	if cfg.Policy == "onefile" {
		switch cfg.Kind {
		case core.KindList:
			return onefile.NewListSet(mem), mem, nil
		case core.KindEllenBST, core.KindNMBST:
			return onefile.NewBSTSet(mem), mem, nil
		default:
			return nil, nil, fmt.Errorf("bench: onefile supports list and bst only (paper §5)")
		}
	}
	pol, ok := persist.ByName(cfg.Policy)
	if !ok {
		return nil, nil, fmt.Errorf("bench: unknown policy %q", cfg.Policy)
	}
	s, err := core.NewSet(cfg.Kind, mem, pol, core.Params{SizeHint: int(cfg.Range)})
	if err != nil {
		return nil, nil, err
	}
	return s, mem, nil
}

// Prefill inserts every other key in [1, Range] (Range/2 keys), in
// parallel and in *shuffled* order, mirroring the paper's uniform-random
// prefill. Order matters beyond fidelity: the external BSTs are
// unbalanced, so an ascending prefill would degenerate them into
// Range/2-deep paths and poison every measurement on them.
func Prefill(s Target, mem *pmem.Memory, cfg Config) {
	workers := cfg.Threads
	if workers > 8 {
		workers = 8
	}
	if workers < 1 {
		workers = 1
	}
	ths := make([]*pmem.Thread, workers)
	for i := range ths {
		ths[i] = mem.NewThread()
	}
	prefillShuffled(cfg.Range, workers,
		func(w int) uint64 { return ths[w].Rand() },
		func(w int, k uint64) { s.Insert(ths[w], k, k) })
}

// prefillShuffled is the partition-and-shuffle core shared by Prefill and
// RunYCSB: worker w owns every workers-th odd key of [1, rangeMax] and
// inserts its share in Fisher–Yates order. rnd and insert are only called
// from worker w's goroutine.
func prefillShuffled(rangeMax uint64, workers int, rnd func(w int) uint64, insert func(w int, k uint64)) {
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]uint64, 0, rangeMax/(2*uint64(workers))+1)
			for k := 1 + 2*uint64(w); k <= rangeMax; k += 2 * uint64(workers) {
				keys = append(keys, k)
			}
			for i := len(keys) - 1; i > 0; i-- { // Fisher–Yates
				j := rnd(w) % uint64(i+1)
				keys[i], keys[j] = keys[j], keys[i]
			}
			for _, k := range keys {
				insert(w, k)
			}
		}(w)
	}
	wg.Wait()
}

// EffectiveDuration applies the NVBENCH_DUR environment override: when the
// variable holds a parseable duration it replaces every configured
// measurement duration. CI and the smoke targets use it to keep the
// calibrated spin loops from burning wall-clock.
func EffectiveDuration(d time.Duration) time.Duration {
	if s := os.Getenv("NVBENCH_DUR"); s != "" {
		if o, err := time.ParseDuration(s); err == nil && o > 0 {
			return o
		}
	}
	return d
}

// Run executes one benchmark configuration: YCSB-workload and sharded
// configurations go to RunYCSB on a store, the paper's uniform mix to
// Build, Prefill and Measure on a bare structure.
func Run(cfg Config) (Result, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.Workload != "" || cfg.Shards > 0 {
		return RunYCSB(cfg)
	}
	s, mem, err := Build(cfg)
	if err != nil {
		return Result{}, err
	}
	Prefill(s, mem, cfg)
	return Measure(s, mem, cfg), nil
}

// Measure runs the timed phase on an already-prefilled structure. It can
// be called repeatedly on the same structure (steady-state measurement).
func Measure(s Target, mem *pmem.Memory, cfg Config) Result {
	mem.ResetStats()
	// Reuse registered threads beyond the prefill workers.
	ths := append([]*pmem.Thread(nil), mem.Threads()...)
	for len(ths) < cfg.Threads {
		ths = append(ths, mem.NewThread())
	}
	return timed(cfg, cfg.Threads, func(i int, stop *atomic.Bool) uint64 {
		th := ths[i]
		var ops uint64
		// Do-while: even if the stop flag wins the race with this
		// goroutine's first schedule (tiny CI durations), every thread
		// contributes at least one block, so no run measures zero ops.
		for {
			for j := 0; j < 32; j++ {
				k := th.Rand()%cfg.Range + 1
				r := int(th.Rand() % 100)
				switch {
				case r < cfg.UpdatePct/2:
					s.Insert(th, k, k)
				case r < cfg.UpdatePct:
					s.Delete(th, k)
				default:
					s.Find(th, k)
				}
				ops++
			}
			if stop.Load() {
				return ops
			}
		}
	}, mem.Stats)
}

// timed runs worker(i, stop) on n goroutines for cfg's effective duration;
// each returns its op count once stop is set. The result's per-op counters
// come from what stats reports afterwards.
func timed(cfg Config, n int, worker func(i int, stop *atomic.Bool) uint64, stats func() pmem.Stats) Result {
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			total.Add(worker(i, &stop))
		}(i)
	}
	time.Sleep(EffectiveDuration(cfg.Duration))
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	st, ops := stats(), total.Load()
	res := Result{Config: cfg, Ops: ops, Mops: float64(ops) / elapsed.Seconds() / 1e6}
	if ops > 0 {
		res.FlushPerOp = float64(st.Flushes) / float64(ops)
		res.ElidePerOp = float64(st.FlushesElided) / float64(ops)
		res.FencePerOp = float64(st.Fences) / float64(ops)
	}
	return res
}

// wl is the workload column value ("-" for the paper's uniform mix).
func (r Result) wl() string {
	if r.Workload == "" {
		return "-"
	}
	return r.Workload
}

// Row renders a result as an aligned table row.
func (r Result) Row() string {
	return fmt.Sprintf("%-9s %-12s %-6s %4d %9d %5d%% %-3s %3d %9.3f %8.2f %8.2f %8.2f",
		r.Kind, r.Policy, r.Profile.Name, r.Threads, r.Range, r.UpdatePct,
		r.wl(), r.Shards, r.Mops, r.FlushPerOp, r.ElidePerOp, r.FencePerOp)
}

// Header is the table header matching Row.
func Header() string {
	h := fmt.Sprintf("%-9s %-12s %-6s %4s %9s %6s %-3s %3s %9s %8s %8s %8s",
		"struct", "policy", "mem", "thr", "range", "upd", "wl", "sh",
		"Mops/s", "flush/op", "elide/op", "fence/op")
	return h + "\n" + strings.Repeat("-", len(h))
}

// CSV renders a result as a CSV line (for plotting). The shards column is
// 0 for a bare structure, the store's shard count otherwise.
func (r Result) CSV() string {
	return fmt.Sprintf("%s,%s,%s,%d,%d,%d,%s,%d,%.4f,%.3f,%.3f,%.3f",
		r.Kind, r.Policy, r.Profile.Name, r.Threads, r.Range, r.UpdatePct,
		r.wl(), r.Shards, r.Mops, r.FlushPerOp, r.ElidePerOp, r.FencePerOp)
}

// CSVHeader matches CSV.
func CSVHeader() string {
	return "struct,policy,mem,threads,range,update_pct,workload,shards,mops,flush_per_op,elide_per_op,fence_per_op"
}
