// ycsb: run the YCSB-style workload suite (A: 50/50 read-update, B: 95/5,
// C: read-only, D: read-latest, E: range scans, F: read-modify-write,
// U: atomic in-place RMW; zipf-skewed keys) against the durable KV store
// (NVTraverse hash table) at several shard counts — one shard is the bare
// structure plus a session — then show what read batching does to the
// fence count. Workload E needs a key order, so its rows run on the
// skiplist while the rest use the hash table. Set NVBENCH_DUR to change
// the per-point measurement time (the default keeps the whole run to a few
// seconds).
package main

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/pmem"
)

func main() {
	base := bench.Config{
		Kind:     core.KindHash,
		Policy:   "nvtraverse",
		Profile:  pmem.ProfileNVRAM,
		Threads:  4,
		Range:    1 << 14,
		Duration: 40 * time.Millisecond,
	}

	fmt.Println("YCSB suite: 1, 4 and 16 shards (hash, nvtraverse)")
	fmt.Println(bench.Header())
	for _, wl := range bench.Workloads() {
		for _, shards := range []int{1, 4, 16} {
			cfg := base
			cfg.Workload = wl.Name
			cfg.Shards = shards
			if wl.ScanPct > 0 {
				cfg.Kind = core.KindSkiplist // scans need an ordered kind
			}
			res, err := bench.Run(cfg)
			if err != nil {
				panic(err)
			}
			fmt.Println(res.Row())
		}
	}

	fmt.Println("\nRead batching on 8 shards (YCSB-C): one commit fence per shard batch")
	fmt.Println(bench.Header())
	for _, batch := range []int{0, 8, 64} {
		cfg := base
		cfg.Workload = "C"
		cfg.Shards = 8
		cfg.BatchSize = batch
		res, err := bench.Run(cfg)
		if err != nil {
			panic(err)
		}
		fmt.Println(res.Row())
	}
}
