package bench

// Go benchmarks over the panel and flush-accounting machinery. CI runs
// them once per commit (`go test -run=NONE -bench=. -benchtime=1x` with a
// tiny NVBENCH_DUR), so the ablation panels and the flush/elide counters
// are exercised end to end on every change and cannot silently rot.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
)

func benchCfg(kind core.Kind, policy, wl string) Config {
	return Config{
		Kind: kind, Policy: policy, Profile: pmem.ProfileZero,
		Threads: 2, Range: 512, Workload: wl,
		Duration: 20 * time.Millisecond, // NVBENCH_DUR overrides
	}
}

// BenchmarkFlushAblationListA reports the paper's headline quantity —
// issued flushes per operation, NVTraverse vs flush-everything — for the
// traversal-heaviest structure on the write-heavy YCSB-A mix.
func BenchmarkFlushAblationListA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nv, err := Run(benchCfg(core.KindList, "nvtraverse", "A"))
		if err != nil {
			b.Fatal(err)
		}
		iz, err := Run(benchCfg(core.KindList, "izraelevitz", "A"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(nv.FlushPerOp, "nv-flush/op")
		b.ReportMetric(nv.ElidePerOp, "nv-elide/op")
		b.ReportMetric(iz.FlushPerOp, "iz-flush/op")
		if nv.FlushPerOp > 0 {
			b.ReportMetric(iz.FlushPerOp/nv.FlushPerOp, "iz/nv-ratio")
		}
	}
}

// BenchmarkFlushStatPanelRow runs one row of each flush-ablation panel so
// the panel plumbing itself stays executable.
func BenchmarkFlushStatPanelRow(b *testing.B) {
	o := PanelOptions{SizeScale: 1024, ThreadCap: 2, Duration: 10 * time.Millisecond}
	var panels []Panel
	for _, id := range []string{"fA", "fB", "fC"} {
		p, err := PanelByID(o, id)
		if err != nil {
			b.Fatal(err)
		}
		panels = append(panels, p)
	}
	for i := 0; i < b.N; i++ {
		for _, p := range panels {
			res, err := Run(p.Configs[0])
			if err != nil {
				b.Fatalf("panel %s: %v", p.ID, err)
			}
			b.ReportMetric(res.FlushPerOp, p.ID+"-flush/op")
		}
	}
}

// BenchmarkEngineYCSBA drives the sharded engine through the YCSB runner,
// covering the engine-side flush accounting (Stats().Total aggregation).
func BenchmarkEngineYCSBA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(core.KindHash, "nvtraverse", "A")
		cfg.Shards = 4
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FlushPerOp, "flush/op")
		b.ReportMetric(res.ElidePerOp, "elide/op")
		b.ReportMetric(res.FencePerOp, "fence/op")
	}
}

// BenchmarkYCSBScanSkiplist runs YCSB-E on the skiplist, 1-shard vs
// 4-shard store (merged scans), reporting the per-op flush cost of the
// destination-only scan persistence.
func BenchmarkYCSBScanSkiplist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		single, err := Run(benchCfg(core.KindSkiplist, "nvtraverse", "E"))
		if err != nil {
			b.Fatal(err)
		}
		cfg := benchCfg(core.KindSkiplist, "nvtraverse", "E")
		cfg.Shards = 4
		sharded, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(single.FlushPerOp, "single-flush/op")
		b.ReportMetric(sharded.FlushPerOp, "engine-flush/op")
	}
}

// BenchmarkYCSBAtomicRMW runs the RMW-heavy workload U through the atomic
// in-place Update path.
func BenchmarkYCSBAtomicRMW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := Run(benchCfg(core.KindHash, "nvtraverse", "U"))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.FlushPerOp, "flush/op")
		b.ReportMetric(res.FencePerOp, "fence/op")
	}
}
