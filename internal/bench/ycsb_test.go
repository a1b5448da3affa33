package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
)

func ycsbCfg(wl string, shards int) Config {
	return Config{
		Kind: core.KindHash, Policy: "nvtraverse", Profile: pmem.ProfileZero,
		Threads: 2, Range: 512, Duration: quickDur(15 * time.Millisecond),
		Workload: wl, Shards: shards,
	}
}

func TestWorkloadsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Workloads() {
		sum := w.ReadPct + w.UpdatePct + w.InsertPct + w.RMWPct + w.ScanPct + w.AtomicPct
		if sum != 100 {
			t.Fatalf("workload %s percentages sum to %d", w.Name, sum)
		}
		seen[w.Name] = true
	}
	for _, name := range []string{"A", "B", "C", "D", "E", "F", "U"} {
		if !seen[name] {
			t.Fatalf("workload %s missing", name)
		}
	}
	if _, ok := workloadByName("ycsb-a"); !ok {
		t.Fatal("ycsb-a alias not resolved")
	}
	if _, ok := workloadByName("ycsb-e"); !ok {
		t.Fatal("ycsb-e alias not resolved")
	}
}

func TestRunYCSBSingleStructure(t *testing.T) {
	for _, w := range Workloads() {
		cfg := ycsbCfg(w.Name, 1)
		if w.ScanPct > 0 {
			cfg.Kind = core.KindSkiplist // scans need an ordered kind
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: zero ops", w.Name)
		}
		if res.FlushPerOp == 0 {
			t.Fatalf("%s: nvtraverse never flushed", w.Name)
		}
		if res.Workload != w.Name {
			t.Fatalf("result workload = %q, want %q", res.Workload, w.Name)
		}
	}
}

// TestRunYCSBScans: workload E runs on every ordered kind, on 1 and 4
// shards, under all three durable policies — and is rejected with a clear
// error on the unordered hash table and on the onefile baseline, which has
// no persist policy to open a store with.
func TestRunYCSBScans(t *testing.T) {
	for _, kind := range core.OrderedKinds() {
		for _, pol := range []string{"nvtraverse", "izraelevitz", "logfree"} {
			for _, shards := range []int{1, 4} {
				cfg := ycsbCfg("E", shards)
				cfg.Kind = kind
				cfg.Policy = pol
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", kind, pol, shards, err)
				}
				if res.Ops == 0 {
					t.Fatalf("%s/%s/%d: zero ops", kind, pol, shards)
				}
			}
		}
	}
	for _, shards := range []int{1, 4} {
		cfg := ycsbCfg("E", shards)
		if _, err := Run(cfg); err == nil {
			t.Fatalf("shards=%d: YCSB E on hash accepted", shards)
		}
	}
	cfg := ycsbCfg("E", 1)
	cfg.Kind = core.KindList
	cfg.Policy = "onefile"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "need a persist policy") {
		t.Fatalf("YCSB E on onefile: err = %v, want the persist policy error", err)
	}
}

// TestRunYCSBAtomicRMW: workload U exercises the in-place Update path on
// every kind (hash included — RMW needs no order).
func TestRunYCSBAtomicRMW(t *testing.T) {
	for _, kind := range core.Kinds() {
		for _, shards := range []int{1, 2} {
			cfg := ycsbCfg("U", shards)
			cfg.Kind = kind
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", kind, shards, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s/%d: zero ops", kind, shards)
			}
		}
	}
	cfg := ycsbCfg("U", 1)
	cfg.Kind = core.KindList
	cfg.Policy = "onefile"
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "need a persist policy") {
		t.Fatalf("YCSB U on onefile: err = %v, want the persist policy error", err)
	}
}

func TestRunYCSBShardedEngine(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		for _, wl := range []string{"A", "C", "D"} {
			res, err := Run(ycsbCfg(wl, shards))
			if err != nil {
				t.Fatalf("%s/%d: %v", wl, shards, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s/%d shards: zero ops", wl, shards)
			}
		}
	}
}

func TestRunYCSBUnknownWorkload(t *testing.T) {
	if _, err := Run(ycsbCfg("Z", 1)); err == nil {
		t.Fatal("bogus workload accepted")
	}
	// onefile has no policy object, so it cannot back a store.
	cfg := ycsbCfg("A", 2)
	cfg.Policy = "onefile"
	if _, err := Run(cfg); err == nil {
		t.Fatal("onefile store accepted")
	}
	// An empty key range would measure an empty store where every key is 1.
	cfg = ycsbCfg("A", 0)
	cfg.Range = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero key range accepted")
	}
}

func TestEngineMixWithoutWorkload(t *testing.T) {
	cfg := ycsbCfg("", 4)
	cfg.UpdatePct = 30
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("zero ops")
	}
	if res.Workload != "" || res.Shards != 4 {
		t.Fatalf("result mislabeled: wl=%q shards=%d", res.Workload, res.Shards)
	}
}

// TestBatchedReadsCutFences: with read batching on the engine, the commit
// fence is paid once per shard batch instead of once per read, so
// fence/op must drop measurably on a read-only workload.
func TestBatchedReadsCutFences(t *testing.T) {
	base := ycsbCfg("C", 4)
	base.Threads = 2
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	batched := base
	batched.BatchSize = 32
	b, err := Run(batched)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Ops == 0 || b.Ops == 0 {
		t.Fatalf("zero ops: plain=%d batched=%d", plain.Ops, b.Ops)
	}
	if b.FencePerOp > plain.FencePerOp*0.7 {
		t.Fatalf("batching did not cut fences: %.3f/op vs %.3f/op",
			b.FencePerOp, plain.FencePerOp)
	}
}

func TestNVBenchDurOverride(t *testing.T) {
	t.Setenv("NVBENCH_DUR", "7ms")
	if got := EffectiveDuration(5 * time.Second); got != 7*time.Millisecond {
		t.Fatalf("EffectiveDuration = %v", got)
	}
	t.Setenv("NVBENCH_DUR", "garbage")
	if got := EffectiveDuration(time.Second); got != time.Second {
		t.Fatalf("garbage override applied: %v", got)
	}
}

func TestShardPanelsShape(t *testing.T) {
	o := DefaultPanelOptions()
	for _, id := range []string{"sA", "sB", "sC"} {
		p, err := PanelByID(o, id)
		if err != nil {
			t.Fatal(err)
		}
		shardCounts := map[int]bool{}
		for _, c := range p.Configs {
			if c.Workload != id[1:] {
				t.Fatalf("%s: config workload %q", id, c.Workload)
			}
			shardCounts[c.Shards] = true
		}
		for _, want := range []int{1, 4, 16} {
			if !shardCounts[want] {
				t.Fatalf("%s: shard count %d missing", id, want)
			}
		}
	}
}
