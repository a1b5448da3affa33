package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
)

// quickDur shrinks measurement durations under -short (and every duration
// still honors the NVBENCH_DUR override via EffectiveDuration).
func quickDur(d time.Duration) time.Duration {
	if testing.Short() {
		return d / 4
	}
	return d
}

func quickCfg(kind core.Kind, policy string) Config {
	return Config{
		Kind: kind, Policy: policy, Profile: pmem.ProfileZero,
		Threads: 2, Range: 256, UpdatePct: 20,
		Duration: quickDur(20 * time.Millisecond),
	}
}

func TestRunAllKindsAllPolicies(t *testing.T) {
	for _, kind := range core.Kinds() {
		for _, pol := range []string{"none", "nvtraverse", "izraelevitz", "logfree"} {
			res, err := Run(quickCfg(kind, pol))
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, pol, err)
			}
			if res.Ops == 0 {
				t.Fatalf("%s/%s: zero ops", kind, pol)
			}
			if pol == "none" && res.FlushPerOp != 0 {
				t.Fatalf("%s/none flushed", kind)
			}
			if pol != "none" && res.FlushPerOp == 0 {
				t.Fatalf("%s/%s never flushed", kind, pol)
			}
		}
	}
}

func TestRunOneFile(t *testing.T) {
	for _, kind := range []core.Kind{core.KindList, core.KindEllenBST} {
		res, err := Run(quickCfg(kind, "onefile"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Ops == 0 {
			t.Fatalf("onefile %s: zero ops", kind)
		}
	}
	if _, err := Run(quickCfg(core.KindSkiplist, "onefile")); err == nil {
		t.Fatalf("onefile skiplist accepted")
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	if _, err := Run(quickCfg(core.KindList, "bogus")); err == nil {
		t.Fatalf("bogus policy accepted")
	}
}

func TestPanelsComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, p := range Panels(DefaultPanelOptions()) {
		if p.ID == "" || len(p.Configs) == 0 {
			t.Fatalf("panel %q empty", p.ID)
		}
		ids[p.ID] = true
	}
	for _, want := range []string{"5a", "5b", "5c", "5d", "5e", "5f",
		"6g", "6h", "6i", "6j", "6k", "6l", "6m", "6n", "6o",
		"sA", "sB", "sC"} {
		if !ids[want] {
			t.Fatalf("panel %s missing", want)
		}
	}
	if _, err := PanelByID(DefaultPanelOptions(), "5a"); err != nil {
		t.Fatal(err)
	}
	if _, err := PanelByID(DefaultPanelOptions(), "9z"); err == nil {
		t.Fatalf("unknown panel accepted")
	}
}

func TestRowAndCSVFormat(t *testing.T) {
	r := Result{Config: quickCfg(core.KindList, "nvtraverse"), Ops: 1000, Mops: 1.5}
	if !strings.Contains(r.Row(), "nvtraverse") || !strings.Contains(r.CSV(), "nvtraverse") {
		t.Fatalf("formatting lost the policy name")
	}
	if !strings.Contains(Header(), "flush/op") || !strings.Contains(CSVHeader(), "flush_per_op") {
		t.Fatalf("headers incomplete")
	}
	if !strings.Contains(Header(), "elide/op") || !strings.Contains(CSVHeader(), "elide_per_op") {
		t.Fatalf("headers missing the flush-coalescing column")
	}
	if len(strings.Split(r.CSV(), ",")) != len(strings.Split(CSVHeader(), ",")) {
		t.Fatalf("CSV row and header column counts differ")
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(1000, 0.99)
	mem := pmem.NewFast(pmem.ProfileZero)
	th := mem.NewThread()
	counts := map[uint64]int{}
	for i := 0; i < 200000; i++ {
		k := z.Next(th.Rand())
		if k < 1 || k > 1000 {
			t.Fatalf("zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Skew: the hottest key must dominate; with theta=0.99 over 1000 keys
	// key 1 gets roughly 1/zeta(1000) ~ 13% of the draws.
	if counts[1] < 10000 {
		t.Fatalf("zipf not skewed: count[1] = %d", counts[1])
	}
	if counts[1] <= counts[500]*10 {
		t.Fatalf("zipf tail too heavy: head %d vs mid %d", counts[1], counts[500])
	}
}

func TestZipfLowSkewCoversRange(t *testing.T) {
	z := NewZipf(64, 0.01)
	mem := pmem.NewFast(pmem.ProfileZero)
	th := mem.NewThread()
	seen := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		seen[z.Next(th.Rand())] = true
	}
	if len(seen) < 60 {
		t.Fatalf("low-skew zipf only reached %d/64 keys", len(seen))
	}
}

func TestZipfLargeRangeConstruction(t *testing.T) {
	z := NewZipf(1<<24, 0.99) // exercises the Euler–Maclaurin tail
	if k := z.Next(123456789); k < 1 || k > 1<<24 {
		t.Fatalf("large-range zipf out of bounds: %d", k)
	}
}
