package bench

import (
	"path/filepath"
	"testing"
	"time"
)

func TestBenchDocRoundTripAndCompare(t *testing.T) {
	rows := []JSONRow{
		{Panel: "a", Kind: "list", OpsPerSec: 100, Ops: 10},
		{Panel: "b", Kind: "hash", OpsPerSec: 400, Ops: 40},
	}
	base := NewBenchDoc("base", rows)
	doc := NewBenchDoc("next", []JSONRow{
		{Panel: "a", Kind: "list", OpsPerSec: 250, Ops: 25},
		{Panel: "c", Kind: "skiplist", OpsPerSec: 50, Ops: 5}, // no counterpart
	})
	doc.Compare(base)
	if len(doc.Speedups) != 1 {
		t.Fatalf("speedups = %d, want 1 (unmatched panels skipped)", len(doc.Speedups))
	}
	s := doc.Speedups[0]
	if s.Panel != "a" || s.Speedup < 2.49 || s.Speedup > 2.51 {
		t.Fatalf("speedup row = %+v, want panel a at 2.5x", s)
	}
	if len(doc.Baseline) != 2 {
		t.Fatalf("baseline not embedded: %d rows", len(doc.Baseline))
	}

	path := filepath.Join(t.TempDir(), "doc.json")
	if err := doc.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadBenchDoc(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label != "next" || len(got.Rows) != 2 || len(got.Speedups) != 1 {
		t.Fatalf("roundtrip mangled doc: %+v", got)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("valid doc fails verification: %v", err)
	}
}

func TestBenchDocVerifyRejects(t *testing.T) {
	if err := (&BenchDoc{Schema: 1}).Verify(); err == nil {
		t.Fatal("empty doc verified")
	}
	if err := (&BenchDoc{Schema: CurrentSchema + 1, Rows: []JSONRow{{Panel: "a", OpsPerSec: 1, Ops: 1}}}).Verify(); err == nil {
		t.Fatal("unknown schema verified")
	}
	// Schema 1 documents (pre-percentile captures) must keep verifying.
	if err := (&BenchDoc{Schema: 1, Rows: []JSONRow{{Panel: "a", OpsPerSec: 1, Ops: 1}}}).Verify(); err != nil {
		t.Fatalf("schema-1 doc rejected: %v", err)
	}
	bad := &BenchDoc{Schema: 1, Rows: []JSONRow{{Panel: "a", OpsPerSec: 0, Ops: 0}}}
	if err := bad.Verify(); err == nil {
		t.Fatal("zero-throughput row verified")
	}
	scrambled := &BenchDoc{Schema: 2, Rows: []JSONRow{
		{Panel: "a", OpsPerSec: 1, Ops: 1, LatSamples: 10, P50us: 9, P95us: 5, P99us: 6, P999us: 7},
	}}
	if err := scrambled.Verify(); err == nil {
		t.Fatal("non-monotone percentiles verified")
	}
}

// TestGateRegressions pins the CI regression gate: only zero-profile panels
// participate, and only drops beyond the tolerance fail.
func TestGateRegressions(t *testing.T) {
	base := NewBenchDoc("base", []JSONRow{
		{Panel: "zfast", Profile: "zero", OpsPerSec: 1000, Ops: 10},
		{Panel: "nvram", Profile: "nvram", OpsPerSec: 1000, Ops: 10},
	})
	mk := func(zops, nops float64) *BenchDoc {
		d := NewBenchDoc("next", []JSONRow{
			{Panel: "zfast", Profile: "zero", OpsPerSec: zops, Ops: 10},
			{Panel: "nvram", Profile: "nvram", OpsPerSec: nops, Ops: 10},
		})
		d.Compare(base)
		return d
	}
	if err := mk(700, 1000).GateRegressions(0.35); err != nil {
		t.Fatalf("0.7x on a zero panel is within a 35%% tolerance: %v", err)
	}
	if err := mk(600, 1000).GateRegressions(0.35); err == nil {
		t.Fatal("0.6x on a zero panel passed a 35% tolerance gate")
	}
	// A collapse on a latency-profile panel does not gate.
	if err := mk(1000, 100).GateRegressions(0.35); err != nil {
		t.Fatalf("non-zero-profile panels must not gate: %v", err)
	}
	if err := NewBenchDoc("x", nil).GateRegressions(0.35); err == nil {
		t.Fatal("gate without a comparison must fail loudly")
	}
}

// TestMachineMismatch: Compare records the baseline machine, and a CPU
// count difference is surfaced.
func TestMachineMismatch(t *testing.T) {
	base := NewBenchDoc("base", []JSONRow{{Panel: "a", OpsPerSec: 1, Ops: 1}})
	doc := NewBenchDoc("next", []JSONRow{{Panel: "a", OpsPerSec: 1, Ops: 1}})
	doc.Compare(base)
	if doc.BaselineNumCPU != base.NumCPU || doc.BaselineGo != base.GoVersion {
		t.Fatalf("baseline machine not recorded: %+v", doc)
	}
	if doc.MachineMismatch() != "" {
		t.Fatalf("same machine flagged: %s", doc.MachineMismatch())
	}
	doc.BaselineNumCPU = doc.NumCPU + 4
	if doc.MachineMismatch() == "" {
		t.Fatal("CPU-count mismatch not flagged")
	}
}

func TestTrackedThroughputProxy(t *testing.T) {
	res := TrackedThroughput(2, 20*time.Millisecond)
	if res.Ops == 0 || res.Mops <= 0 {
		t.Fatalf("tracked proxy measured nothing: %+v", res)
	}
	// The proxy's op shape is fixed: two private-line stores + flush, one
	// shared CAS + flush, one fence. Flush and fence rates are therefore
	// pinned by construction (elision can only reduce issued flushes).
	if res.FencePerOp < 0.99 || res.FencePerOp > 1.01 {
		t.Fatalf("fence/op = %v, want 1", res.FencePerOp)
	}
	if sum := res.FlushPerOp + res.ElidePerOp; sum < 1.99 || sum > 2.01 {
		t.Fatalf("flush+elide per op = %v, want 2", sum)
	}
}

func TestRunBaselineSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every baseline row")
	}
	var lines []string
	rows, err := RunBaseline(10*time.Millisecond, func(s string) { lines = append(lines, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(BaselineSuite(0)) || len(lines) != len(rows) {
		t.Fatalf("rows=%d progress=%d, want %d", len(rows), len(lines), len(BaselineSuite(0)))
	}
	doc := NewBenchDoc("smoke", rows)
	if err := doc.Verify(); err != nil {
		t.Fatal(err)
	}
}
