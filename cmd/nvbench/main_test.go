package main

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

func TestListPanels(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"5a", "6o", "sA", "sB", "sC"} {
		if !strings.Contains(out, id) {
			t.Fatalf("panel %s missing from -list output:\n%s", id, out)
		}
	}
}

func TestRunTinyPanel(t *testing.T) {
	t.Setenv("NVBENCH_DUR", "5ms")
	var sb strings.Builder
	err := run([]string{"-panel", "5a", "-threads", "2", "-scale", "64", "-dur", "5ms"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "nvtraverse") {
		t.Fatalf("panel output incomplete:\n%s", sb.String())
	}
}

func TestRunYCSBEnginePoint(t *testing.T) {
	t.Setenv("NVBENCH_DUR", "5ms")
	var sb strings.Builder
	err := run([]string{"-ycsb", "A", "-shards", "4", "-threads", "2",
		"-range", "512", "-profile", "zero", "-csv"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), ",A,4,") {
		t.Fatalf("csv lacks workload/shard columns:\n%s", sb.String())
	}
}

func TestJSONCaptureCompareVerify(t *testing.T) {
	t.Setenv("NVBENCH_DUR", "5ms")
	dir := t.TempDir()
	base := dir + "/base.json"
	next := dir + "/next.json"
	var sb strings.Builder
	if err := run([]string{"-json", base, "-label", "base"}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-verifyjson", base}, &sb); err != nil {
		t.Fatalf("fresh capture fails verification: %v", err)
	}
	sb.Reset()
	if err := run([]string{"-json", next, "-cmp", base, "-label", "next"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "x\n") || !strings.Contains(out, "tracked-4t") {
		t.Fatalf("comparison output lacks speedup rows:\n%s", out)
	}
	sb.Reset()
	if err := run([]string{"-verifyjson", next}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "speedups") {
		t.Fatalf("verify of compared doc does not report speedups:\n%s", sb.String())
	}
	if err := run([]string{"-verifyjson", dir + "/missing.json"}, &sb); err == nil {
		t.Fatal("verify of missing file succeeded")
	}
}

// TestToleranceGate: comparing against itself passes the gate; comparing
// against an inflated baseline fails it, but still writes the capture.
func TestToleranceGate(t *testing.T) {
	t.Setenv("NVBENCH_DUR", "5ms")
	dir := t.TempDir()
	base := dir + "/base.json"
	var sb strings.Builder
	if err := run([]string{"-json", base}, &sb); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := run([]string{"-json", dir + "/same.json", "-cmp", base,
		"-tolerance", "0.99"}, &sb); err != nil {
		t.Fatalf("self-comparison failed a 99%% tolerance gate: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "regression gate: ok") {
		t.Fatalf("gate did not report:\n%s", sb.String())
	}
	// Inflate the baseline's zero-profile rows 1000x: everything now looks
	// like a massive regression.
	doc, err := bench.LoadBenchDoc(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range doc.Rows {
		if doc.Rows[i].Profile == "zero" {
			doc.Rows[i].OpsPerSec *= 1000
		}
	}
	inflated := dir + "/inflated.json"
	if err := doc.WriteFile(inflated); err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	capture := dir + "/gated.json"
	if err := run([]string{"-json", capture, "-cmp", inflated,
		"-tolerance", "0.35"}, &sb); err == nil {
		t.Fatalf("1000x regression passed the gate:\n%s", sb.String())
	}
	if err := run([]string{"-verifyjson", capture}, &sb); err != nil {
		t.Fatalf("capture missing after gate failure: %v", err)
	}
}

func TestBadArgs(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{}, &sb); err == nil {
		t.Fatal("no mode selected but run succeeded")
	}
	if err := run([]string{"-panel", "9z"}, &sb); err == nil {
		t.Fatal("unknown panel accepted")
	}
	if err := run([]string{"-ycsb", "Z"}, &sb); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if err := run([]string{"-ycsb", "A", "-profile", "bogus"}, &sb); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if err := run([]string{"-ycsb", "A", "-range", "0"}, &sb); err == nil {
		t.Fatal("-range 0 accepted")
	}
}
