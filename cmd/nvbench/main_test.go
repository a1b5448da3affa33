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

// TestFlushStatsChecksClaims: -flushstats prints one row per claims run and
// reports every claim as holding.
func TestFlushStatsChecksClaims(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-flushstats"}, &sb); err != nil {
		t.Fatalf("%v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, r := range bench.ClaimRuns() {
		if !strings.Contains(out, r.Name()+" ") {
			t.Fatalf("run %s missing from -flushstats output:\n%s", r.Name(), out)
		}
	}
	if n := strings.Count(out, "\nok   "); n != len(bench.Claims()) || strings.Contains(out, "FAIL") {
		t.Fatalf("%d claims reported ok, want %d:\n%s", n, len(bench.Claims()), out)
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
