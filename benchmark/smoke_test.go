package main

import (
	"fmt"
	"os"
	"regexp"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
)

// testEnv is shared by the tests that need the nvserver binary.
var testEnv *env

func TestMain(m *testing.M) {
	code := func() int {
		e, err := newEnv()
		if err == nil {
			defer e.cleanup()
			err = e.buildServer()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark tests:", err)
			return 1
		}
		testEnv = e
		return m.Run()
	}()
	os.Exit(code)
}

// TestSmoke runs every workload and the ladder with 200 ms windows, and
// holds BENCHMARK.json and the program to each other: every declared
// workload and metric is reported exactly once per run with its declared
// unit, nothing undeclared is reported, and every operation checks out.
func TestSmoke(t *testing.T) {
	decl, err := readDeclaration(testEnv.root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	agree := func(t *testing.T, rec record, want []declared) {
		t.Helper()
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Errorf("correct %v, %d of %d failed", rec.Correct, rec.Failed, rec.Attempted)
		}
		seen := map[string]bool{}
		for _, d := range want {
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("declared metric name %q is malformed or repeated", d.Name)
			}
			seen[d.Name] = true
			if got, ok := rec.Metrics[d.Name]; !ok {
				t.Errorf("declared metric %s is not reported", d.Name)
			} else if got.Unit != d.Unit {
				t.Errorf("metric %s reported in %q, declared in %q", d.Name, got.Unit, d.Unit)
			}
		}
		for n := range rec.Metrics {
			if !seen[n] {
				t.Errorf("reported metric %s is not declared", n)
			}
		}
	}
	for i, wl := range workloads {
		if decl.Workloads[i].Name != wl.name || !name.MatchString(wl.name) {
			t.Errorf("workload %d: declared %q, the program has %q", i, decl.Workloads[i].Name, wl.name)
		}
		t.Run(wl.name, func(t *testing.T) {
			rec, err := runWorkload(testEnv, wl, 1, 0.2, 1)
			if err != nil {
				t.Fatal(err)
			}
			agree(t, rec, decl.EndToEnd)
			for n, m := range rec.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %g: a gated metric must never be 0", n, m.Value)
				}
			}
		})
	}
	t.Run("ladder", func(t *testing.T) {
		rec, err := runLadder(testEnv, 1, 0.2, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		agree(t, rec, decl.PerLayer)
	})
}

// TestClosedLoopEndsAtDepthOne: one connection with one request in flight
// must stop at its deadline (the server package's own load generator does
// not, ROADMAP 4(e)).
func TestClosedLoopEndsAtDepthOne(t *testing.T) {
	c, err := testEnv.spawn()
	if err != nil {
		t.Fatal(err)
	}
	defer c.kill()
	ks := newKeyState(1)
	if err := prefill(c.addr, ks); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		t   *tally
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		tl, err := runConns(c.addr, true, ycsbA, 1, ks, 1, newWindow(0.2))
		done <- outcome{tl, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.t.attempted == 0 || o.t.failed != 0 {
			t.Errorf("%d of %d operations failed: %s", o.t.failed, o.t.attempted, o.t.firstFailure)
		}
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("a 220 ms run took %v", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("closed loop at depth 1 did not return")
	}
}

// TestOracleCatchesWrongReplies feeds the reply checker what a broken
// server could send.
func TestOracleCatchesWrongReplies(t *testing.T) {
	for _, c := range []struct {
		what string
		r    request
		v    uint64
		ok   bool
		bad  bool
	}{
		{"current value", request{key: 9, want: value(5, 9)}, value(5, 9), true, false},
		{"newer value of a shared key", request{key: 9, want: value(5, 9)}, value(6, 9), true, false},
		{"newer value of an own key", request{key: 9, want: value(5, 9), exact: true}, value(6, 9), true, true},
		{"stale value", request{key: 9, want: value(5, 9)}, value(4, 9), true, true},
		{"another key's value", request{key: 9, want: value(5, 9)}, value(5, 10), true, true},
		{"lost key", request{key: 9, want: value(5, 9)}, 0, false, true},
		{"absent key", request{key: 8}, 0, false, false},
	} {
		var tl tally
		rep := server.Reply{Value: c.v, Found: c.ok}
		checkGet(&tl, c.r, rep)
		if (tl.failed > 0) != c.bad {
			t.Errorf("%s: failed = %d", c.what, tl.failed)
		}
	}
}

// TestChildFailureCarriesOutput: a child that exits before serving fails
// the set-up with what it printed.
func TestChildFailureCarriesOutput(t *testing.T) {
	_, err := testEnv.spawn("-sync") // -sync without -data is refused
	if err == nil || !regexp.MustCompile(`-sync needs -data`).MatchString(err.Error()) {
		t.Fatalf("spawn error = %v, want the child's own message", err)
	}
}

// TestCleanupReapsChildren: after cleanup no child is left running and the
// run's directory (sockets, data) is gone.
func TestCleanupReapsChildren(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	e.bin = testEnv.bin
	c, err := e.spawn("-data", e.path("d"))
	if err != nil {
		e.cleanup()
		t.Fatal(err)
	}
	e.cleanup()
	select {
	case <-c.done:
	default:
		t.Error("child still running after cleanup")
	}
	if err := c.cmd.Process.Signal(syscall.Signal(0)); err == nil {
		t.Error("child process still exists after cleanup")
	}
	if _, err := os.Stat(e.dir); !os.IsNotExist(err) {
		t.Errorf("temporary directory %s left behind (%v)", e.dir, err)
	}
}
