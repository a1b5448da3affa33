package stack_test

// Crash torture for the Treiber stack under the line-granular crash model:
// random concurrent pushes/pops, a crash at an arbitrary point (with random
// whole-line evictions), recovery, then the LIFO durable-linearizability
// check of crashtest.Run on a crashtest.Stack target.

import (
	"testing"

	"repro/internal/crashtest"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/stack"
)

func tortureRounds(t *testing.T) int {
	if testing.Short() {
		return 3
	}
	return 8
}

func runStackTorture(t *testing.T, name string, pol persist.Policy) {
	t.Helper()
	for r := 0; r < tortureRounds(t); r++ {
		res := crashtest.Run(crashtest.Options{
			Workers:        4,
			OpsBeforeCrash: 300,
			EvictProb:      0.25,
			Seed:           int64(r) + 1,
		}, crashtest.Stack(func(mem *pmem.Memory) *stack.Stack {
			return stack.New(mem, pol)
		}))
		if len(res.Violations) > 0 {
			for _, v := range res.Violations {
				t.Errorf("%s round %d: %s", name, r, v)
			}
			t.Fatalf("%s round %d: %d violations (completed=%d inflight=%d survivors=%d)",
				name, r, len(res.Violations), res.Completed, res.InFlight, res.Survivors)
		}
		if res.Completed < 300 {
			t.Fatalf("%s round %d: only %d ops completed", name, r, res.Completed)
		}
	}
}

// runStackTortureFile repeats the rounds against the WAL-backed file
// directory: the crash abandons the memory (SIGKILL semantics), and the
// checker runs on a stack reopened from the files.
func runStackTortureFile(t *testing.T, name string, pol persist.Policy) {
	t.Helper()
	for r := 0; r < tortureRounds(t); r++ {
		res := crashtest.Run(crashtest.Options{
			Workers:        4,
			OpsBeforeCrash: 300,
			Seed:           int64(r) + 1,
			Dir:            t.TempDir(),
		}, crashtest.Stack(func(mem *pmem.Memory) *stack.Stack {
			return stack.New(mem, pol)
		}))
		if len(res.Violations) > 0 {
			for _, v := range res.Violations {
				t.Errorf("%s round %d: %s", name, r, v)
			}
			t.Fatalf("%s round %d: %d violations (completed=%d inflight=%d survivors=%d)",
				name, r, len(res.Violations), res.Completed, res.InFlight, res.Survivors)
		}
		if res.Completed < 300 {
			t.Fatalf("%s round %d: only %d ops completed", name, r, res.Completed)
		}
	}
}

func TestCrashTortureStack(t *testing.T) {
	runStackTorture(t, "nvtraverse", persist.NVTraverse{})
}

func TestCrashTortureStackFile(t *testing.T) {
	runStackTortureFile(t, "nvtraverse-file", persist.NVTraverse{})
}

func TestCrashTortureStackIzraelevitz(t *testing.T) {
	runStackTorture(t, "izraelevitz", persist.Izraelevitz{})
}
