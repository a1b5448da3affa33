package queue_test

// Crash torture for both queues under the line-granular crash model: random
// concurrent enqueues/dequeues, a crash at an arbitrary point (with random
// whole-line evictions), recovery, then the FIFO durable-linearizability
// check of crashtest.Run on a crashtest.Queue target. External test
// package: the target builds the queue through its exported surface, same
// as nvcrash does.

import (
	"testing"

	"repro/internal/crashtest"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/queue"
)

func tortureRounds(t *testing.T) int {
	if testing.Short() {
		return 3
	}
	return 8
}

func runQueueTorture(t *testing.T, name string, target crashtest.Target) {
	t.Helper()
	for r := 0; r < tortureRounds(t); r++ {
		res := crashtest.Run(crashtest.Options{
			Workers:        4,
			OpsBeforeCrash: 300,
			EvictProb:      0.25,
			Seed:           int64(r) + 1,
		}, target)
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

// runQueueTortureFile repeats the rounds against the WAL-backed file
// directory: the crash abandons the memory (SIGKILL semantics — unflushed
// userspace buffers die), and the checker runs on a structure reopened
// from the files.
func runQueueTortureFile(t *testing.T, name string, target crashtest.Target) {
	t.Helper()
	for r := 0; r < tortureRounds(t); r++ {
		res := crashtest.Run(crashtest.Options{
			Workers:        4,
			OpsBeforeCrash: 300,
			Seed:           int64(r) + 1,
			Dir:            t.TempDir(),
		}, target)
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

func TestCrashTortureTraversalQueue(t *testing.T) {
	runQueueTorture(t, "nvtraverse", crashtest.Queue(func(mem *pmem.Memory) *queue.Queue {
		return queue.New(mem, persist.NVTraverse{})
	}))
}

func TestCrashTortureTraversalQueueFile(t *testing.T) {
	runQueueTortureFile(t, "nvtraverse-file", crashtest.Queue(func(mem *pmem.Memory) *queue.Queue {
		return queue.New(mem, persist.NVTraverse{})
	}))
}

func TestCrashTortureTraversalQueueIzraelevitz(t *testing.T) {
	runQueueTorture(t, "izraelevitz", crashtest.Queue(func(mem *pmem.Memory) *queue.Queue {
		return queue.New(mem, persist.Izraelevitz{})
	}))
}

func TestCrashTortureDurableQueue(t *testing.T) {
	runQueueTorture(t, "durable", crashtest.Queue(queue.NewDurable))
}
