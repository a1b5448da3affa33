package crashtest

// Fault-schedule tortures: the usual crash round, but the crash is not a
// clean SIGKILL — the disk itself misbehaves mid-load through an injected
// vfs.ErrFS. The round ends when the backend latches damage (workers stop
// acking), the crashed memory is abandoned, and recovery on the same
// directory must still explain every acknowledged operation. DurableErr in
// the result proves the injection actually fired; zero violations proves
// no acked write was lost to the misbehaving disk.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem/vfs"
)

func runFaultRounds(t *testing.T, rounds int, schedule string, syncFence bool, target Target) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		efs, err := vfs.NewErrFS(vfs.OS, schedule, int64(r+1))
		if err != nil {
			t.Fatalf("NewErrFS(%q): %v", schedule, err)
		}
		res := Run(Options{
			Workers: 4, Keys: 64, UpdateRatio: 80,
			// The fault ends the round, not the op count: set it out of
			// reach so workers only stop when the damage latch trips.
			OpsBeforeCrash: 1 << 20,
			Seed:           int64(r + 1),
			Dir:            t.TempDir(),
			FS:             efs,
			SyncFence:      syncFence,
		}, target)
		if res.DurableErr == nil {
			t.Fatalf("round %d: schedule %q never fired (completed=%d, injected %v)",
				r, schedule, res.Completed, efs.Injected())
		}
		if res.Completed == 0 {
			t.Fatalf("round %d: no operation acked before the fault", r)
		}
		// No InFlight floor: under NVTraverse even finds flush and fence,
		// so the latch can trip during a read, which completes normally.
		// The real property — no acked write lost — is the checker's job.
		for _, v := range res.Violations {
			t.Errorf("round %d: %s", r, v)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestFaultTortureFsyncEIO is the headline acceptance torture: an fsync
// failure injected mid-load must withhold acks — the op in flight at the
// failure is never acknowledged — and recovery loses zero acked writes.
func TestFaultTortureFsyncEIO(t *testing.T) {
	runFaultRounds(t, 3, "sync~wal@25=eio", true, listFactory(persist.NVTraverse{}))
}

// TestFaultTortureWriteEIO: the WAL append itself fails once (transient
// EIO); the latch must still be permanent for that process lifetime.
func TestFaultTortureWriteEIO(t *testing.T) {
	runFaultRounds(t, 3, "write~wal@60=eio", false, listFactory(persist.NVTraverse{}))
}

// TestFaultTortureENOSPC: the disk fills after 16 KiB of log and STAYS
// full — the byte trigger latches on, so recovery replay runs against the
// same full disk (reads are unaffected; any post-recovery append would
// fail again).
func TestFaultTortureENOSPC(t *testing.T) {
	runFaultRounds(t, 3, "write~wal@b16384=enospc", false, listFactory(persist.NVTraverse{}))
}

// TestFaultTortureShortWrite: a torn userspace write (half the buffer
// lands); bufio surfaces io.ErrShortWrite and the backend must treat it
// exactly like any other append failure.
func TestFaultTortureShortWrite(t *testing.T) {
	runFaultRounds(t, 3, "write~wal@45=short", false, listFactory(persist.NVTraverse{}))
}

// TestFaultTortureEngineFsyncEIO runs the fsync-failure schedule against
// the sharded engine: the shards share one ErrFS, so the 25th sync across
// all of them fails, that shard's damage must withhold the ack of the write
// that saw it, and recovery of all four shards must lose no acked write.
func TestFaultTortureEngineFsyncEIO(t *testing.T) {
	runFaultRounds(t, 3, "sync~wal@25=eio", true, Engine(4, core.KindHash, persist.NVTraverse{}, 0))
}
