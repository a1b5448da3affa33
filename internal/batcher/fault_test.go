package batcher

// The acceptance regression for replied ⇒ durable under disk faults: a
// store whose WAL fsync fails mid-load must stop acknowledging writes at
// the batching layer — callers see ErrDegraded, never a false OK — while
// reads keep serving, and a clean reopen recovers every write that WAS
// acknowledged. On pre-fault-injection code every Do returned nil and the
// unsynced tail was lost, so the "acked key missing" assertion below is
// the line that fails there.

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/pmem/vfs"
	"repro/internal/shard"
	"repro/internal/store"
)

func openFaultStore(t *testing.T, dir, schedule string, shards int) store.Store {
	t.Helper()
	efs, err := vfs.NewErrFS(vfs.OS, schedule, 1)
	if err != nil {
		t.Fatalf("NewErrFS(%q): %v", schedule, err)
	}
	st, err := store.Open(store.Config{
		Kind: core.KindSkiplist, Profile: pmem.ProfileZero,
		Shards: shards, SizeHint: 1024, MaxSessions: 8,
		Dir: dir, SyncFence: true, FS: efs,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

// driveUntilDegraded issues sequential puts (key k → k*10) until one is
// refused, returning the last acked key and the refusal.
func driveUntilDegraded(t *testing.T, do func(store.Op) (store.OpResult, error)) (acked uint64, derr error) {
	t.Helper()
	for k := uint64(1); k <= 500; k++ {
		res, err := do(store.Op{Kind: shard.OpPut, Key: k, Value: k * 10})
		if err != nil {
			return acked, err
		}
		if !res.OK {
			t.Fatalf("put %d: not OK without error", k)
		}
		acked = k
	}
	t.Fatal("fsync fault never surfaced: 500 puts all acked")
	return
}

func checkDegraded(t *testing.T, st store.Store, acked uint64, derr error,
	do func(store.Op) (store.OpResult, error), dir string, shards int) {
	t.Helper()
	if !errors.Is(derr, ErrDegraded) {
		t.Fatalf("refusal is %v, want ErrDegraded", derr)
	}
	if acked == 0 {
		t.Fatal("no write acked before the fault")
	}
	if st.DurableErr() == nil {
		t.Fatal("store does not report the damage")
	}

	// Degraded is sticky: the next write fails fast with the same class.
	if _, err := do(store.Op{Kind: shard.OpPut, Key: 9999, Value: 1}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("write after degradation: %v, want ErrDegraded", err)
	}
	// Reads keep serving from the intact in-memory structure.
	if res, err := do(store.Op{Kind: shard.OpGet, Key: 1}); err != nil || !res.OK || res.Value != 10 {
		t.Fatalf("read on degraded store: %+v %v", res, err)
	}

	// Clean reopen: every acked write must be there; the store never
	// acked anything it could not recover.
	st2, err := store.Open(store.Config{
		Kind: core.KindSkiplist, Profile: pmem.ProfileZero,
		Shards: shards, SizeHint: 1024, MaxSessions: 8, Dir: dir,
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sess := st2.NewSession()
	for k := uint64(1); k <= acked; k++ {
		if v, ok := sess.Get(k); !ok || v != k*10 {
			t.Fatalf("acked key %d lost across restart (ok=%v v=%d)", k, ok, v)
		}
	}
	st2.Close()
}

func TestPoolDegradedOnFsyncFailure(t *testing.T) {
	testDegradedOnFsyncFailure(t, 0)
}

// TestBatcherDegradedOnFsyncFailure runs the same regression on the sharded
// engine behind one worker: the verdict must travel through
// shard.Session.ApplyCommitted's per-group callback as it does through the
// bare structure's.
func TestBatcherDegradedOnFsyncFailure(t *testing.T) {
	testDegradedOnFsyncFailure(t, 4)
}

func testDegradedOnFsyncFailure(t *testing.T, shards int) {
	dir := t.TempDir()
	st := openFaultStore(t, dir, "sync~wal@8=eio", shards)
	p := NewPool(st, PoolConfig{Workers: 1, MaxBatch: 4})
	acked, derr := driveUntilDegraded(t, p.Do)
	if p.DegradedErr() == nil {
		t.Fatal("pool does not report degradation")
	}
	checkDegraded(t, st, acked, derr, p.Do, dir, shards)
	p.Close()
	st.Close()
}
