package batcher

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/shard"
	"repro/internal/store"
)

func openEngine(t *testing.T, shards, sessions int) store.Store {
	t.Helper()
	st, err := store.Open(store.Config{
		Kind:        core.KindHash,
		Policy:      persist.NVTraverse{},
		Profile:     pmem.ProfileZero,
		Shards:      shards,
		SizeHint:    4096,
		MaxSessions: sessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The TestBatcher* cases drive the stage in its one-worker shape (Workers: 1
// over a sharded store): one session serves every shard, so a single flush
// spans several shard fence groups and acknowledges them group by group —
// the path a per-shard worker, whose flushes hold one group each, never
// takes. The TestPool* cases cover the default shard-affine shape.

// TestBatcherBasicOps round-trips the operation vocabulary through one
// worker on both backends.
func TestBatcherBasicOps(t *testing.T) {
	testBasicOps(t, PoolConfig{Workers: 1, MaxBatch: 4})
}

// TestBatcherConcurrentWriters hammers one worker's ring from many
// goroutines.
func TestBatcherConcurrentWriters(t *testing.T) {
	testConcurrentWriters(t, PoolConfig{Workers: 1, MaxBatch: 16})
}

// TestGroupCommitFenceAccounting is the fence-accounting pin for group
// commit: R rounds of K fresh-key inserts go through a one-worker pool, each
// round queued while the previous flush is held at a gate so that it rides
// exactly one flush (the previous flush is the batching window; a lone
// warm-up insert opens the first one), and the identical operation stream
// replays unbatched on an identical engine. A successful NVTraverse insert
// issues a fixed set of unconditional ordering fences plus exactly one
// commit fence, so the two runs differ only in commit fences: the unbatched
// run pays K per round, the batched run exactly one per shard group per
// flush. The test asserts that difference exactly, and that the batched
// run's commit fences per round are at most K/2 (≥2x group-commit
// amortization at K=8 writes in flight over 4 shards).
func TestGroupCommitFenceAccounting(t *testing.T) {
	const K, R, shards = 8, 25, 4
	batched := openEngine(t, shards, K+4)
	unbatched := openEngine(t, shards, K+4)
	eng := batched.(*store.EngineStore).Engine()

	g := newGate()
	b := NewSessionPool(gatedAsync{batched.NewSession().(store.AsyncSession), g}, PoolConfig{MaxBatch: K})
	key := func(r, w int) uint64 { return uint64(r*K+w) + 1 }
	const warmup = uint64(R*K) + 1

	// Expected fence groups: per round, one commit fence per distinct shard
	// among the round's keys.
	expectGroups := 0
	for r := 0; r < R; r++ {
		distinct := map[int]bool{}
		for w := 0; w < K; w++ {
			distinct[eng.ShardFor(key(r, w))] = true
		}
		expectGroups += len(distinct)
	}

	var wg sync.WaitGroup
	submit := func(k uint64) {
		wg.Add(1)
		b.Submit(store.Op{Kind: shard.OpInsert, Key: k, Value: k}, cbCompleter{fn: func(res store.OpResult, err error) {
			if err != nil || !res.OK {
				t.Errorf("insert %d: %+v %v", k, res, err)
			}
			wg.Done()
		}})
	}
	batched.ResetStats()
	submit(warmup)
	<-g.entered // the worker is mid-flush holding exactly the warm-up insert
	for r := 0; r < R; r++ {
		for w := 0; w < K; w++ {
			submit(key(r, w)) // queues behind the running flush
		}
		g.release <- struct{}{} // the running flush lands ...
		<-g.entered             // ... and the next one took the whole round
	}
	g.release <- struct{}{}
	wg.Wait()
	fBatched := batched.Stats().Fences
	b.Close()

	us := unbatched.NewSession()
	unbatched.ResetStats()
	for r := 0; r < R; r++ {
		for w := 0; w < K; w++ {
			if !us.Insert(key(r, w), key(r, w)) {
				t.Fatalf("unbatched insert %d failed", key(r, w))
			}
		}
	}
	fUnbatched := unbatched.Stats().Fences

	// Sanity: the per-insert fence count is a constant (ordering fences are
	// unconditional and uncontended inserts take one CAS).
	if fUnbatched%uint64(R*K) != 0 {
		t.Fatalf("per-insert fence count not constant: %d fences / %d inserts", fUnbatched, R*K)
	}
	perOp := fUnbatched / uint64(R*K)

	// Calibrate the split of perOp into ordering fences and commit fences:
	// a lone request is a one-op flush, which pays the ordering fences plus
	// exactly one group fence.
	cal := openEngine(t, shards, 4)
	cb := NewPool(cal, PoolConfig{Workers: 1})
	cal.ResetStats()
	if res, err := cb.Do(store.Op{Kind: shard.OpInsert, Key: 1, Value: 1}); err != nil || !res.OK {
		t.Fatalf("calibration insert: %+v %v", res, err)
	}
	ordering := cal.Stats().Fences - 1
	cb.Close()
	commitPerOp := perOp - ordering
	if commitPerOp == 0 {
		t.Fatalf("calibration says inserts carry no commit fence (perOp=%d ordering=%d)", perOp, ordering)
	}

	// Exactly one commit fence per shard group per flush: beyond the
	// unavoidable ordering fences, the batched run paid precisely one fence
	// per nonempty shard group, plus the warm-up flush's one.
	batchedCommit := fBatched - uint64(R*K+1)*ordering - 1
	if batchedCommit != uint64(expectGroups) {
		t.Fatalf("batched commit fences %d (total %d, ordering/op %d), want exactly one per shard group: %d",
			batchedCommit, fBatched, ordering, expectGroups)
	}
	// Strictly fewer commit fences than K per round, with ≥2x amortization:
	// the unbatched run paid commitPerOp*K per round, the batched run at
	// most K/2.
	unbatchedCommit := uint64(R*K) * commitPerOp
	if 2*batchedCommit > unbatchedCommit {
		t.Fatalf("commit fences %d batched vs %d unbatched: less than 2x group-commit amortization",
			batchedCommit, unbatchedCommit)
	}
	if 2*expectGroups > R*K {
		t.Fatalf("groups %d over %d rounds of %d writers: batching produced no amortization",
			expectGroups, R, K)
	}
	bs := b.Stats()
	if bs.Flushes != R+1 {
		t.Fatalf("flushes %d, want the warm-up plus one per round (%d)", bs.Flushes, R+1)
	}
	if bs.Groups != uint64(expectGroups)+1 {
		t.Fatalf("completion groups %d, want %d", bs.Groups, expectGroups+1)
	}
	if bs.Ops != R*K+1 {
		t.Fatalf("ops %d, want %d", bs.Ops, R*K+1)
	}
}
