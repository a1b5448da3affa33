package batcher

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/crashtest"
	"repro/internal/kv"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
)

// storeView adapts a recovered store to the crashtest.Set surface. The
// thread argument of each method is ignored: the sessions carry their own
// threads, and the contents are read through a whole-range scan.
type storeView struct {
	st   store.Store
	sess store.Session
}

func (v storeView) Insert(_ *pmem.Thread, key, value uint64) bool { return v.sess.Insert(key, value) }
func (v storeView) Delete(_ *pmem.Thread, key uint64) bool        { return v.sess.Delete(key) }
func (v storeView) Find(_ *pmem.Thread, key uint64) (uint64, bool) {
	return v.sess.Get(key)
}
func (v storeView) Recover(_ *pmem.Thread) { v.st.Recover() }

func (v storeView) Contents(_ *pmem.Thread) []uint64 {
	var keys []uint64
	v.sess.Scan(kv.MinKey, kv.MaxKey, func(k, _ uint64) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}

// TestBatcherCrashTorture is the server-path crash torture: concurrent
// clients pipeline windows of operations through the pool of a one-shard
// tracked engine — one worker, as production runs it — the engine crashes
// mid-traffic, and the crashtest checker verifies durable linearizability
// of the recovered state against the recorded histories. The load-bearing
// property is the reply-after-fence rule: every request whose callback
// reported success was covered by a commit fence before the crash, so it
// must have survived — replied ⇒ durable. Requests that got ErrCrashed
// were never acknowledged and are in-flight: the checker allows them to
// have taken effect or not. A crash between two shard groups of one flush
// is the engine's own torture (internal/store TestTortureMidBatch).
func TestBatcherCrashTorture(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		evict := []float64{0, 0.5, 1}[round%3]
		tortureRound(t, round, evict, 1)
	}
}

// TestPoolCrashTorture runs the same torture over four shards, through
// four shard-affine workers: the reply-after-fence rule must hold per
// worker, and a crash must fail every unacknowledged request across all
// workers' rings.
func TestPoolCrashTorture(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for round := 0; round < rounds; round++ {
		evict := []float64{0, 0.5, 1}[round%3]
		tortureRound(t, round, evict, 4)
	}
}

// cbCompleter adapts a callback to the pool's Completer surface (tests
// only; the server uses reusable slot objects).
type cbCompleter struct{ fn func(store.OpResult, error) }

func (c cbCompleter) Complete(res store.OpResult, err error) { c.fn(res, err) }

func tortureRound(t *testing.T, seed int, evictProb float64, shards int) {
	const (
		workers        = 4
		window         = 4
		keys           = 128
		opsBeforeCrash = 400
	)
	st, err := store.Open(store.Config{
		Kind:        core.KindHash,
		Policy:      persist.NVTraverse{},
		Shards:      shards,
		Tracked:     true,
		SizeHint:    keys,
		MaxSessions: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := st.(*store.Engine)

	setup := st.NewSession()
	prefilled := map[uint64]uint64{}
	for k := uint64(1); k <= keys; k += 2 {
		setup.Insert(k, k*3)
		prefilled[k] = k * 3
	}
	eng.PersistAll()

	p := NewPool(st, PoolConfig{})
	submit := func(op store.Op, cb func(store.OpResult, error)) { p.Submit(op, cbCompleter{fn: cb}) }
	var completed atomic.Uint64
	histories := make([]*crashtest.History, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		hist := &crashtest.History{}
		histories[w] = hist
		wg.Add(1)
		go func(w int, hist *crashtest.History) {
			defer wg.Done()
			rng := uint64(seed*1000003 + w*7919)
			rand := func() uint64 {
				rng += 0x9e3779b97f4a7c15
				z := rng
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				return z ^ (z >> 31)
			}
			type slot struct {
				op   store.Op
				res  store.OpResult
				err  error
				done chan struct{}
			}
			for {
				// Pipeline one window of operations, then collect replies in
				// submission order — the shape of a pipelining connection.
				slots := make([]*slot, window)
				for i := range slots {
					k := rand()%keys + 1
					kind := store.OpGet
					switch r := rand() % 100; {
					case r < 30:
						kind = store.OpInsert
					case r < 60:
						kind = store.OpDelete
					}
					sl := &slot{
						op:   store.Op{Kind: kind, Key: k, Value: rand() & ((1 << 32) - 1)},
						done: make(chan struct{}),
					}
					slots[i] = sl
					submit(sl.op, func(res store.OpResult, err error) {
						sl.res, sl.err = res, err
						close(sl.done)
					})
				}
				crashed := false
				for _, sl := range slots {
					<-sl.done
					kind := crashtest.OpFind
					switch sl.op.Kind {
					case store.OpInsert:
						kind = crashtest.OpInsert
					case store.OpDelete:
						kind = crashtest.OpDelete
					}
					if sl.err != nil {
						// Never acknowledged: in flight at the crash — the
						// operation may or may not have taken effect.
						hist.InFlight(kind, sl.op.Key, sl.op.Value)
						crashed = true
						continue
					}
					// Acknowledged: the covering commit fence landed, so the
					// effect must survive the crash.
					hist.Completed(kind, sl.op.Key, sl.op.Value, sl.res.OK)
					completed.Add(1)
				}
				if crashed {
					return
				}
			}
		}(w, hist)
	}

	for completed.Load() < opsBeforeCrash {
		runtime.Gosched()
	}
	eng.Crash()
	wg.Wait()
	p.Close()
	eng.FinishCrash(evictProb, int64(seed))
	eng.Restart()

	st.Recover()
	rec := st.NewSession()
	violations, survivors := crashtest.Check(
		storeView{st: st, sess: rec}, nil, histories,
		crashtest.CheckConfig{Prefilled: prefilled})
	if len(violations) > 0 {
		for _, v := range violations {
			t.Errorf("seed %d evict %.1f: %s", seed, evictProb, v)
		}
		t.Fatalf("seed %d: %d durable-linearizability violations (replied ops lost or resurrected)",
			seed, len(violations))
	}
	if completed.Load() < opsBeforeCrash {
		t.Fatalf("seed %d: only %d ops completed before crash", seed, completed.Load())
	}
	if survivors == 0 {
		t.Fatalf("seed %d: nothing survived recovery", seed)
	}
}
