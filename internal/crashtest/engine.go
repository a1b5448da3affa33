package crashtest

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/shard"
)

// EngineOptions configures one crash round of a sharded engine.
type EngineOptions struct {
	Shards         int
	Kind           core.Kind      // default hash
	Policy         persist.Policy // default NVTraverse
	Workers        int            // concurrent sessions (default 4)
	Keys           uint64         // keys drawn from [1, Keys] (default 256)
	PrefillEvery   uint64         // prefill every n-th key (0 = none)
	OpsBeforeCrash uint64         // crash once this many ops completed
	BatchSize      int            // ops per Apply batch; <=1 issues single ops
	EvictProb      float64        // unpersisted-line survival probability
	Seed           int64
	UpdateRatio    int // percent updates, split insert/delete (default 60)
	// Dir runs the round against the durable file backend with SIGKILL
	// semantics: the crashed engine is abandoned outright (unflushed WAL
	// buffers die with it) and a fresh engine reopens the per-shard files
	// for the check. EvictProb is ignored.
	Dir string
}

// RunEngine runs one whole-engine crash round: concurrent sessions issue
// single and batched operations, the engine crashes mid-traffic (so some
// sessions die inside an unacknowledged batch), recovery runs in parallel
// across shards, and Check verifies durable
// linearizability of the union state. Because the key space partitions
// over shards, the union check is exactly the conjunction of the per-shard
// checks; RunEngine additionally validates each shard structurally and
// verifies that no key surfaced on a shard it does not hash to.
func RunEngine(o EngineOptions) Result {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Keys == 0 {
		o.Keys = 256
	}
	if o.UpdateRatio == 0 {
		o.UpdateRatio = 60
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	cfg := shard.Config{
		Shards:      o.Shards,
		Kind:        o.Kind,
		Policy:      o.Policy,
		Tracked:     true,
		MaxSessions: o.Workers + 2,
		Params:      core.Params{SizeHint: int(o.Keys)},
		Dir:         o.Dir,
	}
	eng, err := shard.New(cfg)
	if err != nil {
		return Result{Violations: []Violation{{Detail: err.Error()}}}
	}
	if _, err := eng.RecoverFiles(); err != nil {
		return Result{Violations: []Violation{{Detail: err.Error()}}}
	}

	setup := eng.NewSession()
	prefilled := map[uint64]uint64{}
	if o.PrefillEvery > 0 {
		for k := uint64(1); k <= o.Keys; k += o.PrefillEvery {
			v := k * 3
			setup.Insert(k, v)
			prefilled[k] = v
		}
	}
	eng.PersistAll()

	var completed atomic.Uint64
	histories := make([]*History, o.Workers)
	var wg sync.WaitGroup
	for w := 0; w < o.Workers; w++ {
		sess := eng.NewSession()
		hist := &History{}
		histories[w] = hist
		wg.Add(1)
		go func(sess *shard.Session, hist *History) {
			defer wg.Done()
			ops := make([]shard.Op, 0, o.BatchSize)
			var results []shard.OpResult
			for !eng.ShardMemory(0).Crashed() {
				n := 1
				if o.BatchSize > 1 {
					n = o.BatchSize
				}
				ops = ops[:0]
				for j := 0; j < n; j++ {
					k := sess.Rand()%o.Keys + 1
					r := int(sess.Rand() % 100)
					kind := shard.OpGet
					switch {
					case r < o.UpdateRatio/2:
						kind = shard.OpInsert
					case r < o.UpdateRatio:
						kind = shard.OpDelete
					}
					ops = append(ops, shard.Op{Kind: kind, Key: k, Value: sess.Rand() & ((1 << 32) - 1)})
				}
				crashed := pmem.RunOp(func() {
					results = sess.Apply(ops, results)
				})
				if crashed {
					// Nothing in this batch was acknowledged: every
					// operation is in flight — each may have taken effect
					// (its shard group's fence may have run) or not.
					for _, op := range ops {
						hist.InFlight(opKindFor(op.Kind), op.Key, op.Value)
					}
					return
				}
				for i, op := range ops {
					hist.Completed(opKindFor(op.Kind), op.Key, op.Value, results[i].OK)
				}
				completed.Add(uint64(len(ops)))
			}
		}(sess, hist)
	}

	for completed.Load() < o.OpsBeforeCrash {
		runtime.Gosched()
	}
	eng.Crash()
	wg.Wait()
	if o.Dir == "" {
		eng.FinishCrash(o.EvictProb, o.Seed)
		eng.Restart()
	} else {
		// SIGKILL semantics: abandon the crashed engine (no FinishCrash —
		// its unflushed userspace buffers are gone) and reopen the
		// per-shard files with a fresh engine.
		eng2, err := shard.New(cfg)
		if err != nil {
			return Result{Violations: []Violation{{Detail: err.Error()}}}
		}
		if _, err := eng2.RecoverFiles(); err != nil {
			return Result{Violations: []Violation{{Detail: err.Error()}}}
		}
		eng = eng2
	}

	rec := eng.NewSession()
	eng.Recover(rec)

	res := Result{Completed: completed.Load()}
	var violations []Violation
	violations, res.Survivors = Check(
		engineView{eng: eng, sess: rec}, nil, histories, CheckConfig{Prefilled: prefilled})
	res.Violations = violations
	for _, h := range histories {
		res.InFlight += h.InFlightCount()
	}

	// Shard isolation: every surviving key must live on the shard it
	// hashes to (Contents of shard i only).
	for i := 0; i < eng.NumShards(); i++ {
		for _, k := range eng.ShardSet(i).Contents(rec.Thread(i)) {
			if eng.ShardFor(k) != i {
				res.Violations = append(res.Violations, Violation{
					Key:    k,
					Detail: fmt.Sprintf("recovered on shard %d but hashes to shard %d", i, eng.ShardFor(k)),
				})
			}
		}
	}
	return res
}

func opKindFor(k shard.OpKind) OpKind {
	switch k {
	case shard.OpInsert:
		return OpInsert
	case shard.OpDelete:
		return OpDelete
	default:
		return OpFind
	}
}

// engineView adapts a recovered engine session to the Set surface. The
// thread argument of each method is ignored: the session carries the
// per-shard threads.
type engineView struct {
	eng  *shard.Engine
	sess *shard.Session
}

func (v engineView) Insert(_ *pmem.Thread, key, value uint64) bool { return v.sess.Insert(key, value) }
func (v engineView) Delete(_ *pmem.Thread, key uint64) bool        { return v.sess.Delete(key) }
func (v engineView) Find(_ *pmem.Thread, key uint64) (uint64, bool) {
	return v.sess.Get(key)
}
func (v engineView) Recover(_ *pmem.Thread)           { v.eng.Recover(v.sess) }
func (v engineView) Contents(_ *pmem.Thread) []uint64 { return v.eng.Contents(v.sess) }

// RangeScan lets the checker cross-validate the merged engine scan against
// the recovered contents (ordered kinds only; hash engines report
// ErrUnordered and the checker skips the comparison).
func (v engineView) RangeScan(_ *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) error {
	return v.sess.Scan(lo, hi, fn)
}

// Validate lets the checker run every shard's structural self-check.
func (v engineView) Validate(_ *pmem.Thread) error { return v.eng.Validate(v.sess) }
