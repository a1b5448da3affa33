package crashtest

import (
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
)

// Structure targets one set structure, built by build on a tracked memory
// (the harness prefills it).
func Structure(build func(mem *pmem.Memory) Set) Target {
	return Target{func(o *Options) round {
		return newKVRound(o, 1, func() (kvSystem, error) {
			var ds Set
			mem, err := openMemory(o, func(mem *pmem.Memory) { ds = build(mem) })
			return memSet{mem, ds}, err
		})
	}}
}

// Engine targets a sharded engine of kind structures under pol, opened
// the way a server opens it: store.Open, which with o.Dir also checks the
// manifest, replays the files and runs the recovery phase. Each worker
// step is one Apply batch of batch operations (<= 1: single operations),
// so the crash, which takes every shard's memory at once, can land in the
// middle of a batch; recovery runs in parallel across shards, and Check
// verifies the union state. Because the key space partitions over shards,
// the union check is exactly the conjunction of the per-shard checks; the
// engine's Validate additionally checks each shard structurally and that
// no key surfaced on a shard it does not hash to.
func Engine(shards int, kind core.Kind, pol persist.Policy, batch int) Target {
	return Target{func(o *Options) round {
		cfg := store.Config{
			Shards:      shards,
			Kind:        kind,
			Policy:      pol,
			Tracked:     true,
			MaxSessions: o.Workers + 3,
			SizeHint:    int(o.Keys),
			Dir:         o.Dir,
			FS:          o.FS,
			SyncFence:   o.SyncFence,
		}
		return newKVRound(o, max(batch, 1), func() (kvSystem, error) {
			st, err := store.Open(cfg)
			if err != nil {
				return nil, err
			}
			return engineSystem{st.(*store.Engine)}, nil
		})
	}}
}

// kvSystem is a key-value system under test.
type kvSystem interface {
	machine
	// view registers a thread (a session, on the engine) and returns the
	// system as a Set with the thread to pass it.
	view() (Set, *pmem.Thread)
	// worker registers a worker's thread and returns its RNG and its step
	// executor, which runs the step's ops inside pmem.RunOp, sets each op's
	// ok and reports whether the crash interrupted it.
	worker() (rand func() uint64, apply func(ops []record) (crashed bool))
}

// kvRound is the round of Structure and Engine: random inserts, deletes
// and finds over [1, Keys], checked per key by Check.
type kvRound struct {
	o         *Options
	batch     int // operations per worker step
	build     func() (kvSystem, error)
	sys       kvSystem
	prefilled map[uint64]uint64
	hs        []*History
	ds        Set
	rec       *pmem.Thread
}

func newKVRound(o *Options, batch int, build func() (kvSystem, error)) *kvRound {
	return &kvRound{o: o, batch: batch, build: build, prefilled: map[uint64]uint64{},
		hs: make([]*History, o.Workers)}
}

func (r *kvRound) open() (machine, error) {
	sys, err := r.build()
	r.sys = sys
	return sys, err
}

func (r *kvRound) prefill() {
	if r.o.PrefillEvery == 0 {
		return
	}
	ds, setup := r.sys.view()
	for k := uint64(1); k <= r.o.Keys; k += r.o.PrefillEvery {
		v := k * 3
		ds.Insert(setup, k, v)
		r.prefilled[k] = v
	}
}

func (r *kvRound) worker(id int) func() (int, int) {
	o := r.o
	rand, apply := r.sys.worker()
	h := &History{}
	r.hs[id] = h
	lo, hi := uint64(1), o.Keys
	if o.Disjoint {
		span := o.Keys / uint64(o.Workers)
		if span == 0 {
			span = 1
		}
		lo = uint64(id)*span + 1
		hi = lo + span - 1
		if hi > o.Keys {
			hi = o.Keys
		}
	}
	ops := make([]record, r.batch)
	return func() (int, int) {
		for i := range ops {
			k := lo + rand()%(hi-lo+1)
			x := int(rand() % 100)
			kind := OpFind
			switch {
			case x < o.UpdateRatio/2:
				kind = OpInsert
			case x < o.UpdateRatio:
				kind = OpDelete
			}
			ops[i] = record{key: k, kind: kind, value: rand() & (1<<32 - 1)}
		}
		if apply(ops) {
			// Nothing in the step was acknowledged: every operation is in
			// flight — each may have taken effect or not.
			for _, op := range ops {
				h.InFlight(op.kind, op.key, op.value)
			}
			return 0, len(ops)
		}
		// A write that executed in memory while the backend latched damage
		// never had its commit fence reach the disk: it was never
		// acknowledged, so it is in flight — recovery may keep or drop it.
		damaged := r.sys.DurableErr() != nil
		acked := 0
		for _, op := range ops {
			if damaged && op.kind != OpFind {
				h.InFlight(op.kind, op.key, op.value)
				continue
			}
			h.Completed(op.kind, op.key, op.value, op.ok)
			acked++
		}
		return acked, len(ops) - acked
	}
}

func (r *kvRound) recover() {
	r.ds, r.rec = r.sys.view()
	r.ds.Recover(r.rec)
}

func (r *kvRound) check() ([]Violation, int) {
	return Check(r.ds, r.rec, r.hs, CheckConfig{
		Prefilled:   r.prefilled,
		CheckValues: r.o.Disjoint,
	})
}

// memSet is one Set structure on one tracked memory.
type memSet struct {
	*pmem.Memory
	ds Set
}

func (s memSet) view() (Set, *pmem.Thread) { return s.ds, s.NewThread() }

func (s memSet) worker() (func() uint64, func([]record) bool) {
	th := s.NewThread()
	return th.Rand, func(ops []record) bool {
		op := &ops[0] // Structure steps single operations
		return pmem.RunOp(func() {
			switch op.kind {
			case OpInsert:
				op.ok = s.ds.Insert(th, op.key, op.value)
			case OpDelete:
				op.ok = s.ds.Delete(th, op.key)
			default:
				_, op.ok = s.ds.Find(th, op.key)
			}
		})
	}
}

// engineSystem is the sharded engine under test.
type engineSystem struct{ *store.Engine }

func (s engineSystem) view() (Set, *pmem.Thread) {
	return engineView{eng: s.Engine, sess: s.NewSession()}, nil
}

// engineKinds maps the checker's operations onto the engine's.
var engineKinds = [...]store.OpKind{OpInsert: store.OpInsert, OpDelete: store.OpDelete, OpFind: store.OpGet}

func (s engineSystem) worker() (func() uint64, func([]record) bool) {
	sess := s.NewSession()
	var ops []store.Op
	var results []store.OpResult
	return sess.Rand, func(batch []record) bool {
		ops = ops[:0]
		for _, op := range batch {
			ops = append(ops, store.Op{Kind: engineKinds[op.kind], Key: op.key, Value: op.value})
		}
		if pmem.RunOp(func() { results = sess.Apply(ops, results) }) {
			return true
		}
		for i := range batch {
			batch[i].ok = results[i].OK
		}
		return false
	}
}

// engineView adapts a recovered engine to the Set surface. The thread
// argument of each method is ignored: the session carries the per-shard
// threads, and the engine's own admin session runs Recover, Contents and
// Validate.
type engineView struct {
	eng  *store.Engine
	sess store.Session
}

func (v engineView) Insert(_ *pmem.Thread, key, value uint64) bool { return v.sess.Insert(key, value) }
func (v engineView) Delete(_ *pmem.Thread, key uint64) bool        { return v.sess.Delete(key) }
func (v engineView) Find(_ *pmem.Thread, key uint64) (uint64, bool) {
	return v.sess.Get(key)
}
func (v engineView) Recover(_ *pmem.Thread)           { v.eng.Recover() }
func (v engineView) Contents(_ *pmem.Thread) []uint64 { return v.eng.Contents() }

// RangeScan lets the checker cross-validate the merged engine scan against
// the recovered contents (ordered kinds only; hash engines report
// ErrUnordered and the checker skips the comparison).
func (v engineView) RangeScan(_ *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) error {
	return v.sess.Scan(lo, hi, fn)
}

// Validate lets the checker run every shard's structural self-check and
// the engine's shard-isolation check.
func (v engineView) Validate(_ *pmem.Thread) error { return v.eng.Validate() }
