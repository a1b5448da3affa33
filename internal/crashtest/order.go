package crashtest

// Crash torture for the ordered containers (queue, stack). The set checker
// in this package reasons per key; queues and stacks need order-aware
// checking instead. Every pushed/enqueued value is unique (producer id in
// the high bits, a per-producer sequence number in the low bits), which
// lets the checker verify, after crash + recovery:
//
//   - no value survives twice, and nothing survives that was never added;
//   - a value removed by a *completed* dequeue/pop is gone for good (its
//     removal was acknowledged, so it is durable);
//   - per producer, the survivors appear in add order: a producer's later
//     value is never reachable "behind" an earlier one, in either
//     container. (Stronger shape claims — FIFO survivors form a contiguous
//     suffix, LIFO survivors an exact prefix — are NOT sound: a value
//     removed while it was momentarily at the container's open end leaves
//     no trace among the survivors, and the DurableQueue's per-node claims
//     let an in-flight dequeue punch a hole mid-queue.) The producer's
//     in-flight add, if it survived, must sit at the open end;
//   - values that disappeared without a completed removal are charged to
//     in-flight removals, at most one each.
//
// This is durable linearizability specialized to FIFO/LIFO order: completed
// operations survive, in-flight operations take effect fully or not at all,
// and the surviving order is one some linearization produces.

import (
	"fmt"

	"repro/internal/pmem"
)

// Queue targets a FIFO queue built by build on a tracked memory; Contents
// must return the surviving values front to back.
func Queue[Q interface {
	Enqueue(t *pmem.Thread, v uint64)
	Dequeue(t *pmem.Thread) (uint64, bool)
	Recover(t *pmem.Thread)
	Contents(t *pmem.Thread) []uint64
}](build func(mem *pmem.Memory) Q) Target {
	return orderTarget(fifo, func(mem *pmem.Memory) container {
		q := build(mem)
		return container{q.Enqueue, q.Dequeue, q.Recover, q.Contents}
	})
}

// Stack targets a LIFO stack built by build on a tracked memory; Contents
// must return the surviving values top to bottom.
func Stack[S interface {
	Push(t *pmem.Thread, v uint64)
	Pop(t *pmem.Thread) (uint64, bool)
	Recover(t *pmem.Thread)
	Contents(t *pmem.Thread) []uint64
}](build func(mem *pmem.Memory) S) Target {
	return orderTarget(lifo, func(mem *pmem.Memory) container {
		s := build(mem)
		return container{s.Push, s.Pop, s.Recover, s.Contents}
	})
}

// The ordered rounds' fixed workload: orderPrefill values added (and
// persisted) before the history, then each step adds with probability
// addPercent and removes otherwise.
const (
	orderPrefill = 16
	addPercent   = 60
)

// container is a queue or a stack as the order check drives it.
type container struct {
	add      func(t *pmem.Thread, v uint64)
	remove   func(t *pmem.Thread) (uint64, bool)
	recover  func(t *pmem.Thread)
	contents func(t *pmem.Thread) []uint64
}

// mkVal encodes (producer, seq) as a unique value. Producer ids stay small
// (workers + the prefill pseudo-producer).
func mkVal(producer int, seq uint64) uint64 { return uint64(producer)<<32 | seq }

func valProducer(v uint64) int  { return int(v >> 32) }
func valSeq(v uint64) uint64    { return v & (1<<32 - 1) }
func valString(v uint64) string { return fmt.Sprintf("p%d#%d", valProducer(v), valSeq(v)) }

// orderKind distinguishes the removal order of the container under check.
type orderKind int

const (
	fifo orderKind = iota // queue: removals take each producer's oldest
	lifo                  // stack: removals take each producer's newest
)

// orderWorker is one worker's recorded history.
type orderWorker struct {
	added       []uint64 // completed adds, in order
	removed     []uint64 // values returned by completed removals
	inflightAdd uint64   // 0 = none (sequence numbers start at 1)
	inflightRem bool
}

func orderTarget(kind orderKind, build func(mem *pmem.Memory) container) Target {
	return Target{func(o *Options) round {
		return &orderRound{o: o, kind: kind, build: build, workers: make([]*orderWorker, o.Workers)}
	}}
}

// orderRound is the round of Queue and Stack. Every added value is unique
// (the worker id is its producer; the prefill's producer id is Workers).
type orderRound struct {
	o         *Options
	kind      orderKind
	build     func(mem *pmem.Memory) container
	mem       *pmem.Memory
	c         container
	rec       *pmem.Thread
	workers   []*orderWorker
	prefilled []uint64
}

func (r *orderRound) open() (machine, error) {
	mem, err := openMemory(r.o, func(mem *pmem.Memory) { r.c = r.build(mem) })
	r.mem = mem
	return mem, err
}

func (r *orderRound) prefill() {
	setup := r.mem.NewThread()
	for i := 1; i <= orderPrefill; i++ {
		v := mkVal(r.o.Workers, uint64(i))
		r.c.add(setup, v)
		r.prefilled = append(r.prefilled, v)
	}
}

func (r *orderRound) worker(id int) func() (int, int) {
	w := &orderWorker{}
	r.workers[id] = w
	th := r.mem.NewThread()
	seq := uint64(0)
	return func() (int, int) {
		if int(th.Rand()%100) < addPercent {
			seq++
			v := mkVal(id, seq)
			w.inflightAdd = v
			if pmem.RunOp(func() { r.c.add(th, v) }) {
				return 0, 1 // in flight at the crash
			}
			w.inflightAdd = 0
			w.added = append(w.added, v)
			return 1, 0
		}
		var v uint64
		var ok bool
		w.inflightRem = true
		if pmem.RunOp(func() { v, ok = r.c.remove(th) }) {
			return 0, 1
		}
		w.inflightRem = false
		if ok {
			w.removed = append(w.removed, v)
		}
		return 1, 0
	}
}

func (r *orderRound) recover() {
	r.rec = r.mem.NewThread()
	r.c.recover(r.rec)
}

func (r *orderRound) check() ([]Violation, int) {
	surv := r.c.contents(r.rec)
	return checkOrder(r.kind, r.workers, r.prefilled, r.o.Workers, surv), len(surv)
}

// checkOrder verifies the surviving values against the recorded histories.
// surv is in container order: front-to-back for a queue, top-to-bottom for
// a stack.
func checkOrder(kind orderKind, workers []*orderWorker, prefilled []uint64,
	prefillProducer int, surv []uint64) []Violation {

	var violations []Violation
	bad := func(v uint64, format string, args ...any) {
		violations = append(violations,
			Violation{Key: v, Detail: valString(v) + ": " + fmt.Sprintf(format, args...)})
	}

	// Index every value that legitimately exists.
	type valState struct {
		producer  int
		pos       int // index within the producer's completed sequence
		inflight  bool
		removedBy int // completed removals returning it (must be <= 1)
	}
	vals := map[uint64]*valState{}
	seqs := make([][]uint64, len(workers)+1) // completed adds per producer
	seqs[prefillProducer] = prefilled
	for i, v := range prefilled {
		vals[v] = &valState{producer: prefillProducer, pos: i}
	}
	inflightRemovals := 0
	for id, w := range workers {
		seqs[id] = w.added
		for i, v := range w.added {
			vals[v] = &valState{producer: id, pos: i}
		}
		if w.inflightAdd != 0 {
			vals[w.inflightAdd] = &valState{producer: id, inflight: true}
		}
		if w.inflightRem {
			inflightRemovals++
		}
	}
	for _, w := range workers {
		for _, v := range w.removed {
			st := vals[v]
			if st == nil {
				bad(v, "completed removal returned a value never added")
				continue
			}
			st.removedBy++
			if st.removedBy > 1 {
				bad(v, "removed by %d completed operations", st.removedBy)
			}
		}
	}

	// Survivors: known, unique, not durably removed.
	seen := map[uint64]bool{}
	survByProducer := make([][]uint64, len(workers)+1)
	for _, v := range surv {
		if seen[v] {
			bad(v, "survives twice")
			continue
		}
		seen[v] = true
		st := vals[v]
		if st == nil {
			bad(v, "survives but was never added")
			continue
		}
		if st.removedBy > 0 {
			bad(v, "resurfaced after a completed removal")
			continue
		}
		p := st.producer
		if p < 0 || p >= len(survByProducer) {
			continue
		}
		survByProducer[p] = append(survByProducer[p], v)
	}

	// Per-producer order and accounting of unexplained disappearances.
	extraMissing := 0
	for p, seq := range seqs {
		sv := survByProducer[p]
		if kind == lifo {
			// Contents are top-to-bottom = newest-first; flip to oldest-
			// first so both kinds check "ascending positions".
			for i, j := 0, len(sv)-1; i < j; i, j = i+1, j-1 {
				sv[i], sv[j] = sv[j], sv[i]
			}
		}
		// The in-flight add, if it survived, must sit at the open end
		// (newest); peel it off.
		if n := len(sv); n > 0 {
			if st := vals[sv[n-1]]; st != nil && st.inflight {
				sv = sv[:n-1]
			}
		}
		for _, v := range sv {
			if st := vals[v]; st != nil && st.inflight {
				bad(v, "in-flight add survived out of order")
			}
		}
		// Survivors must appear in add order (a subsequence of the
		// producer's completed sequence); every completed value that
		// neither survives nor was removed by a completed operation needs
		// an in-flight removal to explain its disappearance.
		last := -1
		for _, v := range sv {
			st := vals[v]
			if st == nil {
				continue
			}
			if st.pos <= last {
				bad(v, "survives out of order (pos %d after %d)", st.pos, last)
			}
			last = st.pos
		}
		for _, v := range seq {
			if !seen[v] && vals[v].removedBy == 0 {
				extraMissing++
			}
		}
	}
	if extraMissing > inflightRemovals {
		violations = append(violations, Violation{Key: 0, Detail: fmt.Sprintf(
			"%d completed adds vanished with only %d in-flight removals to explain them",
			extraMissing, inflightRemovals)})
	}
	return violations
}
