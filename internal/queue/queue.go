// Package queue implements the Michael–Scott lock-free queue (PODC'96) in
// the traversal form of the NVTraverse paper, plus the hand-tuned
// DurableQueue of Friedman et al. (PPoPP'18) — the one prior durable
// structure with a published correctness proof, which the paper cites as
// its only proven predecessor.
//
// Traversal-form mapping (the paper lists queues among traversal
// structures): the core tree is the chain of nodes hanging off a
// persistent anchor (the current dummy node); the tail pointer is an
// auxiliary entry point (Property 2) that findEntry uses as a shortcut and
// recovery recomputes. Enqueue traverses from the tail hint to the last
// node, then links under Protocol 2; dequeue's traversal is the two reads
// (anchor, dummy.next) and its critical method swings the anchor —
// disconnecting the old dummy, the unique disconnection instruction.
package queue

import (
	"repro/internal/arena"
	"repro/internal/epoch"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// Node is one queue node; Value is immutable after initialization. Padded
// to a full 64-byte line: the persistence model is line-granular, and
// nodes must not share their crash fate (see list.Node).
type Node struct {
	Value pmem.Cell
	Next  pmem.Cell
	_     [48]byte
}

// Queue is the NVTraverse-transformable Michael–Scott queue.
type Queue struct {
	mem *pmem.Memory
	dom *epoch.Domain
	ar  *arena.Arena[Node]
	pol persist.Policy

	// Root cells live on dedicated registered lines (not embedded in the Go
	// struct) so the durable backend can address them on disk; they get one
	// line each, as the previous embedded layout's padding arranged.
	anchor *pmem.Cell // persistent: ref to the current dummy node
	tail   *pmem.Cell // auxiliary: hint to a node near the end
}

// New creates an empty queue (a single persisted dummy node).
func New(mem *pmem.Memory, pol persist.Policy) *Queue {
	dom := epoch.New(mem.MaxThreads())
	q := &Queue{
		mem: mem,
		dom: dom,
		ar:  arena.New[Node](dom, mem.MaxThreads()),
		pol: pol,
	}
	roots := mem.NewSpace()
	lines := roots.Lines(0, 2)
	q.anchor, q.tail = &lines[0][0], &lines[1][0]
	q.ar.Persist(mem.NewSpace())
	t := mem.NewThread()
	d := q.ar.Alloc(t.ID)
	n := q.ar.Get(d)
	t.Store(&n.Value, 0)
	t.Store(&n.Next, pmem.NilRef)
	t.Store(q.anchor, pmem.MakeRef(d))
	t.Store(q.tail, pmem.MakeRef(d))
	t.Flush(&n.Value)
	t.Flush(&n.Next)
	t.Flush(q.anchor)
	t.Fence()
	return q
}

func (q *Queue) node(idx uint64) *Node { return q.ar.Get(idx) }

// Enqueue appends value.
func (q *Queue) Enqueue(t *pmem.Thread, value uint64) {
	q.dom.Enter(t.ID)
	defer q.dom.Exit(t.ID)
	pol := q.pol
	idx := q.ar.Alloc(t.ID)
	n := q.node(idx)
	t.Store(&n.Value, value)
	t.Store(&n.Next, pmem.NilRef)
	pol.InitWrite(t, &n.Value)
	pol.InitWrite(t, &n.Next)
	for {
		// findEntry: the tail hint (auxiliary, may lag). The hint is only
		// ever written after the link reaching its target was fenced, so
		// the hint's target is persistently reachable.
		last := pmem.RefIndex(t.Load(q.tail))
		// traverse: walk to the actual last node, remembering the link the
		// walk followed into it.
		lastN := q.node(last)
		var reach *pmem.Cell
		next := t.Load(&lastN.Next)
		pol.TraverseRead(t, &lastN.Next)
		for !pmem.IsNil(next) {
			reach = &lastN.Next
			last = pmem.RefIndex(next)
			lastN = q.node(last)
			next = t.Load(&lastN.Next)
			pol.TraverseRead(t, &lastN.Next)
		}
		// Protocol 1: ensureReachable flushes the link that made the
		// destination reachable (§4.1: the current parent's link — links
		// earlier on the path were fenced by the enqueuers whose CASes
		// created their successors, so only the newest link can be
		// unpersisted); makePersistent flushes the destination's next
		// field, which the link CAS depends on. Omitting the reach link
		// loses completed enqueues that linked behind an in-flight
		// enqueue whose own link CAS was still unfenced at the crash:
		// rolling that one link back severs every later node. Caught by
		// the crashtest.Queue torture.
		t.Scratch = t.Scratch[:0]
		if reach != nil {
			cells := [...]*pmem.Cell{reach, &lastN.Next}
			pol.PostTraverse(t, cells[:])
		} else {
			cells := [...]*pmem.Cell{&lastN.Next}
			pol.PostTraverse(t, cells[:])
		}
		// critical: link, persist, then (volatile) advance the tail hint.
		pol.BeforeCAS(t)
		ok := t.CAS(&lastN.Next, next, pmem.MakeRef(idx))
		pol.Wrote(t, &lastN.Next)
		pol.BeforeReturn(t)
		if ok {
			//nvcheck:ignore writehook -- q.tail is the volatile tail hint (Property 2): never flushed by design, Recover recomputes it from the durable chain
			t.CAS(q.tail, pmem.Dirty(pmem.MakeRef(last)), pmem.MakeRef(idx))
			t.CountOp()
			return
		}
	}
}

// Dequeue removes and returns the oldest value; ok=false when empty.
func (q *Queue) Dequeue(t *pmem.Thread) (value uint64, ok bool) {
	q.dom.Enter(t.ID)
	defer q.dom.Exit(t.ID)
	pol := q.pol
	for {
		av := t.Load(q.anchor)
		pol.TraverseRead(t, q.anchor)
		dummy := pmem.RefIndex(av)
		dN := q.node(dummy)
		next := t.Load(&dN.Next)
		pol.TraverseRead(t, &dN.Next)
		cells := [...]*pmem.Cell{q.anchor, &dN.Next}
		pol.PostTraverse(t, cells[:])
		if pmem.IsNil(next) {
			pol.BeforeReturn(t)
			t.CountOp()
			return 0, false
		}
		// Never disconnect the node the tail hint points at without
		// moving the hint forward first (the classic Michael–Scott
		// help): once the anchor passes a node while the hint still
		// names it, a stalled enqueuer's delayed hint-CAS could later
		// re-install the by-then retired (and recyclable) node into the
		// hint, and the next enqueue would traverse reclaimed memory.
		// Advancing the hint here changes its value, so every such
		// delayed CAS fails its expectation.
		if tv := t.Load(q.tail); pmem.RefIndex(tv) == dummy {
			//nvcheck:ignore writehook -- q.tail is the volatile tail hint (Property 2): never flushed by design, Recover recomputes it from the durable chain
			t.CAS(q.tail, tv, pmem.ClearTags(next))
		}
		v := t.Load(&q.node(pmem.RefIndex(next)).Value) // immutable: no flush
		pol.BeforeCAS(t)
		swung := t.CAS(q.anchor, av, pmem.ClearTags(next))
		pol.Wrote(t, q.anchor)
		pol.BeforeReturn(t)
		if swung {
			// Point the (volatile) tail hint away from the old dummy
			// before retiring it: a thread entering a *later* epoch
			// section must never read a hint to a reusable node.
			tv := t.Load(q.tail)
			if pmem.RefIndex(tv) == dummy {
				//nvcheck:ignore writehook -- q.tail is the volatile tail hint (Property 2): never flushed by design, Recover recomputes it from the durable chain
				t.CAS(q.tail, tv, pmem.ClearTags(next))
			}
			// The disconnection of the old dummy is persistent.
			q.ar.Retire(t.ID, dummy)
			t.CountOp()
			return v, true
		}
	}
}

// Recover recomputes the auxiliary tail from the persistent chain and
// persists nothing further (the anchor and links are already durable).
func (q *Queue) Recover(t *pmem.Thread) {
	q.dom.Enter(t.ID)
	defer q.dom.Exit(t.ID)
	last := pmem.RefIndex(t.Load(q.anchor))
	for {
		next := t.Load(&q.node(last).Next)
		if pmem.IsNil(next) {
			break
		}
		last = pmem.RefIndex(next)
	}
	t.Store(q.tail, pmem.MakeRef(last))
}

// Contents returns the queued values front to back (quiescent use only).
func (q *Queue) Contents(t *pmem.Thread) []uint64 {
	var out []uint64
	cur := pmem.RefIndex(t.Load(&q.node(pmem.RefIndex(t.Load(q.anchor))).Next))
	for cur != 0 {
		out = append(out, t.Load(&q.node(cur).Value))
		cur = pmem.RefIndex(t.Load(&q.node(cur).Next))
	}
	return out
}

// Len counts the queued values (quiescent use only).
func (q *Queue) Len(t *pmem.Thread) int { return len(q.Contents(t)) }
