// Package list implements Harris's lock-free sorted linked list (DISC'01)
// in the traversal form of the NVTraverse paper (its running example,
// Algorithms 3 and 4), parameterized by a persistence policy.
//
// The structure is a sorted list of nodes with an immutable key, a mutable
// value and a next link whose low bit is the deletion mark. Operations are
// findEntry (return the head), traverse (find left/right plus the marked
// nodes between them, reading only), and critical (trim marked nodes, then
// insert / mark-and-unlink / decide membership). ensureReachable uses the
// paper's optimization (§4.1): insert links a single node, so the traversal
// returns the current parent of the left node and its next field is flushed
// instead of maintaining an originalParent field in every node.
//
// Keys must lie in [1, 2^61): key 0 is reserved for the head sentinel and
// the tag bits of arena handles bound the index space.
package list

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/epoch"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// Node is one list node. Key is immutable after initialization; Value is
// mutable user data; Next holds a pmem.Ref with the mark bit as the logical
// deletion mark (Definition 1 of the paper: once the mark is set, no field
// of the node changes again). OrigParent implements Supplement 2: the
// handle of the node whose Next pointer linked this node into the list,
// recorded before the link CAS (lists always link through a Next field, so
// a node handle identifies the pointer's location). It is only maintained
// when the list runs in original-parent mode.
// Node is padded to one full 64-byte line (pmem allocators hand out whole
// lines; PMDK's minimum allocation is a line): the persistence model is
// line-granular, so without the padding two nodes would share a line and a
// flush of one would — unrealistically — persist the other's links, hiding
// protocol bugs the crash tests exist to catch.
type Node struct {
	Key        pmem.Cell
	Value      pmem.Cell
	Next       pmem.Cell
	OrigParent pmem.Cell
	_          [32]byte
}

// Shared bundles the substrate a list (or a hash table of lists) lives on.
type Shared struct {
	Mem *pmem.Memory
	Dom *epoch.Domain
	Ar  *arena.Arena[Node]
	Pol persist.Policy

	// trs holds one reusable traversal record per thread (indexed by
	// pmem.Thread.ID) so the operation hot path allocates nothing.
	trs []paddedTraversal
}

type paddedTraversal struct {
	tr traversal
	_  [64]byte
}

// NewShared builds the substrate on a memory with the given policy.
func NewShared(mem *pmem.Memory, pol persist.Policy) *Shared {
	dom := epoch.New(mem.MaxThreads())
	sh := &Shared{
		Mem: mem,
		Dom: dom,
		Ar:  arena.New[Node](dom, mem.MaxThreads()),
		Pol: pol,
		trs: make([]paddedTraversal, mem.MaxThreads()),
	}
	// All persistent state (head sentinels included) lives in arena nodes,
	// so registering the arena is all the durable backend needs.
	sh.Ar.Persist(mem.NewSpace())
	return sh
}

// List is one sorted list: a head sentinel handle plus the shared substrate.
// In original-parent mode (Supplement 2) ensureReachable flushes the link
// recorded in the destination node's OrigParent field; otherwise it uses
// the paper's §4.1 optimization and flushes the current parent's link
// returned by the traversal. Both are durably linearizable; the paper
// notes the field costs a word per node and may delay reclamation.
type List struct {
	sh         *Shared
	head       uint64
	origParent bool
}

// New creates a list with its own substrate, using the §4.1
// ensureReachable optimization (no originalParent field maintenance).
func New(mem *pmem.Memory, pol persist.Policy) *List {
	return NewOn(NewShared(mem, pol), mem.NewThread())
}

// NewWithOriginalParent creates a list that maintains Supplement 2's
// originalParent field and uses it for ensureReachable.
func NewWithOriginalParent(mem *pmem.Memory, pol persist.Policy) *List {
	l := NewOn(NewShared(mem, pol), mem.NewThread())
	l.origParent = true
	return l
}

// NewOn creates a list on an existing substrate (hash table buckets). The
// head sentinel is allocated and persisted with t.
func NewOn(sh *Shared, t *pmem.Thread) *List {
	l := &List{sh: sh, head: newHead(sh, t)}
	t.Fence()
	return l
}

// headsPerFence is how many head sentinels NewOnEach writes and flushes
// under one fence.
const headsPerFence = 64

// NewOnEach fills lists with new lists on sh (a hash table's buckets),
// their head sentinels allocated and persisted with t. It fences once per
// headsPerFence sentinels, not once per list: a table's buckets are built
// before anything can reach them, so no sentinel needs to be persistent
// before the next is written, only all of them before this returns.
func NewOnEach(sh *Shared, t *pmem.Thread, lists []List) {
	for i := range lists {
		if i > 0 && i%headsPerFence == 0 {
			t.Fence()
		}
		lists[i] = List{sh: sh, head: newHead(sh, t)}
	}
	t.Fence()
}

// newHead allocates a head sentinel with t, writes it and flushes it; the
// caller fences.
func newHead(sh *Shared, t *pmem.Thread) uint64 {
	h := sh.Ar.Alloc(t.ID)
	n := sh.Ar.Get(h)
	t.Store(&n.Key, 0)
	t.Store(&n.Value, 0)
	t.Store(&n.Next, pmem.NilRef)
	t.Store(&n.OrigParent, pmem.NilRef)
	t.Flush(&n.Key)
	t.Flush(&n.Value)
	t.Flush(&n.Next)
	return h
}

// Head returns the head sentinel handle.
func (l *List) Head() uint64 { return l.head }

func (l *List) node(idx uint64) *Node { return l.sh.Ar.Get(idx) }

// traversal is the result of the traverse method: the current parent of the
// left node (ensureReachable optimization), the suffix of the path from the
// left node through any marked nodes to the right node, and the raw link
// values needed as CAS expectations by the critical method.
type traversal struct {
	parent    uint64 // current parent of left (may equal head)
	left      uint64
	right     uint64 // 0 means "past the end" (+infinity)
	leftNext  uint64 // raw value of left.Next as read
	rightNext uint64 // raw value of right.Next as read (right != 0)
	// marked[i] are the handles strictly between left and right, in order.
	marked []uint64
	// cells collects, for Protocol 1, the parent link plus every mutable
	// field the traversal read in the returned nodes.
	cells []*pmem.Cell
}

// traverse implements the traverse method (Algorithm 4 lines 8–36): walk
// from entry, tracking the last unmarked node (left) and collecting marked
// nodes, until the first unmarked node with key >= k (right). It reads
// shared memory but never modifies it.
func (l *List) traverse(t *pmem.Thread, entry uint64, k uint64, tr *traversal) {
	pol := l.sh.Pol
	for {
		tr.marked = tr.marked[:0]
		leftParent := entry
		left := entry
		pred := entry
		curr := entry
		currN := l.node(curr)
		succ := t.Load(&currN.Next)
		pol.TraverseRead(t, &currN.Next)
		leftNext := succ
		for pmem.Marked(succ) || t.Load(&currN.Key) < k {
			if !pmem.Marked(succ) {
				tr.marked = tr.marked[:0]
				leftParent = pred
				left = curr
				leftNext = succ
			} else {
				tr.marked = append(tr.marked, curr)
			}
			pred = curr
			curr = pmem.RefIndex(succ)
			if curr == 0 {
				break
			}
			currN = l.node(curr)
			succ = t.Load(&currN.Next)
			pol.TraverseRead(t, &currN.Next)
		}
		right := curr
		var rightNext uint64
		if right != 0 {
			rightNext = t.Load(&l.node(right).Next)
			pol.TraverseRead(t, &l.node(right).Next)
			if pmem.Marked(rightNext) {
				continue // right got marked: restart the traversal
			}
		}
		tr.parent, tr.left, tr.right = leftParent, left, right
		tr.leftNext, tr.rightNext = leftNext, rightNext
		// Protocol 1 cell set: ensureReachable flushes the parent link
		// of the topmost returned node — the location recorded in its
		// OrigParent field (Supplement 2) or, under the §4.1
		// optimization, the current parent's link; makePersistent
		// flushes every field the traversal read in the returned nodes
		// (the next links; keys are immutable and need no flush).
		tr.cells = tr.cells[:0]
		reach := &l.node(leftParent).Next
		if l.origParent && left != l.head {
			// OrigParent is immutable after the node is linked, so
			// reading it needs no flush.
			if op := pmem.RefIndex(t.Load(&l.node(left).OrigParent)); op != 0 {
				reach = &l.node(op).Next
			}
		}
		tr.cells = append(tr.cells, reach)
		tr.cells = append(tr.cells, &l.node(left).Next)
		for _, m := range tr.marked {
			tr.cells = append(tr.cells, &l.node(m).Next)
		}
		if right != 0 {
			tr.cells = append(tr.cells, &l.node(right).Next)
		}
		return
	}
}

// trimMarked is deleteMarkedNodes (Algorithm 4 lines 40–57): physically
// disconnect the marked nodes between left and right with one CAS. Returns
// false when the critical method must restart. With nothing marked it
// writes nothing and issues no fence: the caller's next protocol fence
// (BeforeCAS before its write, or BeforeReturn) persists the traversal
// destination. After a trim CAS it fences before returning.
func (l *List) trimMarked(t *pmem.Thread, tr *traversal) bool {
	pol := l.sh.Pol
	if len(tr.marked) == 0 {
		return true
	}
	leftN := l.node(tr.left)
	newNext := pmem.Dirty(pmem.MakeRef(tr.right))
	pol.BeforeCAS(t)
	ok := t.CAS(&leftN.Next, tr.leftNext, newNext)
	pol.Wrote(t, &leftN.Next)
	if !ok {
		pol.BeforeReturn(t)
		return false
	}
	tr.leftNext = newNext
	rightStillClean := true
	if tr.right != 0 {
		rn := t.Load(&l.node(tr.right).Next)
		pol.Read(t, &l.node(tr.right).Next)
		rightStillClean = !pmem.Marked(rn)
	}
	pol.BeforeReturn(t)
	// The disconnection is now persisted (the fence above); the trimmed
	// nodes may enter the limbo queue regardless of whether the critical
	// method must restart because right got marked.
	for _, m := range tr.marked {
		l.sh.Ar.Retire(t.ID, m)
	}
	tr.marked = tr.marked[:0]
	return rightStillClean
}

// Insert adds key with value, returning false if the key is already
// present. It is the operation layout of Algorithm 2: findEntry, traverse,
// ensureReachable+makePersistent, critical.
func (l *List) Insert(t *pmem.Thread, key, value uint64) bool {
	_, inserted := l.insertGet(t, key, value, false)
	return inserted
}

// GetOrInsert atomically returns the present value of key (inserted=false)
// or inserts value and returns it (inserted=true). It is Insert's critical
// section with the found branch reading the value instead of discarding it.
func (l *List) GetOrInsert(t *pmem.Thread, key, value uint64) (v uint64, inserted bool) {
	return l.insertGet(t, key, value, true)
}

// insertGet is the shared critical section of Insert and GetOrInsert.
// wantValue selects whether the found branch loads (and persists reading)
// the present value; Insert skips the load so its flush profile is
// unchanged.
func (l *List) insertGet(t *pmem.Thread, key, value uint64, wantValue bool) (uint64, bool) {
	checkKey(key)
	l.sh.Dom.Enter(t.ID)
	defer l.sh.Dom.Exit(t.ID)
	pol := l.sh.Pol
	tr := l.acquireTraversal(t)
	for {
		l.traverse(t, l.head, key, tr)
		pol.PostTraverse(t, tr.cells)
		// critical (Algorithm 3, insertCritical):
		if !l.trimMarked(t, tr) {
			continue
		}
		if tr.right != 0 && t.Load(&l.node(tr.right).Key) == key {
			var v uint64
			if wantValue {
				rightN := l.node(tr.right)
				v = t.Load(&rightN.Value)
				pol.ReadData(t, &rightN.Value)
			}
			pol.BeforeReturn(t)
			t.CountOp()
			return v, false
		}
		idx := l.sh.Ar.Alloc(t.ID)
		n := l.node(idx)
		t.Store(&n.Key, key)
		t.Store(&n.Value, value)
		t.Store(&n.Next, pmem.Dirty(pmem.MakeRef(tr.right)))
		pol.InitWrite(t, &n.Key)
		pol.InitWrite(t, &n.Value)
		pol.InitWrite(t, &n.Next)
		if l.origParent {
			// Supplement 2: record the location of the pointer that
			// will link this node, before it is linked.
			t.Store(&n.OrigParent, pmem.MakeRef(tr.left))
			pol.InitWrite(t, &n.OrigParent)
		}
		leftN := l.node(tr.left)
		pol.BeforeCAS(t)
		ok := t.CAS(&leftN.Next, tr.leftNext, pmem.Dirty(pmem.MakeRef(idx)))
		pol.Wrote(t, &leftN.Next)
		pol.BeforeReturn(t)
		if ok {
			t.CountOp()
			return value, true
		}
		l.sh.Ar.Free(t.ID, idx) // never published
	}
}

// Delete removes key, returning false if it is absent. Logical deletion
// marks the node's next link; physical deletion swings the left node's
// link past it (Algorithm 3, deleteCritical).
func (l *List) Delete(t *pmem.Thread, key uint64) bool {
	checkKey(key)
	l.sh.Dom.Enter(t.ID)
	defer l.sh.Dom.Exit(t.ID)
	pol := l.sh.Pol
	tr := l.acquireTraversal(t)
	for {
		l.traverse(t, l.head, key, tr)
		pol.PostTraverse(t, tr.cells)
		if !l.trimMarked(t, tr) {
			continue
		}
		if tr.right == 0 || t.Load(&l.node(tr.right).Key) != key {
			pol.BeforeReturn(t)
			t.CountOp()
			return false
		}
		rightN := l.node(tr.right)
		rNext := t.Load(&rightN.Next)
		pol.Read(t, &rightN.Next)
		if !pmem.Marked(rNext) {
			pol.BeforeCAS(t)
			ok := t.CAS(&rightN.Next, rNext, pmem.WithMark(pmem.Dirty(rNext)))
			pol.Wrote(t, &rightN.Next)
			pol.BeforeCAS(t)
			if ok {
				// Logical deletion took effect and is persisted
				// (the fence above). Physical deletion is best
				// effort; a failure leaves the node for the next
				// traversal to trim.
				leftN := l.node(tr.left)
				phys := t.CAS(&leftN.Next, tr.leftNext, pmem.ClearTags(rNext))
				pol.Wrote(t, &leftN.Next)
				pol.BeforeReturn(t)
				if phys {
					l.sh.Ar.Retire(t.ID, tr.right)
				}
				t.CountOp()
				return true
			}
		}
		pol.BeforeReturn(t)
	}
}

// Find reports whether key is present and returns its value (Algorithm 4,
// findCritical). Even a lookup must persist the traversal destination
// before returning: its answer may depend on an insert or delete that is
// not yet persistent.
func (l *List) Find(t *pmem.Thread, key uint64) (uint64, bool) {
	checkKey(key)
	l.sh.Dom.Enter(t.ID)
	defer l.sh.Dom.Exit(t.ID)
	pol := l.sh.Pol
	tr := l.acquireTraversal(t)
	l.traverse(t, l.head, key, tr)
	pol.PostTraverse(t, tr.cells)
	if tr.right == 0 || t.Load(&l.node(tr.right).Key) != key {
		pol.BeforeReturn(t)
		t.CountOp()
		return 0, false
	}
	v := t.Load(&l.node(tr.right).Value)
	pol.ReadData(t, &l.node(tr.right).Value)
	pol.BeforeReturn(t)
	t.CountOp()
	return v, true
}

func checkKey(key uint64) {
	if key == 0 || key >= 1<<61 {
		panic(fmt.Sprintf("list: key %d out of range [1, 2^61)", key))
	}
}

// acquireTraversal returns the thread's reusable traversal record.
func (l *List) acquireTraversal(t *pmem.Thread) *traversal {
	return &l.sh.trs[t.ID].tr
}
