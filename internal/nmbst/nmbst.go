// Package nmbst implements the lock-free external binary search tree of
// Natarajan and Mittal (PPoPP'14) in the traversal form of the NVTraverse
// paper.
//
// Unlike the Ellen et al. tree, coordination metadata lives on the edges:
// a FLAG bit (pmem.MarkBit) on the edge to a leaf marks that leaf for
// deletion, and a TAG bit (pmem.TagBit) freezes the sibling edge so the
// sibling subtree can be promoted. A deletion proceeds in two phases:
// injection (flag the leaf's incoming edge) and cleanup (tag the sibling
// edge, then swing the ancestor's child edge from the successor to the
// sibling, removing the whole chain of pending deletions in one CAS).
// Flagged and tagged edges are frozen, so the removed chain is immutable
// at swing time and the swinging thread can retire it deterministically.
//
// Traversal form: seek is the traverse method — it routes on immutable
// keys, reads one edge per step, and returns the seek record (ancestor,
// successor, parent, leaf) plus the edges read in those nodes, which is
// exactly Protocol 1's flush set. Injection and cleanup form the critical
// method under Protocol 2.
package nmbst

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/epoch"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// Sentinel keys: every user key must be < Inf0.
const (
	Inf0 = uint64(1) << 61
	Inf1 = Inf0 + 1
	Inf2 = Inf0 + 2
)

// Node is a tree node; Key and Leaf are immutable after initialization.
type Node struct {
	Key   pmem.Cell
	Leaf  pmem.Cell // 1 = leaf
	Value pmem.Cell
	Left  pmem.Cell
	Right pmem.Cell
	_     [24]byte // pad to one 64-byte line (line-granular persistence)
}

// Tree is the set.
type Tree struct {
	mem   *pmem.Memory
	dom   *epoch.Domain
	nodes *arena.Arena[Node]
	pol   persist.Policy
	rootR uint64 // R: key Inf2
	rootS uint64 // S = R.left: key Inf1

	trs []paddedSeek
}

type paddedSeek struct {
	sr seek
	_  [64]byte
}

// seek is the traverse method's result: the seek record of Natarajan and
// Mittal plus the cells and raw edge values the critical method needs.
type seek struct {
	anc, succ, par, leaf uint64
	leafEdge             uint64 // raw value of the edge into leaf
	intoAnc              *pmem.Cell
	intoSucc             *pmem.Cell
	intoPar              *pmem.Cell
	intoLeaf             *pmem.Cell
	cells                []*pmem.Cell
}

// New creates the sentinel skeleton: R(Inf2){S, leaf Inf2}, S(Inf1){leaf
// Inf0, leaf Inf1}.
func New(mem *pmem.Memory, pol persist.Policy) *Tree {
	dom := epoch.New(mem.MaxThreads())
	tr := &Tree{
		mem:   mem,
		dom:   dom,
		nodes: arena.New[Node](dom, mem.MaxThreads()),
		pol:   pol,
		trs:   make([]paddedSeek, mem.MaxThreads()),
	}
	tr.nodes.Persist(mem.NewSpace())
	t := mem.NewThread()
	l0 := tr.newNode(t, Inf0, 1, 0, pmem.NilRef, pmem.NilRef)
	l1 := tr.newNode(t, Inf1, 1, 0, pmem.NilRef, pmem.NilRef)
	l2 := tr.newNode(t, Inf2, 1, 0, pmem.NilRef, pmem.NilRef)
	s := tr.newNode(t, Inf1, 0, 0, pmem.MakeRef(l0), pmem.MakeRef(l1))
	r := tr.newNode(t, Inf2, 0, 0, pmem.MakeRef(s), pmem.MakeRef(l2))
	t.Fence()
	tr.rootR, tr.rootS = r, s
	return tr
}

// newNode allocates and fully initializes a node, flushing every field
// (slots are recycled: unpersisted fields would roll back to the previous
// occupant's values on a crash).
func (tr *Tree) newNode(t *pmem.Thread, key, leaf, value, left, right uint64) uint64 {
	idx := tr.nodes.Alloc(t.ID)
	n := tr.nodes.Get(idx)
	t.Store(&n.Key, key)
	t.Store(&n.Leaf, leaf)
	t.Store(&n.Value, value)
	t.Store(&n.Left, left)
	t.Store(&n.Right, right)
	tr.pol.InitWrite(t, &n.Key)
	tr.pol.InitWrite(t, &n.Leaf)
	tr.pol.InitWrite(t, &n.Value)
	tr.pol.InitWrite(t, &n.Left)
	tr.pol.InitWrite(t, &n.Right)
	return idx
}

func (tr *Tree) node(idx uint64) *Node { return tr.nodes.Get(idx) }

// childCellToward returns n's child cell on the side where key routes.
func (tr *Tree) childCellToward(t *pmem.Thread, idx uint64, key uint64) *pmem.Cell {
	n := tr.node(idx)
	if key < t.Load(&n.Key) {
		return &n.Left
	}
	return &n.Right
}

// traverse is the seek of Natarajan–Mittal: descend by key, maintaining
// (ancestor, successor) as the endpoints of the last untagged edge on the
// path. Read-only.
func (tr *Tree) traverse(t *pmem.Thread, k uint64, sr *seek) {
	pol := tr.pol
	rN := tr.node(tr.rootR)
	anc, succ, par := tr.rootR, tr.rootS, tr.rootS
	var intoAnc *pmem.Cell
	intoSucc := &rN.Left
	intoPar := &rN.Left
	sN := tr.node(tr.rootS)
	cellIntoCur := &sN.Left
	if k >= t.Load(&sN.Key) {
		cellIntoCur = &sN.Right
	}
	ev := t.Load(cellIntoCur)
	pol.TraverseRead(t, cellIntoCur)
	cur := pmem.RefIndex(ev)
	for t.Load(&tr.node(cur).Leaf) != 1 {
		if !pmem.Tagged(ev) {
			anc, succ = par, cur
			intoAnc, intoSucc = intoPar, cellIntoCur
		}
		par = cur
		intoPar = cellIntoCur
		n := tr.node(cur)
		if k < t.Load(&n.Key) {
			cellIntoCur = &n.Left
		} else {
			cellIntoCur = &n.Right
		}
		ev = t.Load(cellIntoCur)
		pol.TraverseRead(t, cellIntoCur)
		cur = pmem.RefIndex(ev)
	}
	sr.anc, sr.succ, sr.par, sr.leaf = anc, succ, par, cur
	sr.leafEdge = ev
	sr.intoAnc, sr.intoSucc, sr.intoPar, sr.intoLeaf = intoAnc, intoSucc, intoPar, cellIntoCur
	// Protocol 1 flush set: the link into the topmost returned node
	// (ensureReachable) plus the edges read in the returned nodes.
	sr.cells = sr.cells[:0]
	if intoAnc != nil {
		sr.cells = append(sr.cells, intoAnc)
	}
	sr.cells = append(sr.cells, intoSucc, intoPar, cellIntoCur)
}

// cas2 tries a CAS whose expected value was constructed (see ellenbst):
// the link-and-persist policy may have set the persist tag concurrently.
func (tr *Tree) cas2(t *pmem.Thread, c *pmem.Cell, expected, newv uint64) bool {
	if t.CAS(c, expected, newv) {
		return true
	}
	return t.CAS(c, expected|pmem.PersistBit, newv)
}

// cleanup attempts to complete the deletion of the flagged leaf recorded in
// sr (which may belong to another thread — helping): tag the sibling edge,
// then swing the ancestor's child from successor to the sibling subtree.
// On success the removed chain is retired. Critical-method code.
func (tr *Tree) cleanup(t *pmem.Thread, k uint64, sr *seek) bool {
	pol := tr.pol
	parN := tr.node(sr.par)
	var childCell, sibCell *pmem.Cell
	if k < t.Load(&parN.Key) {
		childCell, sibCell = &parN.Left, &parN.Right
	} else {
		childCell, sibCell = &parN.Right, &parN.Left
	}
	cv := t.Load(childCell)
	pol.Read(t, childCell)
	if !pmem.Marked(cv) {
		// The flag is on the other side: we are helping a deletion whose
		// doomed leaf is the sibling.
		sibCell = childCell
	}
	// Freeze the sibling edge with the tag bit.
	for {
		sv := t.Load(sibCell)
		pol.Read(t, sibCell)
		if pmem.Tagged(sv) {
			break
		}
		pol.BeforeCAS(t)
		ok := t.CAS(sibCell, sv, pmem.WithTag(pmem.Dirty(sv)))
		pol.Wrote(t, sibCell)
		if ok {
			break
		}
	}
	sv := t.Load(sibCell)
	pol.Read(t, sibCell)
	surv := pmem.RefIndex(sv)
	// Swing the ancestor edge: successor out, sibling subtree in. The
	// sibling edge's FLAG travels with the promotion (the sibling may be a
	// leaf with its own pending deletion; dropping the flag would let that
	// deletion's cleanup later tag a clean edge and retire a live leaf).
	newEdge := pmem.MakeRef(surv) | (sv & pmem.MarkBit)
	ancCell := tr.childCellToward(t, sr.anc, k)
	pol.BeforeCAS(t)
	ok := tr.cas2(t, ancCell, pmem.MakeRef(sr.succ), newEdge)
	pol.Wrote(t, ancCell)
	pol.BeforeCAS(t) // persist the disconnection before retiring the chain
	if ok {
		tr.retireChain(t, sr.succ, surv)
	}
	return ok
}

// retireChain retires the frozen chain removed by a successful swing: the
// internal nodes from successor down to the parent (following tagged
// edges) and their flagged doomed leaves. The survivor subtree root is
// not touched. Only the swinging thread calls this, so no double retire.
func (tr *Tree) retireChain(t *pmem.Thread, succ, surv uint64) {
	x := succ
	for steps := 0; steps < 1<<20; steps++ {
		n := tr.node(x)
		left := t.Load(&n.Left)
		right := t.Load(&n.Right)
		var doomed, fwd uint64
		switch {
		case pmem.Tagged(right) && !pmem.Tagged(left):
			doomed, fwd = pmem.RefIndex(left), pmem.RefIndex(right)
		case pmem.Tagged(left) && !pmem.Tagged(right):
			doomed, fwd = pmem.RefIndex(right), pmem.RefIndex(left)
		default:
			// A chain node always has exactly one tagged (forward)
			// edge; anything else means a helper raced us here.
			// Leak rather than risk a double retire.
			return
		}
		if doomed != 0 {
			tr.nodes.Retire(t.ID, doomed)
		}
		tr.nodes.Retire(t.ID, x)
		if fwd == surv || fwd == 0 {
			return
		}
		x = fwd
	}
}

// Insert adds key with value; false if present.
func (tr *Tree) Insert(t *pmem.Thread, key, value uint64) bool {
	_, inserted := tr.insertGet(t, key, value, false)
	return inserted
}

// GetOrInsert atomically returns the present value of key (inserted=false)
// or inserts value and returns it (inserted=true).
func (tr *Tree) GetOrInsert(t *pmem.Thread, key, value uint64) (v uint64, inserted bool) {
	return tr.insertGet(t, key, value, true)
}

// insertGet is the shared critical section of Insert and GetOrInsert; see
// list.insertGet for the wantValue contract.
func (tr *Tree) insertGet(t *pmem.Thread, key, value uint64, wantValue bool) (uint64, bool) {
	checkKey(key)
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	pol := tr.pol
	sr := &tr.trs[t.ID].sr
	for {
		tr.traverse(t, key, sr)
		pol.PostTraverse(t, sr.cells)
		leafN := tr.node(sr.leaf)
		if t.Load(&leafN.Key) == key {
			var v uint64
			if wantValue {
				v = t.Load(&leafN.Value)
				pol.ReadData(t, &leafN.Value)
			}
			pol.BeforeReturn(t)
			t.CountOp()
			return v, false
		}
		if pmem.Marked(sr.leafEdge) || pmem.Tagged(sr.leafEdge) {
			// The edge is frozen by a pending deletion: help it finish.
			tr.cleanup(t, key, sr)
			pol.BeforeReturn(t)
			continue
		}
		lKey := t.Load(&leafN.Key)
		newLeaf := tr.newNode(t, key, 1, value, pmem.NilRef, pmem.NilRef)
		maxKey, left, right := key, uint64(0), uint64(0)
		if key < lKey {
			maxKey, left, right = lKey, newLeaf, sr.leaf
		} else {
			left, right = sr.leaf, newLeaf
		}
		ni := tr.newNode(t, maxKey, 0, 0, pmem.MakeRef(left), pmem.MakeRef(right))
		pol.BeforeCAS(t)
		ok := t.CAS(sr.intoLeaf, sr.leafEdge, pmem.MakeRef(ni))
		pol.Wrote(t, sr.intoLeaf)
		pol.BeforeReturn(t)
		if ok {
			t.CountOp()
			return value, true
		}
		tr.nodes.Free(t.ID, newLeaf)
		tr.nodes.Free(t.ID, ni)
		ev := t.Load(sr.intoLeaf)
		pol.Read(t, sr.intoLeaf)
		if pmem.RefIndex(ev) == sr.leaf && (pmem.Marked(ev) || pmem.Tagged(ev)) {
			tr.cleanup(t, key, sr)
			pol.BeforeReturn(t)
		}
	}
}

// Delete removes key; false if absent. Injection flags the leaf's edge
// (the logical deletion, persisted before cleanup), then cleanup swings it
// out of the tree.
func (tr *Tree) Delete(t *pmem.Thread, key uint64) bool {
	checkKey(key)
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	pol := tr.pol
	sr := &tr.trs[t.ID].sr
	injecting := true
	var target uint64
	for {
		tr.traverse(t, key, sr)
		pol.PostTraverse(t, sr.cells)
		if injecting {
			if t.Load(&tr.node(sr.leaf).Key) != key {
				pol.BeforeReturn(t)
				t.CountOp()
				return false
			}
			if pmem.Marked(sr.leafEdge) || pmem.Tagged(sr.leafEdge) {
				tr.cleanup(t, key, sr)
				pol.BeforeReturn(t)
				continue
			}
			pol.BeforeCAS(t)
			ok := t.CAS(sr.intoLeaf, sr.leafEdge, pmem.WithMark(pmem.Dirty(sr.leafEdge)))
			pol.Wrote(t, sr.intoLeaf)
			pol.BeforeCAS(t) // the flag (logical delete) is persistent now
			if !ok {
				ev := t.Load(sr.intoLeaf)
				pol.Read(t, sr.intoLeaf)
				if pmem.RefIndex(ev) == sr.leaf && (pmem.Marked(ev) || pmem.Tagged(ev)) {
					tr.cleanup(t, key, sr)
					pol.BeforeReturn(t)
				}
				continue
			}
			injecting = false
			target = sr.leaf
			if tr.cleanup(t, key, sr) {
				pol.BeforeReturn(t)
				t.CountOp()
				return true
			}
			continue
		}
		// Cleanup mode: done as soon as our flagged leaf left the tree.
		if sr.leaf != target {
			pol.BeforeReturn(t)
			t.CountOp()
			return true
		}
		if tr.cleanup(t, key, sr) {
			pol.BeforeReturn(t)
			t.CountOp()
			return true
		}
	}
}

// Find reports membership and value.
func (tr *Tree) Find(t *pmem.Thread, key uint64) (uint64, bool) {
	checkKey(key)
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	pol := tr.pol
	sr := &tr.trs[t.ID].sr
	tr.traverse(t, key, sr)
	pol.PostTraverse(t, sr.cells)
	leafN := tr.node(sr.leaf)
	// NM reads are wait-free and ignore edge flags: a flagged leaf is
	// still logically present — the deletion linearizes at the swing.
	if t.Load(&leafN.Key) != key {
		pol.BeforeReturn(t)
		t.CountOp()
		return 0, false
	}
	v := t.Load(&leafN.Value)
	pol.ReadData(t, &leafN.Value)
	pol.BeforeReturn(t)
	t.CountOp()
	return v, true
}

func checkKey(key uint64) {
	if key == 0 || key >= Inf0 {
		panic(fmt.Sprintf("nmbst: key %d out of range [1, 2^61)", key))
	}
}
