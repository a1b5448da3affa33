// Package ellenbst implements the non-blocking external binary search tree
// of Ellen, Fatourou, Ruppert and van Breugel (PODC'10) in the traversal
// form of the NVTraverse paper.
//
// The tree is leaf-oriented: internal nodes route by key, leaves hold the
// set's elements. Updates coordinate through per-internal-node update words
// holding a state (CLEAN / IFLAG / DFLAG / MARK) and a pointer to an Info
// record describing the operation, so any thread can help any pending
// operation to completion (lock-freedom).
//
// Traversal form: the search from the root down to a leaf is the traverse
// method — it routes only on immutable keys and stops at the (immutable)
// leaf flag, returning (gp, p, l) along with the update words it read, so
// Protocol 1 flushes exactly those update words and the path links into the
// returned nodes. Everything from helping onward is the critical method
// under Protocol 2.
//
// MARK on p.Update is the paper's Definition 1 mark: once set, no field of
// p changes and the unique disconnection instruction (Property 5) is the
// gp-child CAS recorded in the Info record.
package ellenbst

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/epoch"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// Update-word states (low two bits).
const (
	stClean uint64 = 0
	stIFlag uint64 = 1
	stDFlag uint64 = 2
	stMark  uint64 = 3

	stateMask uint64 = 3
	infoShift        = 2
)

// Sentinel keys: every user key must be < Inf1.
const (
	Inf1 = uint64(1) << 61
	Inf2 = Inf1 + 1
)

func state(u uint64) uint64   { return u & stateMask }
func infoIdx(u uint64) uint64 { return (u &^ pmem.PersistBit) >> infoShift }
func mkUpdate(st, info uint64) uint64 {
	return st | info<<infoShift
}

// Node is a tree node. Key and Leaf are immutable after initialization;
// Left/Right are the child links of internal nodes; Update is the
// coordination word; Value holds the element's value in leaves.
type Node struct {
	Key    pmem.Cell
	Leaf   pmem.Cell // 1 = leaf, 0 = internal
	Value  pmem.Cell
	Left   pmem.Cell
	Right  pmem.Cell
	Update pmem.Cell
	_      [16]byte // pad to one 64-byte line (line-granular persistence)
}

// Info is an operation descriptor. Kind and all fields are immutable after
// initialization (persisted before the flag CAS publishes the record).
type Info struct {
	Kind        pmem.Cell // 0 = insert, 1 = delete
	GP          pmem.Cell // delete only
	P           pmem.Cell
	L           pmem.Cell
	NewInternal pmem.Cell // insert only
	PUpdate     pmem.Cell // delete only: p.Update value read by the search
	_           [16]byte  // pad to one 64-byte line (line-granular persistence)
}

const (
	kindInsert = 0
	kindDelete = 1
)

// Tree is the set.
type Tree struct {
	mem   *pmem.Memory
	dom   *epoch.Domain
	nodes *arena.Arena[Node]
	infos *arena.Arena[Info]
	pol   persist.Policy
	root  uint64

	trs []paddedSearch
}

type paddedSearch struct {
	sr search
	_  [64]byte
}

// search is the traverse method's result.
type search struct {
	gp, p, l          uint64 // gp may be 0 (p is the root)
	gpUpdate, pUpdate uint64 // raw update words as read
	intoGP, intoP     *pmem.Cell
	intoL             *pmem.Cell
	cells             []*pmem.Cell
}

// New creates an empty tree (root internal with two sentinel leaves).
func New(mem *pmem.Memory, pol persist.Policy) *Tree {
	dom := epoch.New(mem.MaxThreads())
	tr := &Tree{
		mem:   mem,
		dom:   dom,
		nodes: arena.New[Node](dom, mem.MaxThreads()),
		infos: arena.New[Info](dom, mem.MaxThreads()),
		pol:   pol,
		trs:   make([]paddedSearch, mem.MaxThreads()),
	}
	// Fixed registration order (nodes, then infos) keeps on-disk space IDs
	// stable across boots.
	tr.nodes.Persist(mem.NewSpace())
	tr.infos.Persist(mem.NewSpace())
	t := mem.NewThread()
	l1 := tr.newLeaf(t, Inf1, 0)
	l2 := tr.newLeaf(t, Inf2, 0)
	r := tr.nodes.Alloc(t.ID)
	n := tr.nodes.Get(r)
	t.Store(&n.Key, Inf2)
	t.Store(&n.Leaf, 0)
	t.Store(&n.Value, 0)
	t.Store(&n.Left, pmem.MakeRef(l1))
	t.Store(&n.Right, pmem.MakeRef(l2))
	t.Store(&n.Update, mkUpdate(stClean, 0))
	t.Flush(&n.Key)
	t.Flush(&n.Left)
	t.Flush(&n.Right)
	t.Flush(&n.Update)
	t.Fence()
	tr.root = r
	return tr
}

func (tr *Tree) node(idx uint64) *Node { return tr.nodes.Get(idx) }
func (tr *Tree) info(idx uint64) *Info { return tr.infos.Get(idx) }

func (tr *Tree) newLeaf(t *pmem.Thread, key, value uint64) uint64 {
	idx := tr.nodes.Alloc(t.ID)
	n := tr.nodes.Get(idx)
	t.Store(&n.Key, key)
	t.Store(&n.Leaf, 1)
	t.Store(&n.Value, value)
	t.Store(&n.Left, pmem.NilRef)
	t.Store(&n.Right, pmem.NilRef)
	t.Store(&n.Update, mkUpdate(stClean, 0))
	// Every field is flushed before publication: arena slots are recycled,
	// so an unpersisted field would roll back to the previous occupant's
	// value on a crash (e.g. a Leaf flag flipping back to "internal").
	tr.pol.InitWrite(t, &n.Key)
	tr.pol.InitWrite(t, &n.Leaf)
	tr.pol.InitWrite(t, &n.Value)
	tr.pol.InitWrite(t, &n.Left)
	tr.pol.InitWrite(t, &n.Right)
	tr.pol.InitWrite(t, &n.Update)
	return idx
}

// traverse is the search of Ellen et al.: route down by key comparisons
// (immutable), reading each internal node's update word before following
// its child link, until a leaf. No shared memory is modified.
func (tr *Tree) traverse(t *pmem.Thread, k uint64, sr *search) {
	pol := tr.pol
	var gp, p uint64
	var gpUpdate, pUpdate uint64
	var intoGP, intoP, intoL *pmem.Cell
	l := tr.root
	for {
		n := tr.node(l)
		if t.Load(&n.Leaf) == 1 {
			break
		}
		gp, gpUpdate, intoGP = p, pUpdate, intoP
		p = l
		pUpdate = t.Load(&n.Update)
		pol.TraverseRead(t, &n.Update)
		intoP = intoL
		if k < t.Load(&n.Key) {
			l = pmem.RefIndex(t.Load(&n.Left))
			pol.TraverseRead(t, &n.Left)
			intoL = &n.Left
		} else {
			l = pmem.RefIndex(t.Load(&n.Right))
			pol.TraverseRead(t, &n.Right)
			intoL = &n.Right
		}
	}
	sr.gp, sr.p, sr.l = gp, p, l
	sr.gpUpdate, sr.pUpdate = gpUpdate, pUpdate
	sr.intoGP, sr.intoP, sr.intoL = intoGP, intoP, intoL
	// Protocol 1 cell set: ensureReachable is the link into the topmost
	// returned node (gp if present, else p); makePersistent covers the
	// fields read in gp, p and l — their update words and the path links.
	sr.cells = sr.cells[:0]
	if sr.intoGP != nil {
		sr.cells = append(sr.cells, sr.intoGP)
	}
	if sr.gp != 0 {
		sr.cells = append(sr.cells, &tr.node(sr.gp).Update)
	}
	if sr.intoP != nil {
		sr.cells = append(sr.cells, sr.intoP)
	}
	sr.cells = append(sr.cells, &tr.node(sr.p).Update)
	if sr.intoL != nil {
		sr.cells = append(sr.cells, sr.intoL)
	}
}

// cas2 performs a CAS whose expected value was constructed rather than
// read: under the link-and-persist policy a concurrent flush may have set
// the persist tag on the word, so both the plain and the tagged variant of
// the expectation must be tried. The new value is dirty by construction.
func (tr *Tree) cas2(t *pmem.Thread, c *pmem.Cell, expected, newv uint64) bool {
	if t.CAS(c, expected, newv) {
		return true
	}
	return t.CAS(c, expected|pmem.PersistBit, newv)
}

// childCellToward returns p's child cell on the side where key belongs.
func (tr *Tree) childCellToward(t *pmem.Thread, p uint64, key uint64) *pmem.Cell {
	n := tr.node(p)
	if key < t.Load(&n.Key) {
		return &n.Left
	}
	return &n.Right
}

// help advances whatever operation the update word u describes (critical
// method work, Protocol 2 persistence).
func (tr *Tree) help(t *pmem.Thread, u uint64) {
	switch state(u) {
	case stIFlag:
		tr.helpInsert(t, infoIdx(u))
	case stMark:
		tr.helpMarked(t, infoIdx(u))
	case stDFlag:
		tr.helpDelete(t, infoIdx(u))
	}
}

// helpInsert completes an insert described by info idx: swing p's child
// from l to newInternal (ichild), then unflag p.
func (tr *Tree) helpInsert(t *pmem.Thread, idx uint64) {
	inf := tr.info(idx)
	p := pmem.RefIndex(t.Load(&inf.P))
	l := pmem.RefIndex(t.Load(&inf.L))
	ni := pmem.RefIndex(t.Load(&inf.NewInternal))
	// Info fields and node keys are immutable: no flush after reading.
	lKey := t.Load(&tr.node(l).Key)
	cell := tr.childCellToward(t, p, lKey)
	pol := tr.pol
	pol.BeforeCAS(t)
	tr.cas2(t, cell, pmem.MakeRef(l), pmem.MakeRef(ni)) // ichild
	pol.Wrote(t, cell)
	pU := &tr.node(p).Update
	pol.BeforeCAS(t)
	tr.cas2(t, pU, mkUpdate(stIFlag, idx), mkUpdate(stClean, idx)) // iunflag
	pol.Wrote(t, pU)
}

// helpDelete tries to mark p (the parent of the doomed leaf). Returns true
// when the deletion went through (p marked and spliced), false when it had
// to back off (gp was unflagged instead).
func (tr *Tree) helpDelete(t *pmem.Thread, idx uint64) bool {
	inf := tr.info(idx)
	p := pmem.RefIndex(t.Load(&inf.P))
	gp := pmem.RefIndex(t.Load(&inf.GP))
	pUpdateExp := t.Load(&inf.PUpdate)
	pol := tr.pol
	pU := &tr.node(p).Update
	pol.BeforeCAS(t)
	res := tr.cas2(t, pU, pmem.Dirty(pUpdateExp), mkUpdate(stMark, idx)) // mark
	pol.Wrote(t, pU)
	cur := t.Load(pU)
	pol.Read(t, pU)
	if res || pmem.Dirty(cur) == mkUpdate(stMark, idx) {
		tr.helpMarked(t, idx)
		return true
	}
	// Someone else got in: help them, then back out of the dflag.
	tr.help(t, pmem.Dirty(cur))
	gpU := &tr.node(gp).Update
	pol.BeforeCAS(t)
	tr.cas2(t, gpU, mkUpdate(stDFlag, idx), mkUpdate(stClean, idx)) // backtrack
	pol.Wrote(t, gpU)
	return false
}

// helpMarked splices p (marked) and its doomed leaf out by swinging gp's
// child to l's sibling (dchild), then unflags gp. This is the unique
// disconnection instruction of Property 5.
func (tr *Tree) helpMarked(t *pmem.Thread, idx uint64) {
	inf := tr.info(idx)
	p := pmem.RefIndex(t.Load(&inf.P))
	gp := pmem.RefIndex(t.Load(&inf.GP))
	l := pmem.RefIndex(t.Load(&inf.L))
	pol := tr.pol
	pn := tr.node(p)
	left := t.Load(&pn.Left)
	pol.Read(t, &pn.Left)
	var sibling uint64
	if pmem.RefIndex(left) == l {
		sibling = t.Load(&pn.Right)
		pol.Read(t, &pn.Right)
	} else {
		sibling = left
	}
	pKey := t.Load(&pn.Key)
	cell := tr.childCellToward(t, gp, pKey)
	pol.BeforeCAS(t)
	tr.cas2(t, cell, pmem.MakeRef(p), pmem.ClearTags(sibling)) // dchild
	pol.Wrote(t, cell)
	gpU := &tr.node(gp).Update
	pol.BeforeCAS(t)
	tr.cas2(t, gpU, mkUpdate(stDFlag, idx), mkUpdate(stClean, idx)) // dunflag
	pol.Wrote(t, gpU)
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
		lN := tr.node(sr.l)
		if t.Load(&lN.Key) == key {
			var v uint64
			if wantValue {
				v = t.Load(&lN.Value)
				pol.ReadData(t, &lN.Value)
			}
			pol.BeforeReturn(t)
			t.CountOp()
			return v, false
		}
		if state(sr.pUpdate) != stClean {
			tr.help(t, pmem.Dirty(sr.pUpdate))
			continue
		}
		// Build the replacement subtree: newInternal over the new leaf and
		// a copy of l. PODC'10 copies l so that no child field ever holds
		// the same node twice. With l itself under newInternal, deleting
		// the new leaf would move l back up to p, and a helper that read
		// the iflag earlier would then find l where its ichild expects it
		// and re-link the removed newInternal (ABA: the deleted key is
		// back).
		lKey := t.Load(&lN.Key)
		lValue := t.Load(&lN.Value)
		pol.ReadData(t, &lN.Value)
		newLeaf := tr.newLeaf(t, key, value)
		sibling := tr.newLeaf(t, lKey, lValue)
		ni := tr.nodes.Alloc(t.ID)
		niN := tr.node(ni)
		maxKey := key
		if lKey > maxKey {
			maxKey = lKey
		}
		t.Store(&niN.Key, maxKey)
		t.Store(&niN.Leaf, 0)
		t.Store(&niN.Value, 0)
		if key < lKey {
			t.Store(&niN.Left, pmem.MakeRef(newLeaf))
			t.Store(&niN.Right, pmem.MakeRef(sibling))
		} else {
			t.Store(&niN.Left, pmem.MakeRef(sibling))
			t.Store(&niN.Right, pmem.MakeRef(newLeaf))
		}
		t.Store(&niN.Update, mkUpdate(stClean, 0))
		pol.InitWrite(t, &niN.Key)
		pol.InitWrite(t, &niN.Leaf)
		pol.InitWrite(t, &niN.Value)
		pol.InitWrite(t, &niN.Left)
		pol.InitWrite(t, &niN.Right)
		pol.InitWrite(t, &niN.Update)
		if tr.replaceLeaf(t, sr, ni) {
			pol.BeforeReturn(t)
			tr.nodes.Retire(t.ID, sr.l)
			tr.retireInfo(t, sr.pUpdate)
			t.CountOp()
			return value, true
		}
		// Flag failed: recycle the never-published allocations, retry.
		tr.nodes.Free(t.ID, newLeaf)
		tr.nodes.Free(t.ID, sibling)
		tr.nodes.Free(t.ID, ni)
	}
}

// replaceLeaf swings sr.p's child from the leaf sr.l to the initialized,
// unpublished node sub through the insert protocol (iflag, ichild,
// iunflag). It returns false when the iflag CAS lost, after helping
// whoever won; sub is still unpublished then. On true the caller fences
// (BeforeReturn) and only then retires sr.l, which the ichild unlinked, and
// the record sr.pUpdate names: the iflag replaced that (CLEAN, old) word.
// The new record stays, since p's word still names it (CLEAN after the
// iunflag) as the expected value of the next flag CAS on p.
func (tr *Tree) replaceLeaf(t *pmem.Thread, sr *search, sub uint64) bool {
	pol := tr.pol
	idx := tr.infos.Alloc(t.ID)
	inf := tr.info(idx)
	t.Store(&inf.Kind, kindInsert)
	t.Store(&inf.GP, pmem.NilRef)
	t.Store(&inf.P, pmem.MakeRef(sr.p))
	t.Store(&inf.L, pmem.MakeRef(sr.l))
	t.Store(&inf.NewInternal, pmem.MakeRef(sub))
	t.Store(&inf.PUpdate, 0)
	pol.InitWrite(t, &inf.Kind)
	pol.InitWrite(t, &inf.GP)
	pol.InitWrite(t, &inf.P)
	pol.InitWrite(t, &inf.L)
	pol.InitWrite(t, &inf.NewInternal)
	pol.InitWrite(t, &inf.PUpdate)
	pU := &tr.node(sr.p).Update
	pol.BeforeCAS(t)
	ok := t.CAS(pU, sr.pUpdate, mkUpdate(stIFlag, idx)) // iflag
	pol.Wrote(t, pU)
	if !ok {
		tr.infos.Free(t.ID, idx)
		cur := t.Load(pU)
		pol.Read(t, pU)
		tr.help(t, pmem.Dirty(cur))
		return false
	}
	tr.helpInsert(t, idx)
	return true
}

// Delete removes key; false if absent.
func (tr *Tree) Delete(t *pmem.Thread, key uint64) bool {
	checkKey(key)
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	pol := tr.pol
	sr := &tr.trs[t.ID].sr
	for {
		tr.traverse(t, key, sr)
		pol.PostTraverse(t, sr.cells)
		if t.Load(&tr.node(sr.l).Key) != key {
			pol.BeforeReturn(t)
			t.CountOp()
			return false
		}
		if state(sr.gpUpdate) != stClean {
			tr.help(t, pmem.Dirty(sr.gpUpdate))
			continue
		}
		if state(sr.pUpdate) != stClean {
			tr.help(t, pmem.Dirty(sr.pUpdate))
			continue
		}
		idx := tr.infos.Alloc(t.ID)
		inf := tr.info(idx)
		t.Store(&inf.Kind, kindDelete)
		t.Store(&inf.GP, pmem.MakeRef(sr.gp))
		t.Store(&inf.P, pmem.MakeRef(sr.p))
		t.Store(&inf.L, pmem.MakeRef(sr.l))
		t.Store(&inf.NewInternal, pmem.NilRef)
		t.Store(&inf.PUpdate, pmem.Dirty(sr.pUpdate))
		pol.InitWrite(t, &inf.Kind)
		pol.InitWrite(t, &inf.GP)
		pol.InitWrite(t, &inf.P)
		pol.InitWrite(t, &inf.L)
		pol.InitWrite(t, &inf.NewInternal)
		pol.InitWrite(t, &inf.PUpdate)
		gpU := &tr.node(sr.gp).Update
		pol.BeforeCAS(t)
		ok := t.CAS(gpU, sr.gpUpdate, mkUpdate(stDFlag, idx)) // dflag
		pol.Wrote(t, gpU)
		if ok {
			if tr.helpDelete(t, idx) {
				pol.BeforeReturn(t)
				// Disconnection persisted (the fence above): the
				// spliced internal node and its leaf may be recycled
				// by the operation owner, and so may the records
				// whose CLEAN words the dflag (on gp) and the mark (on
				// p) replaced. idx stays: gp's word names it.
				tr.nodes.Retire(t.ID, sr.p)
				tr.nodes.Retire(t.ID, sr.l)
				tr.retireInfo(t, sr.gpUpdate)
				tr.retireInfo(t, sr.pUpdate)
				t.CountOp()
				return true
			}
			// Backtracked: gp's word went (CLEAN, old) → (DFLAG, idx) →
			// (CLEAN, idx), so old is unnamed and idx lives on in gp.
			tr.retireInfo(t, sr.gpUpdate)
			continue
		}
		tr.infos.Free(t.ID, idx)
		cur := t.Load(gpU)
		pol.Read(t, gpU)
		tr.help(t, pmem.Dirty(cur))
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
	lN := tr.node(sr.l)
	if t.Load(&lN.Key) != key {
		pol.BeforeReturn(t)
		t.CountOp()
		return 0, false
	}
	v := t.Load(&lN.Value)
	pol.ReadData(t, &lN.Value)
	pol.BeforeReturn(t)
	t.CountOp()
	return v, true
}

// retireInfo retires the Info record named by u, the CLEAN update word a
// successful flag or mark CAS of the caller's operation replaced. An Info
// record is named by the update words of the nodes its operation flagged,
// and each such word keeps naming it after the unflag, as the expected
// value of the next flag CAS on that node. Recycling it while a word names
// it lets a stale search's CAS succeed against the record's next life
// (ABA): the PODC'10 algorithm assumes a garbage collector, which never
// reuses a record that something still names. So a record is retired only
// by the owner whose CAS replaced the word naming it.
//
// A delete's Info also names the record in p's word it read, as its mark
// expectation (PUpdate), and a helper that finds the delete flagged after
// someone else replaced that word still tries the mark. The delete's owner
// stays in its epoch until the flag is gone, so such a helper enters at
// most one epoch after the retirement: RetireLate keeps the record out of
// circulation until it has left. Handle 0 (the initial CLEAN words) is not
// a record.
func (tr *Tree) retireInfo(t *pmem.Thread, u uint64) {
	if idx := infoIdx(u); idx != 0 {
		tr.infos.RetireLate(t.ID, idx)
	}
}

func checkKey(key uint64) {
	if key == 0 || key >= Inf1 {
		panic(fmt.Sprintf("ellenbst: key %d out of range [1, 2^61)", key))
	}
}
