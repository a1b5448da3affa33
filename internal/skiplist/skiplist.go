// Package skiplist implements a lock-free skiplist (Michael, PODC'02 /
// Fraser's lists-of-lists formulation) in the traversal form of the
// NVTraverse paper.
//
// The paper's Property 2 observation drives the layout: the core tree is
// the bottom-level linked list, which alone holds all keys; the upper index
// levels are auxiliary entry points. Consequently only level-0 links are
// ever flushed or fenced, the upper levels live as ordinary volatile state,
// and recovery rebuilds the towers from the surviving level-0 list.
//
// Operation anatomy:
//
//	findEntry: descend the index levels (volatile reads, opportunistic
//	           volatile unlinking of marked towers) to the last level-1
//	           predecessor — an entry node with key < k.
//	traverse:  Harris-style walk of level 0 from the entry node.
//	critical:  level-0 insert/mark/unlink under Protocol 2, then volatile
//	           tower linking/unlinking (no persistence: auxiliary state).
//
// Deletion marks the tower top-down (volatile marks on levels >= 1, so
// index searches stop routing through the dying node) and only then marks
// level 0 under the persistence protocol; the level-0 mark is the logical
// deletion point. Tower unlinking is identity-based — it searches for the
// node handle, not its key — so a concurrent re-insert of the same key can
// never strand a dead tower in the index.
package skiplist

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/epoch"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// MaxLevel is the tallest tower (level indices 0..MaxLevel-1): one level-0
// link plus the sixteen index levels that fill a node's last two lines.
const MaxLevel = 17

// Node is one skiplist node. Key and Level are immutable after
// initialization. The level-0 link is core-tree state (persisted); the
// upper links are auxiliary. The level-0 mark bit is the logical deletion
// mark; upper levels carry their own volatile marks so index unlinking is
// safe.
//
// The first line holds only core-tree state: an insert's volatile tower
// writes into its neighbours' upper links must not change the line a read
// flushes, or on a file-backed memory that read would log the line again
// for a change recovery throws away. Key, Value, Level and the level-0
// link are the first four cells, where existing data directories hold
// them; recovery rebuilds every upper link from Level.
type Node struct {
	Key   pmem.Cell
	Value pmem.Cell
	Level pmem.Cell // number of levels in this tower (1..MaxLevel)
	next0 pmem.Cell
	_     [4]pmem.Cell
	up    [MaxLevel - 1]pmem.Cell // links 1..MaxLevel-1
}

// next returns the node's level-i link.
func (n *Node) next(i int) *pmem.Cell {
	if i == 0 {
		return &n.next0
	}
	return &n.up[i-1]
}

// List is the skiplist.
type List struct {
	mem  *pmem.Memory
	dom  *epoch.Domain
	ar   *arena.Arena[Node]
	pol  persist.Policy
	head uint64 // full-height sentinel with key 0

	trs []paddedTraversal
}

type paddedTraversal struct {
	tr traversal
	_  [64]byte
}

type traversal struct {
	// level-0 traversal results (same roles as the Harris list).
	parent   uint64
	left     uint64
	right    uint64
	leftNext uint64
	marked   []uint64
	cells    []*pmem.Cell
	// preds[i] is the level-i predecessor found by findEntry (i >= 1).
	preds [MaxLevel]uint64
}

// New creates an empty skiplist.
func New(mem *pmem.Memory, pol persist.Policy) *List {
	dom := epoch.New(mem.MaxThreads())
	l := &List{
		mem: mem,
		dom: dom,
		ar:  arena.New[Node](dom, mem.MaxThreads()),
		pol: pol,
		trs: make([]paddedTraversal, mem.MaxThreads()),
	}
	// The head sentinel tower is an arena node at a deterministic handle,
	// so registering the arena covers all persistent state.
	l.ar.Persist(mem.NewSpace())
	t := mem.NewThread()
	h := l.ar.Alloc(t.ID)
	n := l.ar.Get(h)
	t.Store(&n.Key, 0)
	t.Store(&n.Value, 0)
	t.Store(&n.Level, MaxLevel)
	for i := 0; i < MaxLevel; i++ {
		t.Store(n.next(i), pmem.NilRef)
	}
	// Only the core-tree part of the sentinel needs persisting.
	t.Flush(&n.Key)
	t.Flush(n.next(0))
	t.Fence()
	l.head = h
	return l
}

func (l *List) node(idx uint64) *Node { return l.ar.Get(idx) }

// randomLevel draws a geometric(1/2) tower height in [1, MaxLevel].
func randomLevel(t *pmem.Thread) uint64 {
	r := t.Rand()
	lvl := uint64(1)
	for r&1 == 1 && lvl < MaxLevel {
		lvl++
		r >>= 1
	}
	return lvl
}

// findEntry descends the auxiliary levels. It records the predecessor per
// level for the critical method's tower linking and returns the level-1
// predecessor as the level-0 entry point. Marked towers are unlinked
// opportunistically with volatile CASes — auxiliary maintenance, exempt
// from Protocol 2 (it never touches core-tree state).
func (l *List) findEntry(t *pmem.Thread, k uint64, tr *traversal) uint64 {
retry:
	pred := l.head
	for lvl := MaxLevel - 1; lvl >= 1; lvl-- {
		for {
			predN := l.node(pred)
			pn := t.Load(predN.next(lvl))
			if pmem.Marked(pn) {
				goto retry // pred is dying at this level: restart
			}
			cur := pmem.RefIndex(pn)
			if cur == 0 {
				break
			}
			curN := l.node(cur)
			cn := t.Load(curN.next(lvl))
			if pmem.Marked(cn) {
				// Unlink the marked tower at this level (volatile).
				t.CAS(predN.next(lvl), pn, pmem.ClearTags(cn))
				continue
			}
			if t.Load(&curN.Key) < k {
				pred = cur
				continue
			}
			break
		}
		tr.preds[lvl] = pred
	}
	return pred
}

// traverse is the Harris-list traverse on level 0 starting at entry. It
// returns false when the entry node itself turned out to be logically
// deleted, in which case the operation restarts from findEntry.
func (l *List) traverse(t *pmem.Thread, entry uint64, k uint64, tr *traversal) bool {
	pol := l.pol
	for {
		tr.marked = tr.marked[:0]
		leftParent := entry
		left := entry
		pred := entry
		curr := entry
		currN := l.node(curr)
		succ := t.Load(currN.next(0))
		pol.TraverseRead(t, currN.next(0))
		if entry != l.head && pmem.Marked(succ) {
			return false // stale entry point: re-derive it
		}
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
			succ = t.Load(currN.next(0))
			pol.TraverseRead(t, currN.next(0))
		}
		right := curr
		if right != 0 {
			rn := t.Load(l.node(right).next(0))
			pol.TraverseRead(t, l.node(right).next(0))
			if pmem.Marked(rn) {
				continue
			}
		}
		tr.parent, tr.left, tr.right, tr.leftNext = leftParent, left, right, leftNext
		tr.cells = tr.cells[:0]
		tr.cells = append(tr.cells, l.node(leftParent).next(0))
		tr.cells = append(tr.cells, l.node(left).next(0))
		for _, m := range tr.marked {
			tr.cells = append(tr.cells, l.node(m).next(0))
		}
		if right != 0 {
			tr.cells = append(tr.cells, l.node(right).next(0))
		}
		return true
	}
}

// trimMarked physically disconnects the marked level-0 nodes between left
// and right, with Protocol 2 persistence, and retires them once the
// disconnection is persistent.
func (l *List) trimMarked(t *pmem.Thread, tr *traversal) bool {
	pol := l.pol
	if len(tr.marked) == 0 {
		pol.BeforeReturn(t)
		return true
	}
	leftN := l.node(tr.left)
	newNext := pmem.Dirty(pmem.MakeRef(tr.right))
	pol.BeforeCAS(t)
	ok := t.CAS(leftN.next(0), tr.leftNext, newNext)
	pol.Wrote(t, leftN.next(0))
	if !ok {
		pol.BeforeReturn(t)
		return false
	}
	tr.leftNext = newNext
	rightClean := true
	if tr.right != 0 {
		rn := t.Load(l.node(tr.right).next(0))
		pol.Read(t, l.node(tr.right).next(0))
		rightClean = !pmem.Marked(rn)
	}
	pol.BeforeReturn(t)
	for _, m := range tr.marked {
		l.unlinkTower(t, m)
		l.ar.Retire(t.ID, m)
	}
	tr.marked = tr.marked[:0]
	return rightClean
}

// unlinkTower removes node idx from every index level it still occupies.
// The search is by node identity, not key: a concurrent re-insert of the
// same key must never shadow the dead tower and leak it into the index
// past its retirement. Volatile auxiliary maintenance — no persistence.
// The node's upper links are already marked (deletion marks top-down
// before the level-0 mark), so concurrent linkTower calls cannot re-link.
func (l *List) unlinkTower(t *pmem.Thread, idx uint64) {
	n := l.node(idx)
	lvl := t.Load(&n.Level)
	key := t.Load(&n.Key)
	for i := int(lvl) - 1; i >= 1; i-- {
		l.unlinkLevel(t, idx, key, i)
	}
}

// unlinkLevel removes node idx from index level i if it is linked there.
func (l *List) unlinkLevel(t *pmem.Thread, idx, key uint64, i int) {
	n := l.node(idx)
retryLevel:
	pred := l.head
	for {
		predN := l.node(pred)
		pn := t.Load(predN.next(i))
		cur := pmem.RefIndex(pn)
		if cur == 0 {
			return // not linked at this level
		}
		if cur == idx {
			nn := t.Load(n.next(i)) // marked
			// Preserve pred's own mark bit if it is dying too.
			repl := pmem.ClearTags(nn) | (pn & pmem.MarkBit)
			if !t.CAS(predN.next(i), pn, repl) {
				goto retryLevel
			}
			return
		}
		if t.Load(&l.node(cur).Key) > key {
			return // passed every node with this key: not linked
		}
		pred = cur
	}
}

// Insert adds key with value; false if present.
func (l *List) Insert(t *pmem.Thread, key, value uint64) bool {
	_, inserted := l.insertGet(t, key, value, false)
	return inserted
}

// GetOrInsert atomically returns the present value of key (inserted=false)
// or inserts value and returns it (inserted=true).
func (l *List) GetOrInsert(t *pmem.Thread, key, value uint64) (v uint64, inserted bool) {
	return l.insertGet(t, key, value, true)
}

// insertGet is the shared critical section of Insert and GetOrInsert; see
// list.insertGet for the wantValue contract.
func (l *List) insertGet(t *pmem.Thread, key, value uint64, wantValue bool) (uint64, bool) {
	checkKey(key)
	l.dom.Enter(t.ID)
	defer l.dom.Exit(t.ID)
	pol := l.pol
	tr := &l.trs[t.ID].tr
	for {
		entry := l.findEntry(t, key, tr)
		if !l.traverse(t, entry, key, tr) {
			continue
		}
		pol.PostTraverse(t, tr.cells)
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
		lvl := randomLevel(t)
		idx := l.ar.Alloc(t.ID)
		n := l.node(idx)
		t.Store(&n.Key, key)
		t.Store(&n.Value, value)
		t.Store(&n.Level, lvl)
		t.Store(n.next(0), pmem.Dirty(pmem.MakeRef(tr.right)))
		for i := 1; i < int(lvl); i++ {
			//nvcheck:ignore writehook -- upper tower levels are volatile index state: recovery rebuilds them from the durable Level field, so no hook or flush is wanted
			t.Store(n.next(i), pmem.NilRef)
		}
		// Core-tree fields participate in the protocol; Level is persisted
		// too because recovery rebuilds the towers from it. Upper links
		// are auxiliary and stay unflushed.
		pol.InitWrite(t, &n.Key)
		pol.InitWrite(t, &n.Value)
		pol.InitWrite(t, &n.Level)
		pol.InitWrite(t, n.next(0))
		leftN := l.node(tr.left)
		pol.BeforeCAS(t)
		ok := t.CAS(leftN.next(0), tr.leftNext, pmem.Dirty(pmem.MakeRef(idx)))
		pol.Wrote(t, leftN.next(0))
		pol.BeforeReturn(t)
		if !ok {
			l.ar.Free(t.ID, idx)
			continue
		}
		// Linearized and persisted; now link the tower (volatile).
		l.linkTower(t, idx, lvl, key, tr)
		t.CountOp()
		return value, true
	}
}

// linkTower links node idx into levels 1..lvl-1. Both the node-side and
// the predecessor-side writes are CASes so a concurrent deletion's marks
// can never be overwritten; if the node gets marked, linking stops — the
// deleter's identity unlink handles whatever was already linked.
func (l *List) linkTower(t *pmem.Thread, idx, lvl, key uint64, tr *traversal) {
	n := l.node(idx)
	for i := 1; i < int(lvl); i++ {
		for {
			if pmem.Marked(t.Load(n.next(0))) {
				return // deleted concurrently: stop linking
			}
			pred := tr.preds[i]
			predN := l.node(pred)
			pn := t.Load(predN.next(i))
			cur := pmem.RefIndex(pn)
			for !pmem.Marked(pn) && cur != 0 && cur != idx &&
				t.Load(&l.node(cur).Key) < key {
				pred = cur
				predN = l.node(pred)
				pn = t.Load(predN.next(i))
				cur = pmem.RefIndex(pn)
			}
			if pmem.Marked(pn) {
				// Predecessor dying: re-derive the level's preds.
				l.findEntry(t, key, tr)
				continue
			}
			if cur == idx {
				break // already linked (helped)
			}
			old := t.Load(n.next(i))
			if pmem.Marked(old) {
				return // deleter claimed the tower
			}
			if !t.CAS(n.next(i), old, pmem.MakeRef(cur)) {
				continue // marked or changed under us: re-examine
			}
			if t.CAS(predN.next(i), pn, pmem.MakeRef(idx)) {
				// A deletion that raced with this publish may already
				// have finished its own identity unlink; re-check and
				// clean up ourselves. We are still inside the epoch
				// critical section, so the node cannot be reused yet.
				if pmem.Marked(t.Load(n.next(0))) {
					l.unlinkLevel(t, idx, key, i)
				}
				break
			}
			l.findEntry(t, key, tr)
		}
	}
}

// Delete removes key; false if absent.
func (l *List) Delete(t *pmem.Thread, key uint64) bool {
	checkKey(key)
	l.dom.Enter(t.ID)
	defer l.dom.Exit(t.ID)
	pol := l.pol
	tr := &l.trs[t.ID].tr
	for {
		entry := l.findEntry(t, key, tr)
		if !l.traverse(t, entry, key, tr) {
			continue
		}
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
		// Mark the auxiliary levels top-down first (volatile) so index
		// searches stop routing through the dying tower.
		lvl := t.Load(&rightN.Level)
		for i := int(lvl) - 1; i >= 1; i-- {
			for {
				nx := t.Load(rightN.next(i))
				if pmem.Marked(nx) {
					break
				}
				//nvcheck:ignore writehook -- upper tower levels are volatile index state: recovery rebuilds them from the durable Level field, so no hook or flush is wanted
				if t.CAS(rightN.next(i), nx, pmem.WithMark(nx)) {
					break
				}
			}
		}
		// Core-tree logical deletion under Protocol 2.
		rNext := t.Load(rightN.next(0))
		pol.Read(t, rightN.next(0))
		if !pmem.Marked(rNext) {
			pol.BeforeCAS(t)
			ok := t.CAS(rightN.next(0), rNext, pmem.WithMark(pmem.Dirty(rNext)))
			pol.Wrote(t, rightN.next(0))
			pol.BeforeCAS(t)
			if ok {
				leftN := l.node(tr.left)
				phys := t.CAS(leftN.next(0), tr.leftNext, pmem.ClearTags(rNext))
				pol.Wrote(t, leftN.next(0))
				pol.BeforeReturn(t)
				if phys {
					l.unlinkTower(t, tr.right)
					l.ar.Retire(t.ID, tr.right)
				}
				t.CountOp()
				return true
			}
		}
		pol.BeforeReturn(t)
	}
}

// Find reports membership and value.
func (l *List) Find(t *pmem.Thread, key uint64) (uint64, bool) {
	checkKey(key)
	l.dom.Enter(t.ID)
	defer l.dom.Exit(t.ID)
	pol := l.pol
	tr := &l.trs[t.ID].tr
	for {
		entry := l.findEntry(t, key, tr)
		if !l.traverse(t, entry, key, tr) {
			continue
		}
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
}

func checkKey(key uint64) {
	if key == 0 || key >= 1<<61 {
		panic(fmt.Sprintf("skiplist: key %d out of range [1, 2^61)", key))
	}
}
