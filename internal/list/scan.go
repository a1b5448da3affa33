package list

import (
	"repro/internal/kv"
	"repro/internal/pmem"
)

// Update atomically read-modify-writes the value of key in place: it loads
// the current value, applies fn, and installs the result with a CAS on the
// node's value word, retrying until the CAS lands on an unchanged value.
// Returns the installed value and true, or (0, false) if key is absent.
//
// Linearization: the value CAS is the linearization point. The pre-CAS mark
// check makes a successful CAS on a node that a concurrent Delete is
// removing legal — the two operations overlap, so the update may be ordered
// before the deletion. Persistence: the traversal destination is flushed by
// PostTraverse, the value line read by ReadData and the new value by
// WroteData, and the one commit fence before the return persists all three.
// No fence precedes the value CAS: the value word links no node, so nothing
// another thread trusts without flushing it can persist ahead of what it
// was built on (DESIGN.md, "Why a value CAS needs no fence before it").
func (l *List) Update(t *pmem.Thread, key uint64, fn func(old uint64) uint64) (uint64, bool) {
	checkKey(key)
	l.sh.Dom.Enter(t.ID)
	defer l.sh.Dom.Exit(t.ID)
	pol := l.sh.Pol
	tr := l.acquireTraversal(t)
	for {
		l.traverse(t, l.head, key, tr)
		pol.PostTraverse(t, tr.cells)
		if tr.right == 0 || t.Load(&l.node(tr.right).Key) != key {
			pol.BeforeReturn(t)
			t.CountOp()
			return 0, false
		}
		rightN := l.node(tr.right)
		for {
			nx := t.Load(&rightN.Next)
			pol.Read(t, &rightN.Next)
			if pmem.Marked(nx) {
				break // logically deleted under us: retraverse and re-decide
			}
			old := t.Load(&rightN.Value)
			pol.ReadData(t, &rightN.Value)
			newv := fn(old)
			if t.CAS(&rightN.Value, old, newv) {
				pol.WroteData(t, &rightN.Value)
				pol.BeforeReturn(t)
				t.CountOp()
				return newv, true
			}
			// Lost a value race with another updater: reload and retry.
		}
		pol.BeforeReturn(t)
	}
}

// RangeScan visits every present key in [lo, hi] in ascending order,
// calling fn(key, value) until fn returns false or the range is exhausted.
//
// The scan extends the traversal phase: it positions on lo with the usual
// traverse, then keeps walking — reading links with TraverseRead, which
// persists nothing under NVTraverse — and treats the entire visited range
// as the returned node set, so a single PostTraverse at the end flushes
// every link the answer depends on (ensureReachable + makePersistent) and
// the commit fence persists them. The scan never writes: marked nodes are
// skipped, not trimmed.
//
// Consistency: each key's presence is decided at the moment its link is
// read (the scan is not an atomic snapshot); keys untouched by concurrent
// mutators are reported exactly. fn must not call operations of this
// structure on the same thread.
func (l *List) RangeScan(t *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) error {
	lo, hi, ok := kv.ClampKeyRange(lo, hi)
	if !ok {
		return nil
	}
	l.scan(t, lo, hi, fn)
	l.sh.Pol.BeforeReturn(t)
	t.CountOp()
	return nil
}

// ScanAll runs RangeScan's walk over the whole key range on each of lists
// (a hash table's buckets) in turn, each in its own epoch with its own
// PostTraverse, until fn returns false. The walks together are one
// operation: one commit fence, which persists every walk's flushes, and
// one op count at the end.
func ScanAll(t *pmem.Thread, lists []List, fn func(key, value uint64) bool) {
	for i := range lists {
		if !lists[i].scan(t, kv.MinKey, kv.MaxKey, fn) {
			break
		}
	}
	lists[0].sh.Pol.BeforeReturn(t)
	t.CountOp()
}

// scan is RangeScan's walk of [lo, hi] inside one epoch, through its
// PostTraverse; it reports whether fn asked for more.
func (l *List) scan(t *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) bool {
	l.sh.Dom.Enter(t.ID)
	defer l.sh.Dom.Exit(t.ID)
	pol := l.sh.Pol
	tr := l.acquireTraversal(t)
	l.traverse(t, l.head, lo, tr)
	// tr.cells already covers the entry region (parent link, left, marked,
	// right); the walk below appends every further link it reads.
	cur, more := tr.right, true
	for cur != 0 {
		n := l.node(cur)
		k := t.Load(&n.Key)
		if k > hi {
			break
		}
		nx := t.Load(&n.Next)
		pol.TraverseRead(t, &n.Next)
		tr.cells = append(tr.cells, &n.Next)
		if !pmem.Marked(nx) {
			v := t.Load(&n.Value)
			pol.ReadData(t, &n.Value)
			if !fn(k, v) {
				more = false
				break
			}
		}
		cur = pmem.RefIndex(nx)
	}
	pol.PostTraverse(t, tr.cells)
	return more
}
