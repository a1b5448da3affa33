package skiplist

import (
	"repro/internal/kv"
	"repro/internal/pmem"
)

// Update atomically read-modify-writes the value of key in place with a CAS
// on the node's value word. Returns the installed value and true, or
// (0, false) if key is absent. See list.Update for the linearization and
// persistence argument; the skiplist variant is identical on level 0 and
// never touches the auxiliary levels (values are core-tree state).
func (l *List) Update(t *pmem.Thread, key uint64, fn func(old uint64) uint64) (uint64, bool) {
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
		rightN := l.node(tr.right)
		for {
			nx := t.Load(rightN.next(0))
			pol.Read(t, rightN.next(0))
			if pmem.Marked(nx) {
				break // logically deleted under us: retraverse and re-decide
			}
			old := t.Load(&rightN.Value)
			pol.ReadData(t, &rightN.Value)
			newv := fn(old)
			pol.BeforeCAS(t)
			if t.CAS(&rightN.Value, old, newv) {
				pol.WroteData(t, &rightN.Value)
				pol.BeforeReturn(t)
				t.CountOp()
				return newv, true
			}
		}
		pol.BeforeReturn(t)
	}
}

// RangeScan visits every present key in [lo, hi] in ascending order,
// calling fn(key, value) until fn returns false or the range is exhausted.
// The index levels position the scan on lo (findEntry, volatile); the walk
// itself runs on the core tree — the level-0 list — with the same
// journey-free persistence as list.RangeScan: TraverseRead per link, one
// PostTraverse over the whole visited range, commit fence before return.
// See list.RangeScan for the consistency contract.
func (l *List) RangeScan(t *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) error {
	lo, hi, ok := kv.ClampKeyRange(lo, hi)
	if !ok {
		return nil
	}
	l.dom.Enter(t.ID)
	defer l.dom.Exit(t.ID)
	pol := l.pol
	tr := &l.trs[t.ID].tr
	for {
		entry := l.findEntry(t, lo, tr)
		if !l.traverse(t, entry, lo, tr) {
			continue
		}
		break
	}
	cur := tr.right
	for cur != 0 {
		n := l.node(cur)
		k := t.Load(&n.Key)
		if k > hi {
			break
		}
		nx := t.Load(n.next(0))
		pol.TraverseRead(t, n.next(0))
		tr.cells = append(tr.cells, n.next(0))
		if !pmem.Marked(nx) {
			v := t.Load(&n.Value)
			pol.ReadData(t, &n.Value)
			if !fn(k, v) {
				break
			}
		}
		cur = pmem.RefIndex(nx)
	}
	pol.PostTraverse(t, tr.cells)
	pol.BeforeReturn(t)
	t.CountOp()
	return nil
}
