package ellenbst

import (
	"repro/internal/kv"
	"repro/internal/pmem"
)

// Update atomically read-modify-writes the value of key. Returns the
// installed value and true, or (0, false) if key is absent.
//
// A leaf's value never changes in place: the update replaces the key's
// leaf by a new leaf holding fn(old), through the insert's flag protocol
// (replaceLeaf — an insert whose new subtree is one leaf), so it
// serializes with every insert and delete that would change p's children,
// and recovery completes it like any flagged insert. In-place writes are
// ruled out because an insert pushes a copy of the leaf it splits below the
// new internal node: a value written into the old leaf after the copy was
// taken would be lost.
func (tr *Tree) Update(t *pmem.Thread, key uint64, fn func(old uint64) uint64) (uint64, bool) {
	checkKey(key)
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	pol := tr.pol
	sr := &tr.trs[t.ID].sr
	for {
		tr.traverse(t, key, sr)
		pol.PostTraverse(t, sr.cells)
		lN := tr.node(sr.l)
		if t.Load(&lN.Key) != key {
			pol.BeforeReturn(t)
			t.CountOp()
			return 0, false
		}
		if state(sr.pUpdate) != stClean {
			tr.help(t, pmem.Dirty(sr.pUpdate))
			continue
		}
		old := t.Load(&lN.Value)
		pol.ReadData(t, &lN.Value)
		newv := fn(old)
		nl := tr.newLeaf(t, key, newv)
		if tr.replaceLeaf(t, sr, nl) {
			pol.BeforeReturn(t)
			tr.nodes.Retire(t.ID, sr.l)
			tr.retireInfo(t, sr.pUpdate)
			t.CountOp()
			return newv, true
		}
		tr.nodes.Free(t.ID, nl) // lost the iflag: retraverse and retry
	}
}

// RangeScan visits every present key in [lo, hi] in ascending order,
// calling fn(key, value) until fn returns false or the range is exhausted.
//
// The scan is a pruned in-order walk: internal keys route exactly as the
// search does (left subtree < key <= right subtree), so subtrees wholly
// outside [lo, hi] are never entered and leaves arrive in key order. The
// whole walk is traversal-phase — child links are read with TraverseRead
// (no persistence under NVTraverse) and collected, then one PostTraverse
// flushes every link of the visited region (the scan's returned node set)
// and the commit fence persists them. Sentinel leaves (keys >= Inf1) are
// never in range. See list.RangeScan for the consistency contract.
func (tr *Tree) RangeScan(t *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) error {
	lo, hi, ok := kv.ClampKeyRange(lo, hi)
	if !ok {
		return nil
	}
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	pol := tr.pol
	sr := &tr.trs[t.ID].sr
	sr.cells = sr.cells[:0]
	stopped := false
	var walk func(idx uint64)
	walk = func(idx uint64) {
		if stopped {
			return
		}
		n := tr.node(idx)
		if t.Load(&n.Leaf) == 1 {
			k := t.Load(&n.Key)
			if k >= lo && k <= hi {
				v := t.Load(&n.Value)
				pol.ReadData(t, &n.Value)
				if !fn(k, v) {
					stopped = true
				}
			}
			return
		}
		k := t.Load(&n.Key)
		if lo < k {
			child := t.Load(&n.Left)
			pol.TraverseRead(t, &n.Left)
			sr.cells = append(sr.cells, &n.Left)
			if c := pmem.RefIndex(child); c != 0 {
				walk(c)
			}
		}
		if hi >= k {
			child := t.Load(&n.Right)
			pol.TraverseRead(t, &n.Right)
			sr.cells = append(sr.cells, &n.Right)
			if c := pmem.RefIndex(child); c != 0 {
				walk(c)
			}
		}
	}
	walk(tr.root)
	pol.PostTraverse(t, sr.cells)
	pol.BeforeReturn(t)
	t.CountOp()
	return nil
}
