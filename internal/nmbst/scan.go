package nmbst

import (
	"repro/internal/kv"
	"repro/internal/pmem"
)

// Update atomically read-modify-writes the value of key in place with a CAS
// on the leaf's value word. Returns the installed value and true, or
// (0, false) if key is absent. Like Find, Update ignores edge flags: a
// flagged leaf is still logically present until the ancestor swing, and an
// update racing the swing overlaps the deletion and may be linearized
// before it (see ellenbst.Update; the value word plays no part in the
// edge-based coordination). Persistence is list.Update's: WroteData
// flushes the new value, and the commit fence — the only one, since a value
// CAS needs none before it — persists it with the traversal destination.
func (tr *Tree) Update(t *pmem.Thread, key uint64, fn func(old uint64) uint64) (uint64, bool) {
	checkKey(key)
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	pol := tr.pol
	sr := &tr.trs[t.ID].sr
	for {
		tr.traverse(t, key, sr)
		pol.PostTraverse(t, sr.cells)
		leafN := tr.node(sr.leaf)
		if t.Load(&leafN.Key) != key {
			pol.BeforeReturn(t)
			t.CountOp()
			return 0, false
		}
		old := t.Load(&leafN.Value)
		pol.ReadData(t, &leafN.Value)
		newv := fn(old)
		if t.CAS(&leafN.Value, old, newv) {
			pol.WroteData(t, &leafN.Value)
			pol.BeforeReturn(t)
			t.CountOp()
			return newv, true
		}
		pol.BeforeReturn(t) // lost a value race: retraverse and retry
	}
}

// RangeScan visits every present key in [lo, hi] in ascending order,
// calling fn(key, value) until fn returns false or the range is exhausted.
// The pruned in-order walk mirrors ellenbst.RangeScan (internal keys route
// left < key <= right); edges are followed through their flag/tag bits —
// like Find, the scan treats flagged leaves as present. Sentinel leaves
// (keys >= Inf0) are never in range. One PostTraverse flushes the visited
// region's edges and the commit fence persists them; see list.RangeScan
// for the consistency contract.
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
	walk(tr.rootR)
	pol.PostTraverse(t, sr.cells)
	pol.BeforeReturn(t)
	t.CountOp()
	return nil
}
