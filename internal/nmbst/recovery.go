package nmbst

import (
	"errors"
	"fmt"

	"repro/internal/pmem"
)

// Recover implements the paper's recovery phase: every flagged leaf is a
// marked node whose unique disconnection instruction is the ancestor swing;
// recovery completes all of them (Supplement 1's disconnect), persisting
// each repair, then clears any tag left over from an interrupted cleanup.
// Single-threaded.
//
//nvcheck:ignore fencereturn -- single-threaded recovery: each completed deletion and cleared tag fences where it happens, and repair-free paths have nothing to persist, so no trailing fence is wanted
func (tr *Tree) Recover(t *pmem.Thread) {
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	// Repeatedly find a flagged leaf and complete its deletion. Each
	// completed deletion removes at least one flagged leaf, so this
	// terminates; the defensive cap turns an unexpected stuck state into a
	// leftover flag (which online helping also tolerates) rather than an
	// unbounded recovery.
	errFound := errors.New("flagged leaf found")
	for rounds := 0; rounds < 1<<20; rounds++ {
		var key uint64
		err := tr.walk(t, func(_, edge uint64, n *Node, _, _ uint64) error {
			if pmem.Marked(edge) && t.Load(&n.Leaf) == 1 {
				key = t.Load(&n.Key)
				return errFound
			}
			return nil
		})
		if !errors.Is(err, errFound) {
			break
		}
		sr := &tr.trs[t.ID].sr
		tr.traverse(t, key, sr)
		if t.Load(&tr.node(sr.leaf).Key) != key || !pmem.Marked(sr.leafEdge) {
			break // should be unreachable single-threaded
		}
		tr.cleanup(t, key, sr)
		t.Fence()
	}
	// Clear stray tags (an interrupted cleanup may have tagged a sibling
	// edge whose swing never happened; with no flag left, the tag would
	// freeze the edge forever). The walk reads a node's children after
	// visiting it; a cycle ends it early, and Validate reports the cycle.
	_ = tr.walk(t, func(_, _ uint64, n *Node, _, _ uint64) error {
		if t.Load(&n.Leaf) == 1 {
			return nil
		}
		for _, c := range []*pmem.Cell{&n.Left, &n.Right} {
			if ev := t.Load(c); pmem.Tagged(ev) {
				t.Store(c, pmem.Dirty(ev)&^pmem.TagBit)
				t.Flush(c)
				t.Fence()
			}
		}
		return nil
	})
}

// walk visits every node reachable from the root R depth first, left
// subtree before right, so leaves arrive in key order. With each node it
// passes the raw edge word that leads to it (0 for R), whose FLAG bit
// marks a leaf for deletion, and the key range [lo, hi) the path from R
// allows. A node's children are read after it is visited. The walk stops
// at the first error visit returns, and fails after 2*HighWater steps:
// only a cycle is that long. HighWater is read again when the bound is
// passed, so a tree that grows during the walk is not cut short.
// Quiescent use only.
func (tr *Tree) walk(t *pmem.Thread, visit func(idx, edge uint64, n *Node, lo, hi uint64) error) error {
	type frame struct{ idx, edge, lo, hi uint64 }
	limit := 2 * tr.nodes.HighWater()
	stack := []frame{{idx: tr.rootR, hi: ^uint64(0)}}
	for steps := uint64(0); len(stack) > 0; steps++ {
		if steps > limit {
			if limit = 2 * tr.nodes.HighWater(); steps > limit {
				return fmt.Errorf("nmbst: cycle suspected after %d steps", steps)
			}
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := tr.node(f.idx)
		if err := visit(f.idx, f.edge, n, f.lo, f.hi); err != nil {
			return err
		}
		if t.Load(&n.Leaf) == 1 {
			continue
		}
		k := t.Load(&n.Key)
		if r := t.Load(&n.Right); pmem.RefIndex(r) != 0 {
			stack = append(stack, frame{pmem.RefIndex(r), r, k, f.hi})
		}
		if l := t.Load(&n.Left); pmem.RefIndex(l) != 0 {
			stack = append(stack, frame{pmem.RefIndex(l), l, f.lo, k})
		}
	}
	return nil
}

// Contents returns the user keys of unflagged leaves, in order (quiescent
// use only). Flagged leaves are logically present in NM until swung out,
// but recovery completes all pending deletions first, so post-recovery the
// distinction is moot; pre-recovery callers (tests) want the same view
// Find gives, which ignores flags — so flags are ignored here too.
func (tr *Tree) Contents(t *pmem.Thread) []uint64 {
	var out []uint64
	// A cycle ends the walk early; Validate reports it.
	_ = tr.walk(t, func(_, _ uint64, n *Node, _, _ uint64) error {
		if t.Load(&n.Leaf) == 1 {
			if k := t.Load(&n.Key); k < Inf0 {
				out = append(out, k)
			}
		}
		return nil
	})
	return out
}

// CountFlagged counts reachable flagged edges (0 after recovery).
func (tr *Tree) CountFlagged(t *pmem.Thread) int {
	count := 0
	// A cycle ends the walk early; Validate reports it.
	_ = tr.walk(t, func(_, edge uint64, _ *Node, _, _ uint64) error {
		if pmem.Marked(edge) {
			count++
		}
		return nil
	})
	return count
}

// Validate checks external-BST shape and key order, no cycle, and
// retired ⇒ unreachable: no node reachable from R, internal or leaf, is
// free or in limbo (arena.Released). Quiescent use only.
func (tr *Tree) Validate(t *pmem.Thread) error {
	released := tr.nodes.Released()
	return tr.walk(t, func(idx, _ uint64, n *Node, lo, hi uint64) error {
		if released[idx] {
			return fmt.Errorf("nmbst: reachable node %d is free or in limbo", idx)
		}
		if t.Load(&n.Leaf) == 1 {
			if k := t.Load(&n.Key); k < lo || k >= hi {
				return fmt.Errorf("nmbst: leaf key %d outside [%d, %d)", k, lo, hi)
			}
			return nil
		}
		if pmem.RefIndex(t.Load(&n.Left)) == 0 || pmem.RefIndex(t.Load(&n.Right)) == 0 {
			return fmt.Errorf("nmbst: internal node %d missing a child", idx)
		}
		return nil
	})
}
