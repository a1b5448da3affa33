package ellenbst

import (
	"fmt"

	"repro/internal/pmem"
)

// Recover implements the paper's recovery phase: complete or roll forward
// every operation whose flag survived the crash, which in particular
// executes the unique disconnection instruction for every marked node
// (Supplement 1's disconnect). A persisted flag implies a persisted Info
// record — records are flushed and fenced before the flag CAS — so the
// descriptor is always intact. Single-threaded; every repair is persisted.
//
//nvcheck:ignore fencereturn -- single-threaded recovery: each repair fences where it happens (in the walk's visitor), and repair-free paths have nothing to persist, so no trailing fence is wanted
func (tr *Tree) Recover(t *pmem.Thread) {
	tr.dom.Enter(t.ID)
	defer tr.dom.Exit(t.ID)
	// The walk reads a node's children after visiting it, so it descends
	// into what the repairs left. A cycle ends the walk early; Validate
	// reports it.
	_ = tr.walk(t, func(_ uint64, _ *Node, update, _, _ uint64) error {
		switch state(update) {
		case stIFlag:
			tr.helpInsert(t, infoIdx(update))
			t.Fence()
		case stDFlag:
			tr.helpDelete(t, infoIdx(update))
			t.Fence()
		case stMark:
			// p is marked: its gp still carries the DFLAG (marking
			// precedes splicing); completing from the descriptor
			// splices p out.
			tr.helpMarked(t, infoIdx(update))
			t.Fence()
		}
		return nil
	})
}

// walk visits every node reachable from the root depth first, left
// subtree before right, so leaves arrive in key order. With each node it
// passes the node's update word (0 for a leaf), through which the Info
// record the word names is reachable, and the key range [lo, hi) the path
// from the root allows. A node's children are read after it is visited.
// The walk stops at the first error visit returns, and fails after
// 2*HighWater steps: only a cycle is that long. HighWater is read again
// when the bound is passed, so a tree that grows during the walk is not
// cut short. Quiescent use only.
func (tr *Tree) walk(t *pmem.Thread, visit func(idx uint64, n *Node, update, lo, hi uint64) error) error {
	type frame struct{ idx, lo, hi uint64 }
	limit := 2 * tr.nodes.HighWater()
	stack := []frame{{idx: tr.root, hi: ^uint64(0)}}
	for steps := uint64(0); len(stack) > 0; steps++ {
		if steps > limit {
			if limit = 2 * tr.nodes.HighWater(); steps > limit {
				return fmt.Errorf("ellenbst: cycle suspected after %d steps", steps)
			}
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := tr.node(f.idx)
		var update uint64
		leaf := t.Load(&n.Leaf) == 1
		if !leaf {
			update = t.Load(&n.Update)
		}
		if err := visit(f.idx, n, update, f.lo, f.hi); err != nil {
			return err
		}
		if leaf {
			continue
		}
		k := t.Load(&n.Key)
		if r := pmem.RefIndex(t.Load(&n.Right)); r != 0 {
			stack = append(stack, frame{r, k, f.hi})
		}
		if l := pmem.RefIndex(t.Load(&n.Left)); l != 0 {
			stack = append(stack, frame{l, f.lo, k})
		}
	}
	return nil
}

// Contents returns the user keys of all leaves, in order (quiescent use).
func (tr *Tree) Contents(t *pmem.Thread) []uint64 {
	var out []uint64
	// A cycle ends the walk early; Validate reports it.
	_ = tr.walk(t, func(_ uint64, n *Node, _, _, _ uint64) error {
		if t.Load(&n.Leaf) == 1 {
			if k := t.Load(&n.Key); k < Inf1 {
				out = append(out, k)
			}
		}
		return nil
	})
	return out
}

// Validate checks the external-BST invariants (quiescent use): every
// internal node has two children; left-subtree keys < node key <= right-
// subtree keys; leaf keys strictly increase left to right; no cycle; and
// retired ⇒ unreachable: no reachable node, and no Info record a reachable
// update word names, is free or in limbo (arena.Released).
func (tr *Tree) Validate(t *pmem.Thread) error {
	nodes, infos := tr.nodes.Released(), tr.infos.Released()
	var last uint64
	leaves := 0
	return tr.walk(t, func(idx uint64, n *Node, update, lo, hi uint64) error {
		if nodes[idx] {
			return fmt.Errorf("ellenbst: reachable node %d is free or in limbo", idx)
		}
		k := t.Load(&n.Key)
		if t.Load(&n.Leaf) == 1 {
			if k < lo || k >= hi {
				return fmt.Errorf("ellenbst: leaf key %d outside [%d, %d)", k, lo, hi)
			}
			if leaves++; leaves > 1 && k <= last {
				return fmt.Errorf("ellenbst: leaf keys out of order: %d after %d", k, last)
			}
			last = k
			return nil
		}
		if info := infoIdx(update); info != 0 && infos[info] {
			return fmt.Errorf("ellenbst: node %d's update word names info %d, which is free or in limbo", idx, info)
		}
		if pmem.RefIndex(t.Load(&n.Left)) == 0 || pmem.RefIndex(t.Load(&n.Right)) == 0 {
			return fmt.Errorf("ellenbst: internal node %d missing a child", idx)
		}
		return nil
	})
}

// CountMarked counts reachable internal nodes whose update word is MARK
// (0 after recovery: marked nodes are disconnected). Quiescent use.
func (tr *Tree) CountMarked(t *pmem.Thread) int {
	count := 0
	// A cycle ends the walk early; Validate reports it.
	_ = tr.walk(t, func(_ uint64, _ *Node, update, _, _ uint64) error {
		if state(update) == stMark {
			count++
		}
		return nil
	})
	return count
}
