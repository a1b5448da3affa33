package skiplist

import (
	"fmt"

	"repro/internal/pmem"
)

// Recover implements the paper's recovery phase for a skiplist: run
// disconnect(root) on the core tree (the level-0 list), persisting each
// disconnection, then recompute the auxiliary structure — the index towers
// — from scratch, as Property 2 allows ("the other parts can be stored in
// volatile memory and recomputed following a crash"). Single-threaded.
func (l *List) Recover(t *pmem.Thread) {
	l.dom.Enter(t.ID)
	defer l.dom.Exit(t.ID)

	// 1. disconnect(root) on level 0.
	prev := l.head
	for {
		prevN := l.node(prev)
		pn := t.Load(prevN.next(0))
		cur := pmem.RefIndex(pn)
		if cur == 0 {
			break
		}
		cn := t.Load(l.node(cur).next(0))
		if !pmem.Marked(cn) {
			prev = cur
			continue
		}
		if t.CAS(prevN.next(0), pn, pmem.ClearTags(cn)) {
			t.Flush(prevN.next(0))
			t.Fence()
		}
	}

	// 2. Rebuild the towers: clear the index, then relink every surviving
	// node at its recorded height, keeping per-level tails.
	headN := l.node(l.head)
	var tails [MaxLevel]uint64
	for i := 1; i < MaxLevel; i++ {
		t.Store(headN.next(i), pmem.NilRef)
		tails[i] = l.head
	}
	// A level-0 cycle ends the rebuild early; Validate reports it.
	_ = l.walk(t, 1, func(_ int, idx uint64, n *Node, _ uint64) error {
		if idx == l.head {
			return nil
		}
		lvl := t.Load(&n.Level)
		if lvl < 1 || lvl > MaxLevel {
			lvl = 1 // defensive: height is volatile metadata
			t.Store(&n.Level, lvl)
		}
		for i := 1; i < int(lvl); i++ {
			t.Store(n.next(i), pmem.NilRef)
			t.Store(l.node(tails[i]).next(i), pmem.MakeRef(idx))
			tails[i] = idx
		}
		return nil
	})
}

// walk visits every node reachable from the head sentinel on levels 0 to
// levels-1, level 0 first and each level in list order from the head,
// marked nodes included, passing the node's raw next word at that level.
// Towers still linked above level 0 are reached at every level they are
// linked at. It stops at the first error visit returns, and fails after
// 2*HighWater steps on one level: only a cycle is that long. HighWater
// is read again when the bound is passed, so a list that grows during the
// walk is not cut short. Quiescent use only.
func (l *List) walk(t *pmem.Thread, levels int, visit func(lvl int, idx uint64, n *Node, next uint64) error) error {
	limit := 2 * l.ar.HighWater()
	for lvl := 0; lvl < levels; lvl++ {
		for idx, steps := l.head, uint64(0); idx != 0; steps++ {
			if steps > limit {
				if limit = 2 * l.ar.HighWater(); steps > limit {
					return fmt.Errorf("skiplist: level-%d cycle suspected", lvl)
				}
			}
			n := l.node(idx)
			next := t.Load(n.next(lvl))
			if err := visit(lvl, idx, n, next); err != nil {
				return err
			}
			idx = pmem.RefIndex(next)
		}
	}
	return nil
}

// Contents returns the unmarked level-0 keys in order (quiescent use).
func (l *List) Contents(t *pmem.Thread) []uint64 {
	var out []uint64
	// A cycle ends the walk early; Validate reports it.
	_ = l.walk(t, 1, func(_ int, idx uint64, n *Node, next uint64) error {
		if idx != l.head && !pmem.Marked(next) {
			out = append(out, t.Load(&n.Key))
		}
		return nil
	})
	return out
}

// CountMarked counts marked reachable level-0 nodes (quiescent use).
func (l *List) CountMarked(t *pmem.Thread) int {
	count := 0
	// A cycle ends the walk early; Validate reports it.
	_ = l.walk(t, 1, func(_ int, _ uint64, _ *Node, next uint64) error {
		if pmem.Marked(next) {
			count++
		}
		return nil
	})
	return count
}

// Validate checks the level-0 order, cycle-freedom at every level, that
// every index edge connects nodes in key order and every indexed node is
// level-0 reachable, and retired ⇒ unreachable: no node reachable at any
// level is free or in limbo (arena.Released). Quiescent use.
func (l *List) Validate(t *pmem.Thread) error {
	released := l.ar.Released()
	reachable := map[uint64]bool{}
	var last uint64
	return l.walk(t, MaxLevel, func(lvl int, idx uint64, n *Node, next uint64) error {
		if released[idx] {
			return fmt.Errorf("skiplist: node %d reachable at level %d is free or in limbo", idx, lvl)
		}
		if idx == l.head {
			last = 0 // each level starts at the head
			return nil
		}
		if lvl == 0 {
			reachable[idx] = true
		} else if !reachable[idx] {
			return fmt.Errorf("skiplist: level-%d indexes unreachable node %d", lvl, idx)
		}
		if pmem.Marked(next) || pmem.Marked(t.Load(n.next(0))) {
			return nil
		}
		k := t.Load(&n.Key)
		if k < last || (lvl == 0 && k == last) {
			return fmt.Errorf("skiplist: level-%d keys out of order: %d after %d", lvl, k, last)
		}
		last = k
		return nil
	})
}
