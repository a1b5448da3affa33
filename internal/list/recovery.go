package list

import (
	"errors"
	"fmt"

	"repro/internal/pmem"
)

// Recover implements the paper's recovery phase (§4): execute the
// disconnect(root) function of Supplement 1, physically removing every
// marked node, persisting each disconnection. It must run after
// Memory.FinishCrash + Restart and before any other operation; it may run
// single-threaded (the paper also allows running it concurrently with new
// operations, which Recover supports by using CAS).
func (l *List) Recover(t *pmem.Thread) {
	l.sh.Dom.Enter(t.ID)
	defer l.sh.Dom.Exit(t.ID)
	prev := l.head
	for {
		prevN := l.node(prev)
		pn := t.Load(&prevN.Next)
		cur := pmem.RefIndex(pn)
		if cur == 0 {
			return
		}
		curN := l.node(cur)
		cn := t.Load(&curN.Next)
		if !pmem.Marked(cn) {
			prev = cur
			continue
		}
		// cur is marked: splice it out and persist the splice. prev is
		// unmarked (we only advance past unmarked nodes), so this is the
		// unique disconnection instruction of Property 5.
		if t.CAS(&prevN.Next, pn, pmem.ClearTags(cn)) {
			t.Flush(&prevN.Next)
			t.Fence()
		}
		// Re-examine prev's next either way (more marked nodes may
		// follow, or a concurrent recovery thread moved first).
	}
}

// walk visits every node reachable from the head sentinel in list order,
// the head and marked nodes included, passing each node's raw next word.
// It stops at the first error visit returns, and fails after 2*HighWater
// steps: only a cycle is that long. HighWater is read again when the
// bound is passed, so a list that grows during the walk is not cut short.
// Quiescent use only.
func (l *List) walk(t *pmem.Thread, visit func(idx uint64, n *Node, next uint64) error) error {
	limit := 2 * l.sh.Ar.HighWater()
	for idx, steps := l.head, uint64(0); idx != 0; steps++ {
		if steps > limit {
			if limit = 2 * l.sh.Ar.HighWater(); steps > limit {
				return fmt.Errorf("list: cycle suspected after %d steps", steps)
			}
		}
		n := l.node(idx)
		next := t.Load(&n.Next)
		if err := visit(idx, n, next); err != nil {
			return err
		}
		idx = pmem.RefIndex(next)
	}
	return nil
}

// Contents returns the unmarked keys in list order. Quiescent use only
// (tests and checkers).
func (l *List) Contents(t *pmem.Thread) []uint64 {
	var out []uint64
	// A cycle ends the walk early; Validate reports it.
	_ = l.walk(t, func(idx uint64, n *Node, next uint64) error {
		if idx != l.head && !pmem.Marked(next) {
			out = append(out, t.Load(&n.Key))
		}
		return nil
	})
	return out
}

// CountMarked returns how many reachable nodes are marked (0 after a
// successful recovery). Quiescent use only.
func (l *List) CountMarked(t *pmem.Thread) int {
	count := 0
	// A cycle ends the walk early; Validate reports it.
	_ = l.walk(t, func(_ uint64, _ *Node, next uint64) error {
		if pmem.Marked(next) {
			count++
		}
		return nil
	})
	return count
}

// Validate checks structural invariants: strictly sorted unmarked keys,
// termination (no cycle), and retired ⇒ unreachable — no reachable node,
// marked ones not yet unlinked included, is free or in limbo
// (arena.Released), so no slot Alloc may hand out again is still linked.
// Quiescent use only.
func (l *List) Validate(t *pmem.Thread) error {
	return l.validate(t, l.sh.Ar.Released())
}

// ValidateAll runs Validate on lists that share one substrate (a hash
// table's buckets), collecting the released handles once.
func ValidateAll(t *pmem.Thread, lists []List) error {
	released := lists[0].sh.Ar.Released()
	for i := range lists {
		if err := lists[i].validate(t, released); err != nil {
			return fmt.Errorf("bucket %d: %w", i, err)
		}
	}
	return nil
}

func (l *List) validate(t *pmem.Thread, released map[uint64]bool) error {
	var last uint64 // head key is 0; user keys start at 1
	return l.walk(t, func(idx uint64, n *Node, next uint64) error {
		if released[idx] {
			return fmt.Errorf("list: reachable node %d is free or in limbo", idx)
		}
		if idx == l.head || pmem.Marked(next) {
			return nil
		}
		k := t.Load(&n.Key)
		if k <= last {
			return fmt.Errorf("list: keys out of order: %d after %d", k, last)
		}
		last = k
		return nil
	})
}

// DebugMark sets the deletion mark on key's node without physically
// deleting it, simulating a delete whose physical phase was lost in a
// crash. Test hook; quiescent use only. Returns false if key is absent.
func (l *List) DebugMark(t *pmem.Thread, key uint64) bool {
	errFound := errors.New("found")
	marked := false
	_ = l.walk(t, func(idx uint64, n *Node, next uint64) error {
		if idx == l.head || pmem.Marked(next) || t.Load(&n.Key) != key {
			return nil
		}
		marked = t.CAS(&n.Next, next, pmem.WithMark(next))
		return errFound
	})
	return marked
}
