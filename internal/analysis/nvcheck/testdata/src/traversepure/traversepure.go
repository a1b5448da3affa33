// Package traversepure is an analysistest fixture for the traversepure
// rule: no persistence effects between TraverseRead (or the top of a
// //nvcheck:traverse function) and the closing PostTraverse.
package traversepure

import (
	"repro/internal/persist"
	"repro/internal/pmem"
)

// lookupFlush persists mid-walk: the flush belongs after PostTraverse.
func lookupFlush(t *pmem.Thread, pol persist.Policy, c *pmem.Cell) uint64 {
	v := t.Load(c)
	pol.TraverseRead(t, c)
	t.Flush(c) // want "persistence effect inside the traversal phase"
	return v
}

// casWithoutPostTraverse is the historical missing-ensureReachable shape:
// the critical section starts while the traversal phase is still open, so
// the destination of the operation was never persisted.
func casWithoutPostTraverse(t *pmem.Thread, pol persist.Policy, c *pmem.Cell) {
	for {
		v := t.Load(c)
		pol.TraverseRead(t, c)
		pol.BeforeCAS(t)      // want "missing Policy.PostTraverse"
		if t.CAS(c, v, v+1) { // want "missing Policy.PostTraverse"
			pol.Wrote(t, c)     // want "persistence effect inside the traversal phase"
			pol.BeforeReturn(t) // want "persistence effect inside the traversal phase"
			return
		}
	}
}

// casWithPostTraverse is the same operation written correctly: the phase
// closes before the critical section. No diagnostics.
func casWithPostTraverse(t *pmem.Thread, pol persist.Policy, c *pmem.Cell) {
	for {
		v := t.Load(c)
		pol.TraverseRead(t, c)
		cells := [...]*pmem.Cell{c}
		pol.PostTraverse(t, cells[:])
		pol.BeforeCAS(t)
		if t.CAS(c, v, v+1) {
			pol.Wrote(t, c)
			pol.BeforeReturn(t)
			return
		}
	}
}

// scanMidWalk reads a data word mid-walk: ReadData is permitted inside the
// phase (the fence that persists the closing PostTraverse's flushes
// persists it too).
func scanMidWalk(t *pmem.Thread, pol persist.Policy, c, d *pmem.Cell) uint64 {
	pol.TraverseRead(t, c)
	v := t.Load(d)
	pol.ReadData(t, d)
	cells := [...]*pmem.Cell{c}
	pol.PostTraverse(t, cells[:])
	return v
}

// flushHelper performs a banned effect on behalf of its caller.
func flushHelper(t *pmem.Thread, c *pmem.Cell) {
	t.Flush(c)
}

// lookupViaHelper hides the mid-walk flush behind a same-package call.
func lookupViaHelper(t *pmem.Thread, pol persist.Policy, c *pmem.Cell) {
	pol.TraverseRead(t, c)
	flushHelper(t, c) // want "callee persists or mutates shared memory"
	cells := [...]*pmem.Cell{c}
	pol.PostTraverse(t, cells[:])
}

// walkAnnotated never calls TraverseRead itself; the directive marks the
// whole body as one traversal phase.
//
//nvcheck:traverse
func walkAnnotated(t *pmem.Thread, c *pmem.Cell) uint64 {
	v := t.Load(c)
	t.Fence() // want "persistence effect inside the traversal phase"
	return v
}
