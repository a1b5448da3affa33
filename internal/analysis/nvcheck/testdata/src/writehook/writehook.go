// Package writehook is an analysistest fixture for the writehook rule:
// every Store/CAS in a critical section needs its matching write hook on
// the success path, and every CAS or Store to a published cell a
// dominating BeforeCAS. It also exercises the nvcheck:ignore grammar,
// including the malformed-directive report.
package writehook

import (
	"repro/internal/persist"
	"repro/internal/pmem"
)

// storeNoHook drops the write hook after a store: the write lands but no
// flush ever covers it.
func storeNoHook(t *pmem.Thread, pol persist.Policy, c *pmem.Cell, v uint64) {
	pol.BeforeCAS(t)
	t.Store(c, v) // want "no matching write hook on its success path"
	pol.BeforeReturn(t)
}

// casNoBeforeCAS hooks the write but skips the pre-CAS fence that orders
// the new node's flushed fields before the link publishes them.
func casNoBeforeCAS(t *pmem.Thread, pol persist.Policy, c *pmem.Cell, old, v uint64) bool {
	ok := t.CAS(c, old, v) // want "without a dominating Policy.BeforeCAS"
	pol.Wrote(t, c)
	pol.BeforeReturn(t)
	return ok
}

// storePublishedNoBeforeCAS writes published cells — their hooks are Wrote
// and WroteData — with no fence before them: under NVTraverse the
// traversal destination's flushes are still unfenced, and another thread
// could act on the new value before they persist.
func storePublishedNoBeforeCAS(t *pmem.Thread, pol persist.Policy, link, val *pmem.Cell, v uint64) {
	t.Store(link, v) // want "writes a published cell without a dominating Policy.BeforeCAS"
	pol.Wrote(t, link)
	t.Store(val, v) // want "writes a published cell without a dominating Policy.BeforeCAS"
	pol.WroteData(t, val)
	pol.BeforeReturn(t)
}

// storePublishedComplete is the same published write fenced first. No
// diagnostics.
func storePublishedComplete(t *pmem.Thread, pol persist.Policy, val *pmem.Cell, v uint64) {
	pol.BeforeCAS(t)
	t.Store(val, v)
	pol.WroteData(t, val)
	pol.BeforeReturn(t)
}

// casComplete is the full Protocol 2 shape: BeforeCAS, CAS, hook on the
// success branch. No diagnostics.
func casComplete(t *pmem.Thread, pol persist.Policy, c *pmem.Cell, old, v uint64) bool {
	pol.BeforeCAS(t)
	if t.CAS(c, old, v) {
		pol.Wrote(t, c)
		pol.BeforeReturn(t)
		return true
	}
	pol.BeforeReturn(t)
	return false
}

// initComplete initializes an unpublished field: Store followed by
// InitWrite for the same cell. No diagnostics.
func initComplete(t *pmem.Thread, pol persist.Policy, c *pmem.Cell, v uint64) {
	t.Store(c, v)
	pol.InitWrite(t, c)
	pol.BeforeReturn(t)
}

// volatileHint mimics the queue's tail hint: a deliberate unhooked CAS,
// suppressed with a justified directive. No diagnostics.
func volatileHint(t *pmem.Thread, pol persist.Policy, c *pmem.Cell, old, v uint64) {
	pol.BeforeReturn(t)
	//nvcheck:ignore writehook -- volatile hint cell: recovery recomputes it, no flush wanted
	t.CAS(c, old, v)
}

// unjustifiedIgnore shows that a directive without a reason is itself a
// violation and suppresses nothing.
func unjustifiedIgnore(t *pmem.Thread, pol persist.Policy, c *pmem.Cell, v uint64) {
	pol.BeforeReturn(t)
	//nvcheck:ignore writehook // want "needs a justification"
	t.Store(c, v) // want "no matching write hook on its success path"
}
