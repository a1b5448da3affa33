// Package writehook is an analysistest fixture for the writehook rule:
// every Store/CAS in a critical section needs its matching write hook on
// the success path, and every CAS or Store of a published link a
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

// storePublishedNoBeforeCAS writes published cells with no fence before
// them. The link (hook Wrote) is reported: under NVTraverse the traversal
// destination's flushes are still unfenced, and another thread could follow
// the new link before they persist. The data word (hook WroteData) links
// nothing and is exempt.
func storePublishedNoBeforeCAS(t *pmem.Thread, pol persist.Policy, link, val *pmem.Cell, v uint64) {
	t.Store(link, v) // want "writes a published link without a dominating Policy.BeforeCAS"
	pol.Wrote(t, link)
	t.Store(val, v)
	pol.WroteData(t, val)
	pol.BeforeReturn(t)
}

// valueCASNoBeforeCAS is the in-place update: a CAS on a published node's
// value word, hooked by WroteData, with no fence before it. The commit
// fence persists the new value with the line it was read from. No
// diagnostics.
func valueCASNoBeforeCAS(t *pmem.Thread, pol persist.Policy, val *pmem.Cell, old, v uint64) bool {
	pol.ReadData(t, val)
	if t.CAS(val, old, v) {
		pol.WroteData(t, val)
		pol.BeforeReturn(t)
		return true
	}
	pol.BeforeReturn(t)
	return false
}

// linkCASNoBeforeCAS is the same shape on a link word, hooked by Wrote: the
// fence is still required.
func linkCASNoBeforeCAS(t *pmem.Thread, pol persist.Policy, link *pmem.Cell, old, v uint64) bool {
	pol.Read(t, link)
	if t.CAS(link, old, v) { // want "without a dominating Policy.BeforeCAS"
		pol.Wrote(t, link)
		pol.BeforeReturn(t)
		return true
	}
	pol.BeforeReturn(t)
	return false
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
