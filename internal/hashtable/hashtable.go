// Package hashtable implements the hash table of the paper's evaluation
// (David et al.'s design): a fixed array of buckets, each bucket a Harris
// linked list. The findEntry method hashes the key to a bucket head — the
// auxiliary entry points of Property 2 — and the rest of the operation is
// exactly the list's traverse/critical pair on that bucket.
//
// Like the paper's own implementation, the bucket index is key mod buckets
// (the paper notes David et al. use a power-of-two bitmask instead, which
// is why they win the 0%-update hash workload; we keep the paper's modulo).
package hashtable

import (
	"repro/internal/kv"
	"repro/internal/list"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// Table is a fixed-size hash table of Harris lists sharing one substrate.
type Table struct {
	sh      *list.Shared
	buckets []list.List
}

// New creates a table with nbuckets buckets. A common choice is one bucket
// per expected key (load factor 1), matching the evaluation setup.
func New(mem *pmem.Memory, pol persist.Policy, nbuckets int) *Table {
	if nbuckets <= 0 {
		panic("hashtable: nbuckets must be positive")
	}
	sh := list.NewShared(mem, pol)
	t := mem.NewThread()
	tab := &Table{sh: sh, buckets: make([]list.List, nbuckets)}
	for i := range tab.buckets {
		tab.buckets[i] = *list.NewOn(sh, t)
	}
	return tab
}

// Buckets reports the bucket count.
func (h *Table) Buckets() int { return len(h.buckets) }

func (h *Table) bucket(key uint64) *list.List {
	return &h.buckets[key%uint64(len(h.buckets))]
}

// Insert adds key with value; false if present.
func (h *Table) Insert(t *pmem.Thread, key, value uint64) bool {
	return h.bucket(key).Insert(t, key, value)
}

// Delete removes key; false if absent.
func (h *Table) Delete(t *pmem.Thread, key uint64) bool {
	return h.bucket(key).Delete(t, key)
}

// Find reports membership and value.
func (h *Table) Find(t *pmem.Thread, key uint64) (uint64, bool) {
	return h.bucket(key).Find(t, key)
}

// Update atomically read-modify-writes key's value in its bucket list.
func (h *Table) Update(t *pmem.Thread, key uint64, fn func(old uint64) uint64) (uint64, bool) {
	return h.bucket(key).Update(t, key, fn)
}

// GetOrInsert atomically returns the present value of key or inserts value.
func (h *Table) GetOrInsert(t *pmem.Thread, key, value uint64) (uint64, bool) {
	return h.bucket(key).GetOrInsert(t, key, value)
}

// RangeScan accepts only the whole key range [kv.MinKey, kv.MaxKey], the
// one range a hashed key space can bound: it walks the buckets in turn,
// each in its own epoch (list.ScanAll), in no key order. Any other range
// returns kv.ErrUnordered; ordered iteration needs an ordered kind.
func (h *Table) RangeScan(t *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) error {
	if lo, hi, _ = kv.ClampKeyRange(lo, hi); lo != kv.MinKey || hi != kv.MaxKey {
		return kv.ErrUnordered
	}
	list.ScanAll(t, h.buckets, fn)
	return nil
}

// Recover runs the disconnect function on every bucket (paper §4 recovery).
func (h *Table) Recover(t *pmem.Thread) {
	for i := range h.buckets {
		h.buckets[i].Recover(t)
	}
}

// Contents returns all unmarked keys (quiescent use only).
func (h *Table) Contents(t *pmem.Thread) []uint64 {
	var out []uint64
	for i := range h.buckets {
		out = append(out, h.buckets[i].Contents(t)...)
	}
	return out
}

// Validate checks every bucket's invariants, retired ⇒ unreachable
// included (quiescent use only).
func (h *Table) Validate(t *pmem.Thread) error {
	return list.ValidateAll(t, h.buckets)
}

// CountMarked sums marked reachable nodes over buckets (0 after recovery).
func (h *Table) CountMarked(t *pmem.Thread) int {
	n := 0
	for i := range h.buckets {
		n += h.buckets[i].CountMarked(t)
	}
	return n
}
