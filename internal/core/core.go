// Package core ties the NVTraverse reproduction together: it defines the
// common surface of all traversal data structures in this repository and a
// registry that builds any (structure, persistence policy) combination the
// paper evaluates. The benchmark harness, the crash-test CLI and the
// examples all construct structures through this package.
//
// The paper's primary contribution is a transformation, not a single data
// structure: take a lock-free structure in traversal form (findEntry →
// traverse → critical; Properties 1–5 of §3) and inject flushes and fences
// per Protocols 1 and 2 of §4 to obtain a durably linearizable structure.
// In this codebase the transformation is the persist.Policy interface —
// each structure is written once against the policy hooks, and choosing
// persist.NVTraverse{} *is* applying the paper's transformation, just as
// persist.Izraelevitz{} applies the baseline transformation to the same
// code. See the persist package for the hook-to-protocol mapping and each
// structure package for how its traverse method satisfies Properties 2–5.
package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/ellenbst"
	"repro/internal/hashtable"
	"repro/internal/kv"
	"repro/internal/list"
	"repro/internal/nmbst"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/skiplist"
)

// Set is the common surface of every traversal set/map structure: a map
// from uint64 keys (in [1, 2^61)) to uint64 values with set-style inserts,
// atomic read-modify-write, and — on ordered kinds — range scans. This is
// the Store API v2 contract; the shard engine and the store package
// compose it into thread-free handles.
type Set interface {
	// Insert adds key with value; false if the key is already present.
	Insert(t *pmem.Thread, key, value uint64) bool
	// Delete removes key; false if absent.
	Delete(t *pmem.Thread, key uint64) bool
	// Find reports membership and the associated value.
	Find(t *pmem.Thread, key uint64) (uint64, bool)
	// Update atomically read-modify-writes key's value in place (a CAS on
	// the value word in the structure's critical section), returning the
	// installed value, or (0, false) if key is absent. fn may be called
	// several times under contention and must be pure.
	Update(t *pmem.Thread, key uint64, fn func(old uint64) uint64) (uint64, bool)
	// GetOrInsert atomically returns the present value of key
	// (inserted=false) or inserts value and returns it (inserted=true).
	GetOrInsert(t *pmem.Thread, key, value uint64) (v uint64, inserted bool)
	// RangeScan visits every present key in [lo, hi] ascending, calling
	// fn(key, value) until fn returns false or the range is exhausted.
	// Unordered kinds scan only the whole range [kv.MinKey, kv.MaxKey], in
	// no key order, and return ErrUnordered on any narrower one. The scan is not an atomic
	// snapshot: each key's presence is decided when its link is read, so
	// keys mutated concurrently may or may not appear, while untouched
	// keys are reported exactly. fn must not call operations of this
	// structure on the same thread.
	RangeScan(t *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) error
	// Recover is the paper's §4 recovery phase: run after a crash, before
	// any other operation.
	Recover(t *pmem.Thread)
	// Contents returns the present keys (quiescent use only).
	Contents(t *pmem.Thread) []uint64
}

// ErrUnordered is returned by RangeScan on kinds without a key order.
var ErrUnordered = kv.ErrUnordered

// Validator is implemented by structures with a structural self-check
// (quiescent use): key order, shape, no cycle, and the reclamation audit
// retired ⇒ unreachable — no node reachable from the roots, and no
// descriptor a reachable node names, is free or in limbo in its arena.
// crashtest.Check runs it after every recovery (on the sharded engine
// through Engine.Validate).
type Validator interface {
	Validate(t *pmem.Thread) error
}

// Kind names a data structure of the paper's evaluation.
type Kind string

// The five structures evaluated in §5.
const (
	KindList     Kind = "list"
	KindHash     Kind = "hash"
	KindEllenBST Kind = "ellenbst"
	KindNMBST    Kind = "nmbst"
	KindSkiplist Kind = "skiplist"
)

// Kinds lists every structure kind in evaluation order.
func Kinds() []Kind {
	return []Kind{KindList, KindHash, KindEllenBST, KindNMBST, KindSkiplist}
}

// Ordered reports whether the kind maintains a key order — i.e. whether
// RangeScan takes any range, not only the whole key range. Four of the
// five kinds are ordered; only the hash table is not.
func Ordered(kind Kind) bool {
	return kind != KindHash
}

// OrderedKinds lists the kinds that support RangeScan, in evaluation order.
func OrderedKinds() []Kind {
	var out []Kind
	for _, k := range Kinds() {
		if Ordered(k) {
			out = append(out, k)
		}
	}
	return out
}

// Params tunes structure construction.
type Params struct {
	// Buckets is the hash-table bucket count (default: SizeHint, load
	// factor 1, as in the paper's setup).
	Buckets int
	// SizeHint is the expected key-range size.
	SizeHint int
}

// NewSet builds a structure of the given kind on mem with the policy.
func NewSet(kind Kind, mem *pmem.Memory, pol persist.Policy, p Params) (Set, error) {
	switch kind {
	case KindList:
		return list.New(mem, pol), nil
	case KindHash:
		b := p.Buckets
		if b == 0 {
			b = p.SizeHint
		}
		if b == 0 {
			b = 1 << 16
		}
		return hashtable.New(mem, pol, b), nil
	case KindEllenBST:
		return ellenbst.New(mem, pol), nil
	case KindNMBST:
		return nmbst.New(mem, pol), nil
	case KindSkiplist:
		return skiplist.New(mem, pol), nil
	}
	return nil, fmt.Errorf("core: unknown structure kind %q", kind)
}

// Interface conformance checks: every structure is a Set and a Validator.
var (
	_ Set       = (*list.List)(nil)
	_ Set       = (*hashtable.Table)(nil)
	_ Set       = (*ellenbst.Tree)(nil)
	_ Set       = (*nmbst.Tree)(nil)
	_ Set       = (*skiplist.List)(nil)
	_ Validator = (*list.List)(nil)
	_ Validator = (*hashtable.Table)(nil)
	_ Validator = (*ellenbst.Tree)(nil)
	_ Validator = (*nmbst.Tree)(nil)
	_ Validator = (*skiplist.List)(nil)
)

// constFn is a reusable "return this constant" Update closure. A literal
// closure capturing value would escape into the Update interface call and
// cost one heap allocation per upsert on the hottest write path; pooled
// boxes make Upsert allocation-free at steady state (the alloc-guard tests
// pin this).
type constFn struct {
	v  uint64
	fn func(uint64) uint64
}

var constFnPool = sync.Pool{New: func() any {
	b := &constFn{}
	b.fn = func(uint64) uint64 { return b.v }
	return b
}}

// Upsert sets key to value atomically: an in-place Update when the key is
// present, a GetOrInsert when it is not, looping across the race between
// the two. The key never transiently disappears and concurrent upserts
// leave exactly one racing value in place. Every upsert path in the
// repository (engine Put, store Put, bench workloads) goes through here.
func Upsert(s Set, t *pmem.Thread, key, value uint64) {
	b := constFnPool.Get().(*constFn)
	b.v = value
	for {
		if _, ok := s.Update(t, key, b.fn); ok {
			break
		}
		if _, inserted := s.GetOrInsert(t, key, value); inserted {
			break
		}
	}
	constFnPool.Put(b)
}

// ApplyUpdate runs Update with fn, treating a nil fn as the batched-op
// convention "set to value if present" (store.Op.Fn).
func ApplyUpdate(s Set, t *pmem.Thread, key uint64, fn func(old uint64) uint64, value uint64) (uint64, bool) {
	if fn == nil {
		fn = func(uint64) uint64 { return value }
	}
	return s.Update(t, key, fn)
}

// SortedContents returns the structure's contents sorted ascending,
// normalizing structures that do not guarantee a global order (the hash
// table concatenates per-bucket orders).
func SortedContents(s Set, t *pmem.Thread) []uint64 {
	c := s.Contents(t)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	return c
}
