// Package nvtraverse is the public facade of the NVTraverse reproduction:
// durably linearizable lock-free sets, maps and queues for (simulated)
// non-volatile memory, produced by the automatic transformation of
// Friedman, Ben-David, Wei, Blelloch and Petrank, "NVTraverse: In NVRAM
// Data Structures, the Destination is More Important than the Journey"
// (PLDI 2020).
//
// Quick start (Store API v2):
//
//	st, _ := nvtraverse.Open(nvtraverse.Skiplist)
//	h := st.NewSession()           // one per goroutine
//	h.Put(42, 420)
//	v, ok := h.Get(42)
//	h.Update(42, func(old uint64) uint64 { return old + 1 })
//	h.Scan(1, 100, func(k, v uint64) bool { return true })
//
// Open takes functional options — WithPolicy, WithProfile, WithSizeHint,
// WithShards, WithTracked — and returns a Store over the hash-sharded
// engine (one shard unless WithShards says otherwise), so the handle works
// identically whether the store has one shard or sixty-four. NewMap wraps
// a handle in a typed Map[K, V] with pluggable codecs. The durable queue
// (NewQueue) runs on a caller-owned Memory.
//
// After a (simulated) crash — see pmem.Memory's tracked mode — call
// Store.Recover before issuing new operations.
//
// Everything here delegates to the internal packages; see DESIGN.md for
// the system inventory and internal/persist for the transformation itself.
package nvtraverse

import (
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/queue"
	"repro/internal/store"
)

// Re-exported structure kinds.
const (
	List     = core.KindList
	HashMap  = core.KindHash
	EllenBST = core.KindEllenBST
	NMBST    = core.KindNMBST
	Skiplist = core.KindSkiplist
)

// Re-exported persistence policies. PolicyNVTraverse is the paper's
// transformation; the others are the baselines it is evaluated against.
var (
	PolicyNone        persist.Policy = persist.None{}
	PolicyNVTraverse  persist.Policy = persist.NVTraverse{}
	PolicyIzraelevitz persist.Policy = persist.Izraelevitz{}
	PolicyLogFree     persist.Policy = persist.LinkAndPersist{}
)

// Memory profiles for the simulated persistence-instruction costs.
var (
	NVRAM = pmem.ProfileNVRAM
	DRAM  = pmem.ProfileDRAM
)

// Thread is a per-goroutine operation context on a Memory.
type Thread = pmem.Thread

// Memory is a simulated persistent-memory domain.
type Memory = pmem.Memory

// NewMemory creates a fast-mode memory with the given latency profile
// (use pmem.NewTracked directly for crash testing).
func NewMemory(profile pmem.Profile) *Memory {
	return pmem.NewFast(profile)
}

// Queue is the durable Michael–Scott queue in traversal form.
type Queue = queue.Queue

// NewQueue builds a durable queue with the given policy.
func NewQueue(mem *Memory, pol persist.Policy) *Queue {
	return queue.New(mem, pol)
}

// Op and OpResult form StoreSession.Apply's batched operation surface.
type (
	Op       = store.Op
	OpResult = store.OpResult
)

// Batched operation kinds for StoreSession.Apply.
// OpUpdate is the atomic read-modify-write (Op.Fn, or conditional
// overwrite with Op.Value when Fn is nil); OpScan counts the keys of
// [Op.Key, Op.Hi].
const (
	OpGet    = store.OpGet
	OpPut    = store.OpPut
	OpInsert = store.OpInsert
	OpDelete = store.OpDelete
	OpUpdate = store.OpUpdate
	OpScan   = store.OpScan
)
