// Package arena provides chunked, handle-addressed node pools for simulated
// persistent memory, with per-thread free lists and epoch-stamped
// retirement. Handles (arena indices) are what pmem.Ref values carry;
// persistent-memory practice addresses pool offsets rather than raw
// pointers, and handles additionally give data structures tag bits that
// Go's GC would forbid on real pointers.
//
// Allocation is thread-local: each thread pops its own free list and falls
// back to bumping the shared high-water mark. Retired nodes join the
// retiring thread's limbo queue stamped with the current epoch and are
// recycled once the epoch domain has advanced twice (see package epoch).
//
// Recovery does not rebuild the free lists. A simulated crash (pmem's
// Crash/FinishCrash/Restart) leaves them and the limbo queues as they
// were: they are process memory, and they hold only slots that were never
// published (Free) or whose unlink was persisted before Retire, so reusing
// them after recovery is safe. A reopen from the durable backend starts a
// fresh arena with empty lists: replay materializes every chunk the
// previous boot had grown to and moves the high-water mark past the last
// of them (ensureChunk), so the slots of those chunks that were free, in
// limbo or never handed out at the crash stay unused for the new boot's
// whole life.
//
// Allocation is line-aware: the persistence model (package pmem) is
// cache-line granular, so where nodes land relative to 64-byte lines is
// semantically visible — two nodes sharing a line would persist and vanish
// together in a crash, and a flush of one would write back the other.
// Chunks of pointer-free node types (every node type in this repository)
// are therefore carved 64-byte aligned, and node types whose size is a
// multiple of 64 (see each structure's padding) get the PMDK-style
// guarantee that no two nodes ever share a line. LineAligned reports
// whether an arena provides it.
package arena

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/epoch"
	"repro/internal/pmem"
)

const (
	chunkBits = 13
	// ChunkSize is the number of nodes per chunk.
	ChunkSize = 1 << chunkBits
	chunkMask = ChunkSize - 1
	maxChunks = 1 << 18 // 2^31 nodes per arena: plenty for every benchmark
)

// collectInterval is how many retirements a thread performs between limbo
// collection attempts.
const collectInterval = 32

type retired struct {
	epoch uint64
	idx   uint64
}

type threadState struct {
	free  []uint64
	limbo []retired // epoch-ordered as long as a thread does not mix Retire and RetireLate
	nret  uint64
	_     [24]byte
}

// Arena is a chunked pool of T nodes. Index 0 is reserved (the nil handle).
type Arena[T any] struct {
	dom      *epoch.Domain
	chunks   []atomic.Pointer[[ChunkSize]T]
	next     atomic.Uint64
	grow     sync.Mutex
	ts       []threadState
	nodeSize uintptr
	carve    bool // pointer-free T: chunks carved 64-byte aligned

	// space, when non-nil, is the durable-backend registration namespace:
	// each chunk registers as region (space, chunkIndex) so its fenced line
	// snapshots reach the write-ahead log. regd (guarded by grow) tracks
	// which chunks are registered. Nil on non-durable memories — Persist
	// leaves it nil, so the allocation path carries no overhead.
	space *pmem.Space
	regd  map[uint64]bool
}

// New creates an arena attached to an epoch domain, with per-thread state
// for maxThreads threads (thread IDs must match the pmem.Thread IDs).
func New[T any](dom *epoch.Domain, maxThreads int) *Arena[T] {
	a := &Arena[T]{
		dom:      dom,
		chunks:   make([]atomic.Pointer[[ChunkSize]T], maxChunks),
		ts:       make([]threadState, maxThreads),
		nodeSize: unsafe.Sizeof(*new(T)),
	}
	a.carve = !typeHasPointers(reflect.TypeOf(*new(T)))
	a.next.Store(1) // index 0 is the nil handle
	return a
}

// NodeBytes reports the size of one node in bytes.
func (a *Arena[T]) NodeBytes() uintptr { return a.nodeSize }

// LineAligned reports whether the arena guarantees that no two nodes share
// a 64-byte line: chunks are carved line-aligned (pointer-free T) and the
// node size is a whole number of lines. Structures whose crash-atomicity
// arguments are per-node rely on this and assert it in their tests.
func (a *Arena[T]) LineAligned() bool {
	return a.carve && a.nodeSize > 0 && a.nodeSize%pmem.LineSize == 0
}

// newChunk allocates one chunk. For pointer-free node types the chunk is
// carved 64-byte aligned out of a byte slab, so node addresses — and with
// them pmem's line keys — are deterministic relative to the chunk base.
// (The returned pointer is an interior pointer; it keeps the slab alive.
// Carving is only legal for pointer-free types: a byte slab has no pointer
// map for the GC to scan.)
func (a *Arena[T]) newChunk() *[ChunkSize]T {
	if !a.carve || a.nodeSize == 0 {
		return new([ChunkSize]T)
	}
	raw := make([]byte, ChunkSize*int(a.nodeSize)+pmem.LineSize-1)
	p := unsafe.Pointer(unsafe.SliceData(raw))
	if r := uintptr(p) % pmem.LineSize; r != 0 {
		p = unsafe.Add(p, pmem.LineSize-r)
	}
	return (*[ChunkSize]T)(p)
}

// typeHasPointers reports whether values of t contain any GC-visible
// pointers.
func typeHasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
		reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16,
		reflect.Uint32, reflect.Uint64, reflect.Uintptr, reflect.Float32,
		reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && typeHasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if typeHasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// Domain returns the epoch domain the arena reclaims against.
func (a *Arena[T]) Domain() *epoch.Domain { return a.dom }

// Get returns the node at handle idx. The handle must have been allocated
// and not recycled; Get performs no validation beyond bounds.
func (a *Arena[T]) Get(idx uint64) *T {
	return &a.chunks[idx>>chunkBits].Load()[idx&chunkMask]
}

// Alloc returns a fresh handle for thread tid. The node's contents are
// whatever the previous occupant left (like malloc); callers must initialize
// every field before publishing, exactly as the persistence protocol
// requires anyway.
func (a *Arena[T]) Alloc(tid int) uint64 {
	ts := &a.ts[tid]
	if n := len(ts.free); n > 0 {
		idx := ts.free[n-1]
		ts.free = ts.free[:n-1]
		return idx
	}
	a.collect(tid)
	if n := len(ts.free); n > 0 {
		idx := ts.free[n-1]
		ts.free = ts.free[:n-1]
		return idx
	}
	idx := a.next.Add(1) - 1
	ci := idx >> chunkBits
	if ci >= maxChunks {
		panic(fmt.Sprintf("arena: exhausted (%d nodes)", idx))
	}
	if a.chunks[ci].Load() == nil {
		a.grow.Lock()
		if a.chunks[ci].Load() == nil {
			a.publishChunk(ci, a.newChunk())
		}
		a.grow.Unlock()
	}
	return idx
}

// Persist registers the arena's node memory with the durable backend under
// sp: every chunk — existing and future — becomes the on-disk region
// (sp, chunkIndex), and replay re-materializes chunks a previous boot had
// grown to before writing recovered nodes into them. Handle addresses are
// deterministic relative to each chunk base, so a node's replayed line
// snapshots land exactly where the recovered structure's handles point.
//
// Call it once, right after New, during deterministic construction (the
// space numbering depends on construction order). No-op on a memory
// without a file backend. Requires a pointer-free node type (carved,
// line-aligned chunks): registration is meaningless for GC-managed chunks.
func (a *Arena[T]) Persist(sp *pmem.Space) {
	if sp == nil || !sp.Durable() {
		return
	}
	if !a.carve || a.nodeSize == 0 {
		panic("arena: Persist requires a pointer-free node type")
	}
	a.grow.Lock()
	defer a.grow.Unlock()
	if a.space != nil {
		panic("arena: Persist called twice")
	}
	a.space = sp
	a.regd = make(map[uint64]bool)
	for ci := uint64(0); ci < maxChunks; ci++ {
		if c := a.chunks[ci].Load(); c != nil {
			a.registerChunk(ci, c)
		}
	}
	sp.Provide(func(sub uint32) { a.ensureChunk(uint64(sub)) })
}

// registerChunk registers chunk c as chunk ci with the durable backend
// (idempotent). Caller holds a.grow. ChunkSize is a multiple of 64, so the
// chunk's byte size is always line-sized regardless of the node type.
func (a *Arena[T]) registerChunk(ci uint64, c *[ChunkSize]T) {
	if a.space == nil || a.regd[ci] {
		return
	}
	a.regd[ci] = true
	a.space.Register(uint32(ci), unsafe.Pointer(c), ChunkSize*a.nodeSize)
}

// publishChunk registers a new chunk ci and then makes it visible. The order
// matters on a file-backed memory: a thread that finds the chunk must find
// its region too, or its first writes would bracket a different version
// pair than the flushes after registration. Caller holds a.grow.
func (a *Arena[T]) publishChunk(ci uint64, c *[ChunkSize]T) {
	a.registerChunk(ci, c)
	a.chunks[ci].Store(c)
}

// ensureChunk is the replay-time provider: it materializes chunk ci if this
// boot has not grown to it yet, registers it, and advances the high-water
// mark past it so post-recovery allocations can never collide with replayed
// live nodes. Nothing reclaims the slots it skips: the dead ones among
// them (free, in limbo or never handed out before the crash) stay unused
// until the next reopen skips them again, so a boot's first allocation
// from an empty free list starts a fresh chunk.
func (a *Arena[T]) ensureChunk(ci uint64) {
	if ci >= maxChunks {
		return
	}
	a.grow.Lock()
	if c := a.chunks[ci].Load(); c != nil {
		a.registerChunk(ci, c)
	} else {
		a.publishChunk(ci, a.newChunk())
	}
	a.grow.Unlock()
	end := (ci + 1) * ChunkSize
	for {
		cur := a.next.Load()
		if cur >= end || a.next.CompareAndSwap(cur, end) {
			return
		}
	}
}

// Free returns a never-published handle directly to the thread's free list
// (e.g. a node allocated for an insert whose CAS failed). Published nodes
// must use Retire instead.
func (a *Arena[T]) Free(tid int, idx uint64) {
	a.ts[tid].free = append(a.ts[tid].free, idx)
}

// Retire places an unlinked node in the limbo queue. The caller must
// guarantee the node is unreachable from the structure's roots and — for
// durability — that the disconnection has already been flushed and fenced:
// recycling a slot whose unlink could be undone by a crash would corrupt
// the persistent structure.
func (a *Arena[T]) Retire(tid int, idx uint64) { a.retire(tid, idx, a.dom.Epoch()) }

// RetireLate is Retire for a node whose handle a published record may still
// carry after the unlink, where a thread that enters up to one epoch after
// the retirement can find the record and act on the handle (a lock-free
// operation descriptor holding it as a CAS expectation, while the
// descriptor's owner is still in its critical section). The node stays in
// limbo one epoch longer than Retire keeps it, which outlasts every such
// thread.
func (a *Arena[T]) RetireLate(tid int, idx uint64) { a.retire(tid, idx, a.dom.Epoch()+1) }

func (a *Arena[T]) retire(tid int, idx, epoch uint64) {
	ts := &a.ts[tid]
	ts.limbo = append(ts.limbo, retired{epoch: epoch, idx: idx})
	ts.nret++
	if ts.nret%collectInterval == 0 {
		a.dom.TryAdvance()
		a.collect(tid)
	}
}

// collect moves reclaimable limbo entries to the free list. Limbo is
// epoch-ordered, so only a prefix moves (out of order, a later entry only
// waits for the one ahead of it).
func (a *Arena[T]) collect(tid int) {
	ts := &a.ts[tid]
	i := 0
	for i < len(ts.limbo) && a.dom.SafeToReclaim(ts.limbo[i].epoch) {
		ts.free = append(ts.free, ts.limbo[i].idx)
		i++
	}
	if i > 0 {
		ts.limbo = append(ts.limbo[:0], ts.limbo[i:]...)
	}
}

// Stats reports allocator occupancy (test and reporting hook).
func (a *Arena[T]) Stats() (allocated, free, limbo uint64) {
	allocated = a.next.Load() - 1
	for i := range a.ts {
		free += uint64(len(a.ts[i].free))
		limbo += uint64(len(a.ts[i].limbo))
	}
	return
}

// HighWater returns one past the largest handle ever allocated.
func (a *Arena[T]) HighWater() uint64 { return a.next.Load() }

// Released returns the handles that sit in some thread's free list or
// limbo queue, i.e. those Alloc may hand out again. Quiescent use only: the
// structures' Validate checks that none of them is still reachable.
func (a *Arena[T]) Released() map[uint64]bool {
	out := make(map[uint64]bool)
	for i := range a.ts {
		for _, f := range a.ts[i].free {
			out[f] = true
		}
		for _, r := range a.ts[i].limbo {
			out[r.idx] = true
		}
	}
	return out
}
