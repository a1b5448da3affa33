package pmem

import "sync/atomic"

// Stats counts memory and persistence events. Each Thread accumulates its
// counters in plain owner-written fields and publishes them to atomics only
// at operation boundaries (CountOp) or on an explicit PublishStats, so
// snapshots from other goroutines are race-free and the per-access hot path
// pays a plain add instead of an atomic RMW; Memory.Stats sums the
// published snapshots.
//
// Flushes counts clwb instructions actually issued; FlushesElided counts
// Flush calls that did no work: the line was already captured, unchanged,
// in the thread's pending flush set, or — for a registered line of a
// file-backed fast-mode memory — it was clean, its current content already
// appended to the log or checkpointed (see Thread.Flush).
// Flushes+FlushesElided is the number of Flush calls the persistence policy
// made.
//
// WALRecords, WALBytes and WALSyncs are the file backend's: records
// appended to the log, the bytes they framed, and commit-point fsyncs (see
// WALStats). They belong to the Memory, not to a thread — Memory.Stats adds
// them to the per-thread sum — and are zero without a file backend.
type Stats struct {
	Reads         uint64
	Writes        uint64
	CASes         uint64
	CASFail       uint64
	Flushes       uint64
	FlushesElided uint64
	Fences        uint64
	Ops           uint64
	WALRecords    uint64
	WALBytes      uint64
	WALSyncs      uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.CASes += o.CASes
	s.CASFail += o.CASFail
	s.Flushes += o.Flushes
	s.FlushesElided += o.FlushesElided
	s.Fences += o.Fences
	s.Ops += o.Ops
	s.WALRecords += o.WALRecords
	s.WALBytes += o.WALBytes
	s.WALSyncs += o.WALSyncs
}

// Sub returns s minus o (for interval measurements).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:         s.Reads - o.Reads,
		Writes:        s.Writes - o.Writes,
		CASes:         s.CASes - o.CASes,
		CASFail:       s.CASFail - o.CASFail,
		Flushes:       s.Flushes - o.Flushes,
		FlushesElided: s.FlushesElided - o.FlushesElided,
		Fences:        s.Fences - o.Fences,
		Ops:           s.Ops - o.Ops,
		WALRecords:    s.WALRecords - o.WALRecords,
		WALBytes:      s.WALBytes - o.WALBytes,
		WALSyncs:      s.WALSyncs - o.WALSyncs,
	}
}

// localStats are the owner-written counters: only the owning goroutine
// touches them, with plain (non-atomic) adds. They become visible to other
// goroutines only as a whole, via publish.
type localStats Stats

// publishedStats is the atomically published snapshot of a thread's
// localStats. The only hot-path publication point is the operation boundary
// (CountOp): one batch of eight uncontended atomic stores per completed
// operation, instead of an atomic read-modify-write per simulated access.
// Mid-run snapshots from other goroutines are therefore at most one
// operation stale; code that reads counters outside operation boundaries
// (microbenchmarks, instruction-level tests) calls PublishStats first.
type publishedStats struct {
	reads       atomic.Uint64
	writes      atomic.Uint64
	cases       atomic.Uint64
	casFail     atomic.Uint64
	flushes     atomic.Uint64
	flushElided atomic.Uint64
	fences      atomic.Uint64
	ops         atomic.Uint64
}

// Thread is a per-worker context: all cell accesses, persistence
// instructions, arena allocation and epoch entry go through a Thread. A
// Thread must be used by one goroutine at a time.
type Thread struct {
	// ID is a dense thread index within the owning Memory, used to index
	// per-thread arena free lists and epoch slots.
	ID int

	mem *Memory
	st  localStats
	rng uint64

	// Hot-path caches of owning-Memory state, copied at registration so
	// every simulated access costs one Thread-local read instead of a
	// pointer chase through mem and its config. All are immutable for the
	// Memory's lifetime.
	model     *model      // mem.model
	flushCost int32       // mem.cfg.Profile.FlushCost
	fenceCost int32       // mem.cfg.Profile.FenceCost
	dur       *durableMem // mem.durable (nil without a file backend)

	// reg caches the region durLine found last (file-backed fast mode).
	reg *region

	// unfenced counts flushes issued since the last fence. Policies that
	// model link-and-persist use it to elide fences when nothing is
	// pending.
	unfenced int

	// batchDepth > 0 while a fence batch is open (BeginBatch/EndBatch):
	// CommitFence defers its fence to EndBatch. pendingCommit records that
	// at least one commit fence was deferred inside the open batch.
	batchDepth    int
	pendingCommit bool

	// lines is the pending flush set: every line flushed since the last
	// fence, at its capture-time write version (or content mix, see Flush),
	// in an open-addressed table reset by generation bump. Both modes
	// consult it to coalesce repeat flushes of an unchanged line in O(1).
	lines lineSet

	// flushSet (tracked mode only) holds one entry per issued flush in
	// order, each carrying its whole-line snapshot inline (clwb writes back
	// the entire line; a line is at most CellsPerLine cells, so the
	// snapshot is a fixed-size array and tracked-mode Flush is
	// allocation-free at steady state).
	flushSet []flushEntry

	// walPend (durable mode only) holds the WAL entries captured since the
	// last fence — the fence appends them as one record. Fast mode fills it
	// at Flush (captureFast); tracked mode converts flushSet at Fence.
	walPend []walEntry

	// Scratch slices for data-structure operations (node lists returned by
	// traversals, flush batches). Owned by the single operation currently
	// running on this thread; reused to avoid per-operation allocation.
	Scratch      []uint64
	ScratchCells []*Cell

	// lastPub mirrors the counters as of the last publish, so publish can
	// skip the atomic store for counters the operation did not move.
	lastPub localStats
	pub     publishedStats

	_ [32]byte // reduce false sharing between Thread structs
}

// flushEntry is one pending tracked-mode line writeback: the line key, the
// line's write version at capture time, and the snapshot of every tracked
// cell of the line (vals[slot] for each slot set in mask).
type flushEntry struct {
	line uintptr
	ver  uint64
	mask uint8
	vals [CellsPerLine]uint64
}

// Memory returns the owning memory domain.
func (t *Thread) Memory() *Memory { return t.mem }

// publish atomically stores the owner-written counters into the published
// snapshot, skipping counters unchanged since the last publication (the
// compares are thread-local and predictable; the atomic stores are not
// free). Owner-only.
func (t *Thread) publish() {
	if t.st.Reads != t.lastPub.Reads {
		t.pub.reads.Store(t.st.Reads)
	}
	if t.st.Writes != t.lastPub.Writes {
		t.pub.writes.Store(t.st.Writes)
	}
	if t.st.CASes != t.lastPub.CASes {
		t.pub.cases.Store(t.st.CASes)
	}
	if t.st.CASFail != t.lastPub.CASFail {
		t.pub.casFail.Store(t.st.CASFail)
	}
	if t.st.Flushes != t.lastPub.Flushes {
		t.pub.flushes.Store(t.st.Flushes)
	}
	if t.st.FlushesElided != t.lastPub.FlushesElided {
		t.pub.flushElided.Store(t.st.FlushesElided)
	}
	if t.st.Fences != t.lastPub.Fences {
		t.pub.fences.Store(t.st.Fences)
	}
	if t.st.Ops != t.lastPub.Ops {
		t.pub.ops.Store(t.st.Ops)
	}
	t.lastPub = t.st
}

// PublishStats atomically publishes the thread's counters so that
// StatsSnapshot observes every event so far. It may only be called by the
// owning goroutine. Operations publish automatically at their boundary
// (CountOp); PublishStats exists for code that drives persistence
// instructions directly and reads counters between operations.
func (t *Thread) PublishStats() { t.publish() }

// StatsSnapshot returns this thread's counters as of its last publication
// point (CountOp or PublishStats) — race-free from any goroutine, and
// exact whenever the thread is between operations.
func (t *Thread) StatsSnapshot() Stats {
	return Stats{
		Reads:         t.pub.reads.Load(),
		Writes:        t.pub.writes.Load(),
		CASes:         t.pub.cases.Load(),
		CASFail:       t.pub.casFail.Load(),
		Flushes:       t.pub.flushes.Load(),
		FlushesElided: t.pub.flushElided.Load(),
		Fences:        t.pub.fences.Load(),
		Ops:           t.pub.ops.Load(),
	}
}

// resetStats clears the thread's counters. Callers (Memory.ResetStats) must
// only invoke it while the thread is quiescent.
func (t *Thread) resetStats() {
	t.st = localStats{}
	t.publish()
}

// CountOp records one completed high-level operation (for per-op metrics)
// and publishes the thread's counters — the operation boundary is the
// canonical publication point.
func (t *Thread) CountOp() {
	t.st.Ops++
	t.publish()
}

// Rand returns the next value of the thread's splitmix64 generator.
func (t *Thread) Rand() uint64 {
	t.rng += 0x9e3779b97f4a7c15
	z := t.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Load atomically reads a cell: one real atomic load plus a plain counter
// add — the fast-mode read path carries no atomic read-modify-write.
func (t *Thread) Load(c *Cell) uint64 {
	t.st.Reads++
	if t.model != nil {
		t.mem.checkCrash()
	}
	return c.v.Load()
}

// Store atomically writes a cell.
//
// In fast mode a registered line of a file-backed memory carries a write
// version, and the write is bracketed on it (durLine): started is bumped
// before the cell changes, the version after. A file-backed memory skips
// flushes of lines whose version says the log already has them, and without
// the bracket the instant between the store and the bump would let a reader
// elide, fence and reply with a value no record holds; the flush path
// treats started != version as "a write is in flight" (see durableVersion).
// Any other line has no version: its flushes compare content.
func (t *Thread) Store(c *Cell, v uint64) {
	t.st.Writes++
	if m := t.model; m != nil {
		t.mem.checkCrash()
		m.store(c, v)
		return
	}
	if r, i := t.durLine(c); r != nil {
		l := &r.lines[i]
		l.started.Add(1)
		c.v.Store(v)
		t.dur.inWriteWindow()
		l.v.Add(1)
		return
	}
	c.v.Store(v)
}

// CAS atomically compares-and-swaps a cell, returning whether it succeeded.
// A registered line of a file-backed memory brackets the attempt like
// Store; a failed attempt still closes its bracket, which advances the
// version of an unchanged line and costs at most one harmless re-log.
func (t *Thread) CAS(c *Cell, old, new uint64) bool {
	t.st.CASes++
	var ok bool
	if m := t.model; m != nil {
		t.mem.checkCrash()
		ok = m.cas(c, old, new)
	} else if r, i := t.durLine(c); r != nil {
		l := &r.lines[i]
		l.started.Add(1)
		ok = c.v.CompareAndSwap(old, new)
		t.dur.inWriteWindow()
		l.v.Add(1)
	} else {
		ok = c.v.CompareAndSwap(old, new)
	}
	if !ok {
		t.st.CASFail++
	}
	return ok
}

// durableVersion returns the write version a file-backed fast-mode flush of
// the registered line l works with: the version the capture will carry,
// and the one the pending-set and clean-line checks compare.
//
// Both checks skip the capture when an earlier capture carried the same
// version, and the argument that this loses nothing is: that capture read
// the version, then the content; if no write was in flight when THIS flush
// read the version (started == version, read in that order), every store
// this thread can have loaded from the line finished its bracket at or
// below that version, hence before the earlier capture read it, hence
// before the earlier capture read the content. With a write in flight the
// argument fails — its store may be visible and is in no capture of this
// version — and worse, a new capture at this version could lose a replay
// tie to an older one without the store. So the flush performs an empty
// bracket of its own: the version it gets is larger than that of any
// capture that began before this thread's loads, and any capture at or
// above it began after them and contains what they saw. The version belongs
// to this line alone, so an equal version means no write to the line at
// all, and a write to any other line never moves it.
func (t *Thread) durableVersion(l *regionLine) uint64 {
	cur := l.v.Load()
	if l.started.Load() != cur {
		l.started.Add(1)
		cur = l.v.Add(1)
	}
	return cur
}

// Flush issues a clwb for the cell's 64-byte line: the content the line
// holds right now will be persisted — whole line, atomically — by the next
// Fence. Flush alone guarantees nothing.
//
// Flush coalesces: when the thread's pending flush set already holds this
// line, unchanged, the call is a no-op (counted in Stats.FlushesElided, no
// latency charged). This is the paper's TSO flush-coalescing optimization —
// clwb of a line that is already queued for writeback, unchanged, does no
// additional work. The pending set is an open-addressed table keyed by the
// exact line (lineSet), so the check is O(1) regardless of how many lines a
// batch has flushed since the last fence. What "unchanged" means depends on
// the line:
//
//   - Tracked mode and a registered line of a file-backed memory compare
//     the line's exact write version. Any write moves it, so a written line
//     is always re-captured, even one written back to the captured content.
//   - Every other fast-mode line compares a 64-bit mix of its eight words,
//     read at flush time (lineMix). A line whose content equals the content
//     captured in the same fence window elides, an ABA restore or a
//     same-value store included: a second writeback would persist identical
//     bytes. This is the one count that differs from tracked mode, which
//     counts such a flush. A change of one word always changes the mix; two
//     contents that differ in more words mix alike with probability about
//     2^-64, and can only miscount one flush, because these lines persist
//     nothing.
//
// For a registered line of a file-backed memory a flush of a clean line is
// a no-op too, as a clwb of an already-persistent line is on NVRAM: when a
// capture of the line at its current version is already appended to the log
// or covered by a checkpoint (regionLine.logged), nothing is captured and
// the next fence appends nothing for it. The commit point that follows
// still drains and syncs the log, which is what covers a line some other
// thread fenced but has not yet synced.
func (t *Thread) Flush(c *Cell) {
	var issued bool
	if m := t.model; m != nil {
		t.mem.checkCrash()
		issued = t.flushTracked(c, m)
	} else if r, i := t.durLine(c); r != nil {
		cur := t.durableVersion(&r.lines[i])
		issued = t.lines.put(lineOf(c), cur) && t.captureFast(r, i, cur)
	} else {
		issued = t.lines.put(lineOf(c), lineMix(c))
	}
	if !issued {
		t.st.FlushesElided++
		return
	}
	t.st.Flushes++
	t.unfenced++
	spin(int(t.flushCost))
}

// flushTracked records a clwb of c's line in tracked mode: under the line's
// stripe lock it reads the line's current write version, consults the
// thread's pending set, and — unless the flush coalesces (returns false) —
// captures a consistent snapshot of every tracked cell of the line inline
// in the appended flush entry.
func (t *Thread) flushTracked(c *Cell, mo *model) bool {
	key := lineOf(c)
	st := mo.stripeOf(key)
	st.mu.Lock()
	var cur uint64
	ls := st.lines[key]
	if ls != nil {
		cur = ls.curVer
	}
	if !t.lines.put(key, cur) {
		st.mu.Unlock()
		return false
	}
	e := flushEntry{line: key, ver: cur}
	if ls != nil {
		e.mask = ls.mask
		for slot, cc := range ls.cells {
			if ls.mask&(1<<slot) != 0 {
				e.vals[slot] = cc.v.Load()
			}
		}
	}
	st.mu.Unlock()
	t.flushSet = append(t.flushSet, e)
	return true
}

// Fence issues an sfence: every line flushed by this thread since its last
// fence is persisted (tracked mode persists the flush-time snapshots), and
// the pending flush set is reset (a generation bump, not a clear).
func (t *Thread) Fence() {
	if m := t.model; m != nil {
		t.mem.checkCrash()
		t.mem.checkFenceTrap()
		m.fence(t.flushSet)
		if t.dur != nil {
			t.walFromFlushSet(t.dur)
		}
		t.flushSet = t.flushSet[:0]
	}
	if d := t.dur; d != nil && len(t.walPend) > 0 {
		// The fence is the commit unit: the whole between-fences line set
		// becomes one framed WAL record (buffered; commit points flush it).
		d.appendRecord(t.walPend)
		t.walPend = t.walPend[:0]
	}
	t.st.Fences++
	t.unfenced = 0
	t.lines.reset()
	spin(int(t.fenceCost))
}

// resetFlushState discards all pending flush bookkeeping (crash rollback,
// PersistAll). Callers must ensure the thread is quiescent.
func (t *Thread) resetFlushState() {
	t.flushSet = t.flushSet[:0]
	t.walPend = t.walPend[:0] // unfenced captures die with the cache
	t.lines.reset()
	t.unfenced = 0
}

// Unfenced reports how many flushes this thread has issued since its last
// fence. Policies use it to skip provably idempotent fences. Elided
// flushes do not count: they coalesce into an already-pending line capture
// or found the line's content already in the log, so they never make a
// fence necessary (the commit point's DurableSync is what a clean line may
// still need, and every return path reaches one).
func (t *Thread) Unfenced() int { return t.unfenced }

// CommitFence is the durability fence an operation issues before returning
// ("fence before every return statement", Protocol 2 of the paper). Outside
// a batch it is a plain Fence. Inside a batch it is deferred to EndBatch:
// the batch's operations are acknowledged together, so a single fence can
// make all of them durable at once.
//
// Only the commit fence may ever be deferred. The ordering fences inside
// the persistence protocols (the fence before a CAS publishes a node, the
// post-traverse fence) must still execute: they are what make each
// individual operation all-or-nothing across a crash, so a crash in the
// middle of a batch leaves every operation of the batch either fully
// applied or fully absent — exactly the freedom durable linearizability
// grants unacknowledged operations.
func (t *Thread) CommitFence() {
	if t.batchDepth > 0 {
		t.pendingCommit = true
		return
	}
	t.Fence()
	if d := t.dur; d != nil {
		// Commit point: the operation may be acknowledged after this
		// returns, so its record must be in the file before then.
		d.flush()
	}
}

// BeginBatch opens a fence batch on this thread. Batches nest; only the
// outermost EndBatch issues the coalesced fence.
func (t *Thread) BeginBatch() { t.batchDepth++ }

// EndBatch closes a fence batch. If any commit fence was deferred (or
// flushes are otherwise pending), one Fence persists everything the batch
// flushed before the batch is acknowledged.
func (t *Thread) EndBatch() {
	if t.batchDepth == 0 {
		panic("pmem: EndBatch without BeginBatch")
	}
	t.batchDepth--
	if t.batchDepth == 0 && (t.pendingCommit || t.unfenced > 0) {
		t.pendingCommit = false
		t.Fence()
	}
	if t.batchDepth == 0 {
		if d := t.dur; d != nil {
			// Commit point for the whole batch — even when the closing
			// fence elided (earlier in-batch fences may have appended
			// records that are still only in the userspace buffer).
			d.flush()
		}
	}
}

// InBatch reports whether a fence batch is open on this thread.
func (t *Thread) InBatch() bool { return t.batchDepth > 0 }

var spinSink uint64

// spin burns roughly n calibrated iterations. The data dependency through x
// and the conditional publication to spinSink prevent the compiler from
// eliding the loop.
func spin(n int) {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*2862933555777941757 + 3037000493
	}
	if x == 42 {
		spinSink = x
	}
}
