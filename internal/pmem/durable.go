package pmem

import (
	"bufio"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/pmem/vfs"
)

// The durable file backend gives a Memory real on-disk state: every fenced
// line snapshot of a *registered region* is appended to a write-ahead log,
// and a periodic checkpoint writes every line as log records and truncates it.
// The simulated cost model and the line/fence accounting are untouched —
// durability rides on the same flush-set captures the simulation already
// takes — so every structure, the shard engine, the batcher and nvserver
// run unchanged against a directory instead of (only) simulated NVRAM.
//
// The commit unit is the fence. A Fence with pending captured lines appends
// exactly one WAL record (the thread's coalesced line set since its last
// fence); records from all threads interleave in a single per-Memory log,
// buffered in userspace and flushed to the OS at the points where an
// operation may be acknowledged: CommitFence outside a batch, the closing
// fence of EndBatch, and Thread.DurableSync (the link-and-persist policy's
// "some other thread already fenced my link" return path). A SIGKILL after
// an acknowledgement therefore always finds the acknowledged record in the
// file — group commit at the file layer mirrors the batcher's group commit
// at the wire. Config.SyncFence additionally calls File.Sync (fsync, data and
// metadata) at those points for power-loss, not just process-death,
// durability.
//
// Only dirty lines are logged. Real NVRAM writes nothing back for a clwb of
// a line that is already persistent, and NVTraverse leans on that: it
// flushes the destination's lines on every operation, reads included. Here
// the equivalent is the clean-line rule: a flush may be skipped only if a
// capture of the line's current content is already appended to the log or
// covered by a checkpoint, and the commit point that follows syncs whatever
// is buffered. Each line of a registered region carries its own exact write
// version and the version of the newest such capture (region.lines);
// Thread.Flush and walFromFlushSet compare the two. A read of quiescent
// data therefore appends nothing and syncs nothing, and a write logs the
// lines it changed and no others.
//
// Addresses do not survive a process restart, so the log cannot record raw
// pointers. Instead, structures register the memory that backs their cells
// as regions with stable coordinates: a Space (numbered in deterministic
// construction order) plus a caller-chosen sub-tag (for arenas, the chunk
// index). A line is logged as (tag, line index within region, write
// version, cell values); replay maps the tag back to wherever the region
// lives in the restarted process. Lines outside every registered region
// (test scaffolding, harness-private cells) are simply not durable.
//
// Replay applies records in log order under the same monotonic-version
// guard as Fence: a record only advances a line it captured at a newer
// write version than the newest already applied. Versions are scoped by a
// boot counter (bumped on every successful open) so that version counters
// restarting from zero in a new process cannot lose to a previous boot's
// records.

// walEntry is one captured line in a WAL record: the region coordinate
// (tag, idx), the line's write version at capture time, the mask of slots
// with tracked content, and the cell values. Fast mode captures whole
// lines (mask 0xff) at Flush; tracked mode reuses the flush-set snapshots.
type walEntry struct {
	r    *region // the line's region: tag on disk, logged version in memory
	idx  uint32
	mask uint8
	ver  uint64
	vals [CellsPerLine]uint64
}

// region is one registered span of cell-backing memory: size bytes at base,
// 64-byte aligned, addressed on disk by tag.
type region struct {
	tag  uint64
	base uintptr
	size uintptr
	// ptr is the GC-visible interior pointer that both keeps the backing
	// slab alive and is the legal base for unsafe.Add arithmetic.
	ptr unsafe.Pointer
	// lines[i] is line i's exact write version and its logged version.
	lines []regionLine
}

// regionLine is the durable bookkeeping of one line of a region, 24 bytes
// per 64-byte line. v is the line's fast-mode write version: it counts
// finished writes (bumped after the store), and no other line shares it.
// started counts writes begun (bumped before the store), so the clean-line
// check can see a write in flight (see Thread.durableVersion). logged is
// 1 + the write version of the newest capture of the line that is appended
// to the log or covered by the state recovery loaded; 0 means none. logged
// is written under d.mu (or by RecoverFiles, quiescent) and read lock-free
// by the flush path. Tracked mode keeps versions in its model and uses only
// logged.
type regionLine struct {
	v       atomic.Uint64
	started atomic.Uint64
	logged  atomic.Uint64
}

// clean reports whether a capture of line idx at write version ver is
// already in the log or the recovered state.
func (r *region) clean(idx uint32, ver uint64) bool {
	return r.lines[idx].logged.Load() == ver+1
}

// stamp records that a capture of line idx at ver has been appended. Stamps
// only move forward: a stale capture appended late (its thread fenced after
// a newer one) must not make the line look dirty at the newer version, nor
// clean at the older. Caller holds d.mu.
func (r *region) stamp(idx uint32, ver uint64) {
	if l := &r.lines[idx].logged; l.Load() < ver+1 {
		l.Store(ver + 1)
	}
}

// WALStats counts log appends since the backend went live or the last
// Memory.ResetStats (reporting hook).
type WALStats struct {
	Records uint64
	Lines   uint64
	Bytes   uint64
	// Syncs counts the fsyncs of commit points (Config.SyncFence).
	Syncs uint64
	// Checkpoints counts Checkpoint calls that committed (WALSize resets to
	// the magic header at each).
	Checkpoints uint64
}

// ReplayStats summarizes one RecoverFiles pass (and is the source of the
// recovery-time bench row).
type ReplayStats struct {
	// Records and Lines count applied WAL records / line entries.
	Records uint64
	Lines   uint64
	// Bytes is the WAL byte count replayed; CheckpointBytes the size of the
	// checkpoint file loaded before it.
	Bytes           uint64
	CheckpointBytes uint64
	// Truncated reports that a torn tail was cut off at the first bad frame.
	Truncated bool
	Elapsed   time.Duration
}

// Add accumulates o into s (Elapsed keeps the maximum: shards replay in
// parallel, so the wall-clock cost is the slowest shard's).
func (s *ReplayStats) Add(o ReplayStats) {
	s.Records += o.Records
	s.Lines += o.Lines
	s.Bytes += o.Bytes
	s.CheckpointBytes += o.CheckpointBytes
	s.Truncated = s.Truncated || o.Truncated
	if o.Elapsed > s.Elapsed {
		s.Elapsed = o.Elapsed
	}
}

// durableMem is the per-Memory file backend state.
type durableMem struct {
	dir  string
	sync bool
	fs   vfs.FS

	// Region registry. regions is the sorted-by-base lookup snapshot the
	// flush path binary-searches lock-free; regMu guards mutation.
	regMu     sync.Mutex
	regions   atomic.Pointer[[]*region]
	byTag     map[uint64]*region
	providers map[uint32]func(sub uint32)

	// Log writer state. live flips on after RecoverFiles: appends before
	// that (structure construction) are dropped — construction is
	// deterministic and replay overlays it, so logging it would only let a
	// fresh sentinel record shadow recovered state.
	mu      sync.Mutex
	live    bool
	f       vfs.File
	bw      *bufio.Writer
	gen     uint64
	boot    uint64
	scratch []byte
	wstats  WALStats
	replay  ReplayStats

	// damaged is the sticky fail-stop latch: the first WAL append, flush,
	// fsync or close error is stored here permanently and every later
	// commit point returns it. Never cleared — a failed fsync may already
	// have dropped the dirty pages (the fsyncgate lesson), so retrying and
	// trusting the next success would un-durably acknowledge writes. The
	// only way out is a process restart and recovery from what the files
	// actually hold.
	damaged atomic.Pointer[error]

	// dirty is true while the userspace buffer may hold unflushed records;
	// checked lock-free so DurableSync costs one atomic load when clean.
	dirty atomic.Bool

	// writeWindow, when set, runs inside every fast-mode write between the
	// cell store and the version bump. Tests park a writer there; nil
	// otherwise.
	writeWindow func()

	// walLen is the current generation's log length in bytes (including
	// buffered records), maintained lock-free so size-threshold checkpoint
	// triggers cost one atomic load per check. ckptBusy makes concurrent
	// CheckpointIfOver callers skip instead of queueing on d.mu behind a
	// running dump.
	walLen   atomic.Int64
	ckptBusy atomic.Bool
}

func newDurableMem(dir string, syncFence bool, fs vfs.FS) *durableMem {
	if fs == nil {
		fs = vfs.OS
	}
	return &durableMem{
		dir:       dir,
		sync:      syncFence,
		fs:        fs,
		byTag:     make(map[uint64]*region),
		providers: make(map[uint32]func(sub uint32)),
	}
}

// latch records err as permanent damage (first error wins) and returns
// the latched error. nil passes through untouched.
func (d *durableMem) latch(err error) error {
	if err == nil {
		return nil
	}
	werr := fmt.Errorf("pmem: durable backend damaged: %w", err)
	if !d.damaged.CompareAndSwap(nil, &werr) {
		return *d.damaged.Load()
	}
	return werr
}

// damageErr returns the latched damage error, or nil while healthy. One
// atomic pointer load: cheap enough for every commit point.
func (d *durableMem) damageErr() error {
	if p := d.damaged.Load(); p != nil {
		return *p
	}
	return nil
}

// DurableErr reports the file backend's sticky damage state: nil while
// every commit-point flush (and fsync, under SyncFence) has succeeded,
// and the first I/O error permanently afterwards. Commit paths check it
// after their closing fence; a non-nil result means records appended
// since the last successful flush may never have reached the file, so
// the affected operations must NOT be acknowledged.
func (m *Memory) DurableErr() error {
	if m.durable == nil {
		return nil
	}
	return m.durable.damageErr()
}

// Durable reports whether the memory has a file backend configured.
func (m *Memory) Durable() bool { return m.durable != nil }

// Dir returns the file backend's directory ("" without one).
func (m *Memory) Dir() string {
	if m.durable == nil {
		return ""
	}
	return m.durable.dir
}

// WALStats reports the log appends since the backend went live or the
// last ResetStats.
func (m *Memory) WALStats() WALStats {
	if m.durable == nil {
		return WALStats{}
	}
	d := m.durable
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wstats
}

// Watermark reports the durable backend's replication watermark: the boot
// counter CURRENT records for the live generation (bumped on every
// successful open, so it uniquely names one process lifetime of this
// directory) and the current WAL length in bytes. Replication uses the
// boot as the primary's run identity — a replica that attached under one
// boot must full-resync after the primary restarts, because in-memory
// stream positions do not survive the restart — and the byte position as
// a coarse progress coordinate. Both are (0, 0) without a file backend.
func (m *Memory) Watermark() (boot uint64, walBytes int64) {
	if m.durable == nil {
		return 0, 0
	}
	d := m.durable
	d.mu.Lock()
	boot = d.boot
	d.mu.Unlock()
	return boot, d.walLen.Load()
}

// WALSize reports the current generation's log length in bytes, buffered
// records included (0 without a file backend). One atomic load: callable
// from hot paths as a checkpoint-threshold probe.
func (m *Memory) WALSize() int64 {
	if m.durable == nil {
		return 0
	}
	return m.durable.walLen.Load()
}

// CheckpointIfOver takes a checkpoint when the current WAL has grown to at
// least threshold bytes, bounding replay work after a kill. It returns
// whether a checkpoint ran. Concurrent callers do not pile up: whoever
// loses the busy flag skips — the winner is already resetting the log.
// Safe under live traffic (see Checkpoint).
func (m *Memory) CheckpointIfOver(threshold int64) (bool, error) {
	d := m.durable
	if d == nil || threshold <= 0 || d.walLen.Load() < threshold {
		return false, nil
	}
	if !d.ckptBusy.CompareAndSwap(false, true) {
		return false, nil
	}
	defer d.ckptBusy.Store(false)
	if d.walLen.Load() < threshold {
		return false, nil
	}
	if err := m.Checkpoint(); err != nil {
		return false, err
	}
	return true, nil
}

// ReplayStats reports the outcome of the RecoverFiles pass (zero before it
// ran, or without a file backend).
func (m *Memory) ReplayStats() ReplayStats {
	if m.durable == nil {
		return ReplayStats{}
	}
	d := m.durable
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.replay
}

// Space is a registration namespace of the durable backend. Structures
// obtain one per persistent allocation domain (an arena, a root-cell slab)
// via Memory.NewSpace; because structure construction is deterministic and
// single-threaded, the n-th NewSpace call names the same domain in every
// boot, which is what makes on-disk tags stable across restarts. On a
// memory without a file backend every Space method is a cheap no-op, so
// structures register unconditionally.
type Space struct {
	m  *Memory
	id uint32
}

// NewSpace allocates the next space ID (deterministic: call order is
// construction order).
func (m *Memory) NewSpace() *Space {
	return &Space{m: m, id: m.spaceSeq.Add(1) - 1}
}

// ID returns the space's registration ID.
func (s *Space) ID() uint32 { return s.id }

// Durable reports whether the space is backed by a file backend (false on a
// plain memory, where every Space method is a no-op).
func (s *Space) Durable() bool { return s.m.durable != nil }

func spaceTag(space, sub uint32) uint64 {
	return uint64(space)<<32 | uint64(sub)
}

// Register records that size bytes at p back cells whose fenced snapshots
// should be durable, addressed on disk as (space, sub). p must be 64-byte
// aligned and size a multiple of 64: regions are line-granular. Registering
// the same (space, sub) twice, or overlapping an existing region, panics —
// both are construction bugs.
func (s *Space) Register(sub uint32, p unsafe.Pointer, size uintptr) {
	d := s.m.durable
	if d == nil {
		return
	}
	if uintptr(p)%LineSize != 0 || size == 0 || size%LineSize != 0 {
		panic("pmem: Register needs a line-aligned, line-sized region")
	}
	r := &region{
		tag: spaceTag(s.id, sub), base: uintptr(p), size: size, ptr: p,
		lines: make([]regionLine, size/LineSize),
	}
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if _, dup := d.byTag[r.tag]; dup {
		panic(fmt.Sprintf("pmem: region (space %d, sub %d) registered twice", s.id, sub))
	}
	old := d.regions.Load()
	var regs []*region
	if old != nil {
		regs = append(regs, *old...)
	}
	i := sort.Search(len(regs), func(i int) bool { return regs[i].base >= r.base })
	if i > 0 && regs[i-1].base+regs[i-1].size > r.base {
		panic("pmem: Register overlaps an existing region")
	}
	if i < len(regs) && r.base+r.size > regs[i].base {
		panic("pmem: Register overlaps an existing region")
	}
	regs = append(regs, nil)
	copy(regs[i+1:], regs[i:])
	regs[i] = r
	d.byTag[r.tag] = r
	d.regions.Store(&regs)
}

// Provide installs the space's region materializer: replay calls it for
// every sub-tag it encounters, and the callback must ensure the region
// (space, sub) is registered — re-allocating a chunk the previous boot had
// grown to, say — before replay writes into it. It is also called for
// already-registered tags so allocators can recover their high-water marks.
func (s *Space) Provide(provider func(sub uint32)) {
	d := s.m.durable
	if d == nil {
		return
	}
	d.regMu.Lock()
	d.providers[s.id] = provider
	d.regMu.Unlock()
}

// Lines allocates n dedicated 64-byte lines (see AllocLines) and registers
// them as the region (space, sub) — the way structures place persistent
// root cells under the file backend.
func (s *Space) Lines(sub uint32, n int) [][]Cell {
	lines := AllocLines(n)
	if s.m.durable != nil {
		s.Register(sub, unsafe.Pointer(&lines[0][0]), uintptr(n)*LineSize)
	}
	return lines
}

// lookup finds the region containing the line-aligned address, or nil.
func (d *durableMem) lookup(addr uintptr) *region {
	p := d.regions.Load()
	if p == nil {
		return nil
	}
	regs := *p
	lo, hi := 0, len(regs)
	for lo < hi {
		mid := (lo + hi) / 2
		if regs[mid].base <= addr {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return nil
	}
	if r := regs[lo-1]; addr < r.base+r.size {
		return r
	}
	return nil
}

// regionOf returns the tag's registered region, or nil if this build has
// none. Replay calls it for every tag it meets, and the first call for a
// tag (seen dedupes) runs the tag's space provider, which materializes it.
func (d *durableMem) regionOf(tag uint64, seen map[uint64]bool) *region {
	if !seen[tag] {
		seen[tag] = true
		d.regMu.Lock()
		p := d.providers[uint32(tag>>32)]
		d.regMu.Unlock()
		if p != nil {
			p(uint32(tag))
		}
	}
	d.regMu.Lock()
	defer d.regMu.Unlock()
	return d.byTag[tag]
}

// inWriteWindow runs the test hook of the store-then-bump window.
func (d *durableMem) inWriteWindow() {
	if d.writeWindow != nil {
		d.writeWindow()
	}
}

// captureFast snapshots the whole line idx of region r for the WAL (fast
// mode, durable only): called from Flush after the coalescing check
// admitted the line, with ver from durableVersion. It returns false,
// capturing nothing, when the line is clean at ver.
// Reading the version before the content is what makes replay ack-safe: a
// write's own capture (which happens after the write in program order)
// always carries a version at least as new as the write's bump, so any
// record that could shadow it during replay must itself contain the write.
func (t *Thread) captureFast(r *region, idx uint32, ver uint64) bool {
	if r.clean(idx, ver) {
		return false
	}
	e := walEntry{r: r, idx: idx, mask: 0xff, ver: ver}
	p := unsafe.Add(r.ptr, uintptr(idx)<<lineShift)
	for i := 0; i < CellsPerLine; i++ {
		e.vals[i] = (*atomic.Uint64)(unsafe.Add(p, i*8)).Load()
	}
	t.walPend = append(t.walPend, e)
	return true
}

// durLine returns the registered region r of c's line and the line's index
// in it on a file-backed fast-mode memory, or r == nil: no file backend, or
// no region covers the line, which then never reaches the log and has no
// write version. It stays small enough to inline, so a memory with no file
// backend pays one nil check on every Store, CAS and Flush.
func (t *Thread) durLine(c *Cell) (r *region, idx uint32) {
	if t.dur == nil {
		return nil, 0
	}
	return t.findLine(c)
}

// findLine is durLine on a file-backed memory. The thread caches the last
// region it found, so a run of accesses within one arena chunk skips the
// registry's binary search. Regions are never unregistered, and a region is
// registered before any thread can reach its cells (Space.Lines, arena
// chunk growth), so every write and flush of a registered line uses the
// same version.
func (t *Thread) findLine(c *Cell) (r *region, idx uint32) {
	addr := uintptr(unsafe.Pointer(c)) &^ uintptr(LineSize-1)
	if r = t.reg; r == nil || addr-r.base >= r.size {
		if r = t.dur.lookup(addr); r == nil {
			return nil, 0
		}
		t.reg = r
	}
	return r, uint32((addr - r.base) >> lineShift)
}

// lineMix returns a 64-bit mix of the eight words of c's line, read now:
// the content key a fast-mode flush of a line with no write version
// coalesces on (see Thread.Flush). It is a sum of the words times distinct
// odd constants, so the eight products are independent and a change of any
// one word always changes the mix. The words around c may belong to other
// objects; they are only loaded, atomically, one word at a time (a pointer
// to the whole line could straddle allocations, which the race detector's
// pointer checks reject), and always lie on c's page.
func lineMix(c *Cell) uint64 {
	p := unsafe.Add(unsafe.Pointer(c), -int(uintptr(unsafe.Pointer(c))&(LineSize-1)))
	var h uint64
	for i, k := range lineMixKeys {
		h += (*atomic.Uint64)(unsafe.Add(p, i*8)).Load() * k
	}
	return h
}

var lineMixKeys = [CellsPerLine]uint64{
	0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3, 0x589965cc75374cc3,
	0x1d8e4e27c47d124f, 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb,
}

// entryForLine builds a WAL entry for a tracked line's current volatile
// content (used when the simulation declares a line persisted outside a
// fence: PersistAll, crash-time eviction). ok=false when the line backs no
// registered region. Caller holds the line's stripe lock.
func (d *durableMem) entryForLine(key uintptr, ls *lineState) (walEntry, bool) {
	addr := key << lineShift
	r := d.lookup(addr)
	if r == nil {
		return walEntry{}, false
	}
	e := walEntry{
		r:    r,
		idx:  uint32((addr - r.base) >> lineShift),
		mask: ls.mask,
		ver:  ls.curVer,
	}
	for slot, c := range ls.cells {
		if ls.mask&(1<<slot) != 0 {
			e.vals[slot] = c.v.Load()
		}
	}
	return e, true
}

// walFromFlushSet converts the tracked-mode flush-set snapshots into WAL
// entries (the model already captured content and version at flush time),
// leaving out lines that are clean at the captured version. Tracked
// versions are exact and move with the content under the line's stripe
// lock, so an equal version is the same image: the fast path's
// store-then-bump window does not exist here. The flush itself still counts
// and still feeds the crash model.
func (t *Thread) walFromFlushSet(d *durableMem) {
	for i := range t.flushSet {
		fe := &t.flushSet[i]
		if fe.mask == 0 {
			continue // line never written: nothing beyond construction state
		}
		addr := fe.line << lineShift
		r := d.lookup(addr)
		if r == nil {
			continue
		}
		idx := uint32((addr - r.base) >> lineShift)
		if r.clean(idx, fe.ver) {
			continue
		}
		t.walPend = append(t.walPend, walEntry{
			r:    r,
			idx:  idx,
			mask: fe.mask,
			ver:  fe.ver,
			vals: fe.vals,
		})
	}
}

// DurableSync flushes any userspace-buffered WAL records to the operating
// system (and the disk, with Config.SyncFence), making everything fenced so
// far survive a process kill. CommitFence and EndBatch call it implicitly;
// it exists as an explicit call for acknowledgement paths that do not fence
// — the link-and-persist policy's return when another thread's fence
// already covered the link. No-op without a file backend: one nil check.
func (t *Thread) DurableSync() {
	if d := t.dur; d != nil {
		d.flush()
	}
}

// DurableErr is the thread-side view of Memory.DurableErr: nil while the
// file backend is healthy (or absent), the sticky damage error afterwards.
// Commit paths (the shard session's per-group EndBatch, the single-store
// batch path) consult it right after their closing fence — a non-nil
// result there means the fence's records may not be in the file and the
// group must not be acknowledged. One nil check + one atomic load.
func (t *Thread) DurableErr() error {
	if d := t.dur; d != nil {
		return d.damageErr()
	}
	return nil
}

// appendRecord serializes one fence's captured lines as a single framed
// record into the shared log buffer. Dropped silently before RecoverFiles
// (construction) and after Close; dropped with the latch set once the
// backend is damaged (the record could never be acknowledged anyway). A
// write error here latches immediately — bufio also remembers it and
// would resurface it at the next Flush, but latching at the append keeps
// the damage point exact.
func (d *durableMem) appendRecord(entries []walEntry) {
	d.mu.Lock()
	if !d.live || d.bw == nil || d.damageErr() != nil {
		d.mu.Unlock()
		return
	}
	d.scratch = appendRecordBytes(d.scratch[:0], d.boot, entries)
	if _, err := d.bw.Write(d.scratch); err != nil {
		d.latch(err)
		d.mu.Unlock()
		return
	}
	d.wstats.Records++
	d.wstats.Lines += uint64(len(entries))
	d.wstats.Bytes += uint64(len(d.scratch))
	d.walLen.Add(int64(len(d.scratch)))
	// dirty before the stamps: a flush that finds a line clean must find the
	// record that made it so either still marked buffered or already synced.
	d.dirty.Store(true)
	for i := range entries {
		entries[i].r.stamp(entries[i].idx, entries[i].ver)
	}
	d.mu.Unlock()
}

// flush drains the userspace buffer to the OS; with SyncFence it also
// fsyncs. The buffer only ever holds fenced records, so flushing at
// any point is safe; the commit points just make it mandatory. The return
// value is the commit verdict: nil means everything appended so far is in
// the file (and on disk, under SyncFence); non-nil means some record may
// be lost and the backend is latched damaged — the caller must withhold
// the acknowledgements this flush was covering.
func (d *durableMem) flush() error {
	if !d.dirty.Load() {
		return d.damageErr()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.damageErr(); err != nil {
		return err
	}
	if !d.dirty.Load() {
		// Whoever held the mutex ahead of us drained and synced everything
		// appended before we asked; repeating both on an empty buffer
		// would only put a second fsync behind the first.
		return nil
	}
	if d.bw != nil {
		if err := d.bw.Flush(); err != nil {
			return d.latch(err)
		}
		if d.sync && d.f != nil {
			if err := d.f.Sync(); err != nil {
				return d.latch(err)
			}
			d.wstats.Syncs++
		}
	}
	d.dirty.Store(false)
	return nil
}

// Close flushes and closes the file backend (no-op without one, idempotent).
// Appends after Close are dropped; the store layer closes on shutdown after
// quiescing its sessions. A flush/sync/close failure here is latched and
// returned — shutdown paths propagate it into a nonzero exit, because a
// clean-looking exit over a failed final flush would hide lost records.
func (m *Memory) Close() error {
	d := m.durable
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.f == nil {
		return d.damageErr()
	}
	err := d.damageErr()
	if d.bw != nil && err == nil {
		err = d.bw.Flush()
	}
	if e := d.f.Sync(); err == nil {
		err = e
	}
	if e := d.f.Close(); err == nil {
		err = e
	}
	d.f, d.bw, d.live = nil, nil, false
	return d.latch(err)
}
