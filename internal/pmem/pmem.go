// Package pmem simulates a two-level (volatile cache / persistent NVRAM)
// memory for lock-free data structures, standing in for Intel Optane DC
// persistent memory and the clwb/sfence instructions used by the NVTraverse
// paper (Friedman et al., PLDI 2020).
//
// Every shared 64-bit word of a simulated data structure is a Cell. All
// accesses go through a per-worker Thread, which provides atomic Load, Store
// and CAS plus the persistence instructions Flush (clwb) and Fence (sfence).
//
// Persistence is cache-line accurate: cells are placed into 64-byte lines
// by their real addresses (see line.go), Flush writes back a whole line and
// coalesces repeat flushes of an unchanged line (Stats.FlushesElided), and
// a crash persists or drops whole lines atomically — cells of one line
// never part ways, exactly as on hardware.
//
// The memory runs in one of two modes:
//
//   - ModeFast: accesses are plain Go atomics; Flush and Fence charge a
//     calibrated spin cost from a latency Profile and bump per-thread
//     counters. Flush coalescing is observable in the counters: a line
//     counts as unchanged while its content equals what the pending flush
//     captured, and a registered line of a file-backed memory carries an
//     exact write version instead, which the log's replay needs (see
//     Thread.Flush). This mode is used by the throughput benchmarks:
//     the paper's claims are about the count and placement of flushes and
//     fences, and the cost model exercises exactly the code paths the
//     NVTraverse transformation changes.
//
//   - ModeTracked: the memory additionally maintains, for every line written
//     since the last full persist, the newest line image known to be
//     persistent. Crash() rolls every dirty line back to its persisted image
//     (optionally letting a random subset of lines "evict", i.e. persist on
//     their own, as hardware caches may). While the crash flag is raised,
//     every access panics with a crash sentinel so that in-flight operations
//     stop mid-instruction, exactly as a power failure would stop them. This
//     mode powers the durable linearizability crash tests.
//
// References between nodes are Ref values: arena handles with a low mark bit
// (bit 0), an auxiliary bit (bit 1, used by data structures that need two
// edge bits), and a "persisted" tag (bit 62) used by the link-and-persist
// policy. Go's garbage collector forbids tagging real pointers, and
// persistent-memory practice (PMDK) uses pool offsets rather than raw
// pointers anyway, so handles are both safe and faithful.
package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pmem/vfs"
)

// Mode selects how the simulated memory behaves.
type Mode int

const (
	// ModeFast runs plain atomics plus the latency cost model.
	ModeFast Mode = iota
	// ModeTracked additionally tracks persisted values and supports Crash.
	ModeTracked
)

// Profile is a latency profile for the persistence instructions, expressed in
// calibrated spin-loop iterations (roughly 0.4ns each on the reference
// machine; the absolute scale is irrelevant, only the ratios matter).
type Profile struct {
	Name      string
	FlushCost int // cost of one Flush (clwb)
	FenceCost int // cost of one Fence (sfence drain)
}

// Latency profiles for the two machines in the paper's evaluation. On the
// NVRAM (Optane) machine persistence instructions are expensive; on the DRAM
// machine (clflush-to-DRAM emulation) they are cheaper.
var (
	ProfileNVRAM = Profile{Name: "nvram", FlushCost: 180, FenceCost: 520}
	ProfileDRAM  = Profile{Name: "dram", FlushCost: 90, FenceCost: 220}
	ProfileZero  = Profile{Name: "zero", FlushCost: 0, FenceCost: 0}
)

// Config configures a Memory.
type Config struct {
	Mode       Mode
	Profile    Profile
	MaxThreads int // capacity for NewThread; defaults to 64

	// Dir, when non-empty, gives the memory a durable file backend in that
	// directory: fenced line snapshots of registered regions (see Space)
	// are appended to a write-ahead log, and RecoverFiles replays them at
	// the next open. The simulated cost model and the line/fence counters
	// are unaffected. See durable.go.
	Dir string

	// SyncFence makes the durable backend fsync at every commit point
	// (CommitFence, EndBatch, DurableSync) instead of only flushing to the
	// OS — durability against power loss rather than process death, at a
	// large throughput cost. Only meaningful with Dir.
	SyncFence bool

	// FS overrides the file operations of the durable backend (nil means
	// the real filesystem, vfs.OS). Fault-injection tests pass a vfs.ErrFS
	// here; the backend itself cannot tell the difference. Only meaningful
	// with Dir.
	FS vfs.FS
}

// DefaultMaxThreads is used when Config.MaxThreads is zero.
const DefaultMaxThreads = 128

// Memory is one simulated persistent memory domain. All cells of a data
// structure must be used with threads of the same Memory.
type Memory struct {
	cfg     Config
	crashed atomic.Bool

	mu      sync.Mutex
	threads []*Thread

	// threadsPub is the published, immutable snapshot of threads, rebuilt
	// by NewThread. Threads() hands it out without locking or copying, so
	// stats aggregation inside measurement loops costs one atomic load
	// instead of a mutex plus a slice allocation per call.
	threadsPub atomic.Pointer[[]*Thread]

	model *model // non-nil iff ModeTracked

	// fenceTrap implements the CrashAtFence deterministic crash schedule.
	fenceTrap atomic.Int64

	// durable is the file backend (nil without Config.Dir); spaceSeq
	// numbers NewSpace calls in construction order, which is what keeps
	// on-disk region tags stable across restarts.
	durable  *durableMem
	spaceSeq atomic.Uint32
}

// New creates a Memory with the given configuration.
func New(cfg Config) *Memory {
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = DefaultMaxThreads
	}
	m := &Memory{cfg: cfg}
	if cfg.Mode == ModeTracked {
		m.model = newModel()
	}
	if cfg.Dir != "" {
		// No file IO here: the backend stays inert (appends dropped) until
		// RecoverFiles opens the directory, after structures have
		// registered their regions.
		m.durable = newDurableMem(cfg.Dir, cfg.SyncFence, cfg.FS)
	}
	return m
}

// NewFast is shorthand for a fast-mode memory with the given profile.
func NewFast(p Profile) *Memory {
	return New(Config{Mode: ModeFast, Profile: p})
}

// NewTracked is shorthand for a tracked-mode memory (zero latency profile:
// crash tests measure correctness, not time).
func NewTracked() *Memory {
	return New(Config{Mode: ModeTracked, Profile: ProfileZero})
}

// Mode reports the memory's mode.
func (m *Memory) Mode() Mode { return m.cfg.Mode }

// Profile reports the memory's latency profile.
func (m *Memory) Profile() Profile { return m.cfg.Profile }

// MaxThreads reports the configured thread capacity.
func (m *Memory) MaxThreads() int { return m.cfg.MaxThreads }

// Tracked reports whether the memory tracks persistence (ModeTracked).
func (m *Memory) Tracked() bool { return m.model != nil }

// NewThread registers a new worker thread context. Thread IDs are dense,
// starting at zero, and are used to index per-thread arena and epoch state.
func (m *Memory) NewThread() *Thread {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.threads) >= m.cfg.MaxThreads {
		panic(fmt.Sprintf("pmem: thread limit %d exceeded", m.cfg.MaxThreads))
	}
	t := &Thread{
		ID:        len(m.threads),
		mem:       m,
		rng:       uint64(len(m.threads))*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		model:     m.model,
		flushCost: int32(m.cfg.Profile.FlushCost),
		fenceCost: int32(m.cfg.Profile.FenceCost),
		dur:       m.durable,
	}
	m.threads = append(m.threads, t)
	snap := append([]*Thread(nil), m.threads...)
	m.threadsPub.Store(&snap)
	return t
}

// Threads returns the registered threads (for stats aggregation). The
// returned slice is a shared immutable snapshot — callers must not modify
// it.
func (m *Memory) Threads() []*Thread {
	p := m.threadsPub.Load()
	if p == nil {
		return nil
	}
	return *p
}

// Stats sums the per-thread statistics and adds the file backend's WAL
// counters.
func (m *Memory) Stats() Stats {
	var s Stats
	for _, t := range m.Threads() {
		s.Add(t.StatsSnapshot())
	}
	w := m.WALStats()
	s.WALRecords, s.WALBytes, s.WALSyncs = w.Records, w.Bytes, w.Syncs
	return s
}

// ResetStats clears all per-thread counters and the WAL counters. It
// writes the owner-side counter fields directly, so it must only be called
// while no thread is mid-operation (measurement harnesses reset between
// runs, which is exactly that quiescent point).
func (m *Memory) ResetStats() {
	for _, t := range m.Threads() {
		t.resetStats()
	}
	if d := m.durable; d != nil {
		d.mu.Lock()
		d.wstats = WALStats{}
		d.mu.Unlock()
	}
}
