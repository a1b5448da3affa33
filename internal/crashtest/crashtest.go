// Package crashtest is the durable-linearizability test harness: it runs
// concurrent workers against tracked persistent memory, injects a crash at
// an arbitrary point inside operations, rolls back unpersisted writes (with
// optional random cache evictions) or reopens the file backend as SIGKILL
// would leave it, runs the system's recovery procedure, and then checks
// that the surviving state is explainable by some linearization of the
// pre-crash history (Izraelevitz et al.'s durable linearizability, the
// paper's correctness criterion):
//
//   - the effect of every completed operation must have survived, and
//   - operations in flight at the crash either took full effect or none.
//
// For set data structures the per-key check is exact: in any linearization
// the successful inserts and deletes of one key alternate, so the final
// membership of key k is determined by the initial state and the counts of
// completed successful inserts (I) and deletes (D) — present iff
// initially-absent ? I == D+1 : I == D — unless some operation on k was in
// flight at the crash, in which case that operation may additionally have
// taken effect.
//
// Run is the one crash round. It owns everything a round does to the
// system — build, prefill, persist, workers, crash, rollback or reopen,
// recovery — and a Target supplies only what differs: how to build the
// system, one worker step, and the check of the recovered state. Structure
// and Engine are checked per key by Check (the engine also for shard
// isolation), Queue and Stack by an order-aware check. The History/Check
// layer is exported on its own so systems driven from outside the process
// reuse the identical checker: the wire smokes of cmd/nvserver record
// histories over a socket.
package crashtest

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/pmem"
	"repro/internal/pmem/vfs"
)

// Set is the data-structure surface the harness exercises.
type Set interface {
	Insert(t *pmem.Thread, key, value uint64) bool
	Delete(t *pmem.Thread, key uint64) bool
	Find(t *pmem.Thread, key uint64) (uint64, bool)
	// Recover is the paper's recovery phase (disconnect + auxiliary
	// rebuild); it runs after FinishCrash/Restart, before checking.
	Recover(t *pmem.Thread)
	// Contents returns the unmarked keys (quiescent use).
	Contents(t *pmem.Thread) []uint64
}

// Scanner is the optional range-scan surface (Store API v2). When the
// structure under test implements it, the checker additionally requires
// the post-recovery full-range scan to observe exactly the recovered
// contents — every durably committed key, no resurrected ones — in
// ascending order unless the structure refuses a narrower range with
// kv.ErrUnordered.
type Scanner interface {
	RangeScan(t *pmem.Thread, lo, hi uint64, fn func(key, value uint64) bool) error
}

// OpKind names an operation in a recorded history.
type OpKind int

// The operations the checker understands.
const (
	OpInsert OpKind = iota
	OpDelete
	OpFind
)

type record struct {
	key   uint64
	kind  OpKind
	ok    bool
	value uint64
}

// History accumulates one worker's operation history for the durable-
// linearizability check. It is not safe for concurrent use: give each
// worker its own and hand them all to Check after the workers have joined.
//
// A History admits any number of in-flight operations, which is what
// batched engines need: a crash in the middle of a batch leaves every
// unacknowledged operation of the batch in flight at once.
type History struct {
	completed []record
	inflight  []record
}

// Completed records an acknowledged operation and whether it succeeded.
func (h *History) Completed(kind OpKind, key, value uint64, ok bool) {
	h.completed = append(h.completed, record{key: key, kind: kind, ok: ok, value: value})
}

// InFlight records an operation that was started but never acknowledged:
// the checker allows it to have taken effect or not.
func (h *History) InFlight(kind OpKind, key, value uint64) {
	h.inflight = append(h.inflight, record{key: key, kind: kind, value: value})
}

// CheckConfig parameterizes Check.
type CheckConfig struct {
	// Prefilled maps the keys present (with their values) before the
	// recorded history began.
	Prefilled map[uint64]uint64
	// CheckValues additionally verifies surviving values. Only sound when
	// each key's operations were issued by a single worker (disjoint key
	// partitions): concurrent inserts of one key make "the last insert's
	// value" ambiguous.
	CheckValues bool
}

// Violation is one durable-linearizability failure.
type Violation struct {
	Key    uint64
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("key %d: %s", v.Key, v.Detail)
}

// Result summarizes one crash round.
type Result struct {
	Completed  uint64 // operations completed before the crash
	InFlight   int    // operations interrupted mid-flight
	Violations []Violation
	Survivors  int // keys present after recovery

	// DurableErr is the pre-crash memory's sticky disk damage at the
	// moment of the crash (nil when the disk behaved). Fault-schedule
	// rounds assert it is non-nil to prove the injection actually fired.
	DurableErr error
}

// Options configures one crash round (Run). The ordered targets (Queue,
// Stack) read only Workers, OpsBeforeCrash, EvictProb, Seed, Dir, FS and
// SyncFence.
type Options struct {
	Workers        int     // concurrent worker goroutines (default 4)
	Keys           uint64  // keys are drawn from [1, Keys] (default 128)
	Disjoint       bool    // partition the key space per worker (enables value checking)
	PrefillEvery   uint64  // prefill every n-th key (0 = no prefill)
	OpsBeforeCrash uint64  // crash once this many operations completed
	EvictProb      float64 // probability an unpersisted line survives anyway
	Seed           int64
	UpdateRatio    int // percent of ops that are updates (rest are finds); default 60

	// Dir, when non-empty, runs the round against the durable file backend:
	// the system is built on file-backed tracked memory, and the crash
	// abandons that memory outright — volatile state and unflushed userspace
	// WAL buffers die with it, exactly as SIGKILL would take them — before
	// the target builds the system afresh on the directory, replays the log,
	// and recovers. EvictProb is ignored (the file is the only survivor).
	Dir string

	// FS overrides the durable backend's file operations (nil = the real
	// filesystem): fault-torture rounds pass a vfs.ErrFS so the disk
	// misbehaves under load. A worker whose step ends with the backend
	// damaged records the step's writes as in flight — never acknowledged —
	// and stops, so the checker holds the harness to exactly the replied ⇒
	// durable rule under disk faults. The post-crash reopen reuses the same
	// FS: one-shot (Nth-call) triggers have fired by then, while byte-count
	// and probability triggers keep applying — a schedule can deliberately
	// torment recovery too. Only meaningful with Dir.
	FS vfs.FS

	// SyncFence makes every commit fence fsync the WAL (pmem.Config's
	// knob of the same name), so sync-failure schedules fire mid-load
	// rather than only at close and checkpoint. Only meaningful with Dir.
	SyncFence bool
}

// Target is the system a crash round runs against: one set structure
// (Structure), the sharded engine (Engine), a queue (Queue) or a stack
// (Stack).
type Target struct {
	start func(o *Options) round
}

// round is a target's side of one crash round. Run calls open, prefill
// and worker (once per worker, in id order), and after the crash — and
// the rollback, or a second open for the Dir reopen — recover and check.
type round interface {
	// open builds the system on fresh memory (or on o.Dir, replaying what
	// a crashed predecessor left there) and returns its crashable side.
	open() (machine, error)
	// prefill puts the initial contents in, before the history begins.
	prefill()
	// worker registers worker id and returns its step: one operation or
	// one batch, recorded in the worker's history. The step reports how
	// many operations it acknowledged and how many it left in flight; a
	// step that leaves any in flight (the crash interrupted it, or its
	// writes never reached a damaged disk) ends the worker.
	worker(id int) func() (acked, inflight int)
	// recover runs the system's recovery procedure.
	recover()
	// check verifies the recovered state against the recorded histories.
	check() (violations []Violation, survivors int)
}

// machine is the crashable side of a system: one tracked memory, or every
// shard's memory of an engine at once.
type machine interface {
	PersistAll()
	Crash()
	FinishCrash(evictProb float64, seed int64)
	Restart()
	DurableErr() error
}

// Run executes one crash round against target and checks the outcome.
func Run(opts Options, target Target) Result {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Keys == 0 {
		opts.Keys = 128
	}
	if opts.UpdateRatio == 0 {
		opts.UpdateRatio = 60
	}
	r := target.start(&opts)
	m, err := r.open()
	if err != nil {
		return Result{Violations: []Violation{{Detail: err.Error()}}}
	}
	r.prefill()
	// The initial structure resides fully in NVRAM before the measured
	// history begins (the paper's setting).
	m.PersistAll()

	steps := make([]func() (int, int), opts.Workers)
	for i := range steps {
		steps[i] = r.worker(i)
	}
	var down atomic.Bool // set just before the crash: workers stop between steps
	var completed atomic.Uint64
	var inflight, stopped atomic.Int64
	var wg sync.WaitGroup
	for _, step := range steps {
		wg.Add(1)
		go func(step func() (int, int)) {
			defer wg.Done()
			defer stopped.Add(1)
			for !down.Load() && m.DurableErr() == nil {
				acked, lost := step()
				completed.Add(uint64(acked))
				if lost > 0 {
					inflight.Add(int64(lost))
					return
				}
			}
		}(step)
	}

	// Crash once enough operations completed (yield while spinning: on a
	// single-core host the workers need the CPU). Workers also stop on
	// their own when the backend latches disk damage, so a fault schedule
	// that fires before the target count still ends the round.
	for completed.Load() < opts.OpsBeforeCrash && stopped.Load() < int64(len(steps)) {
		runtime.Gosched()
	}
	down.Store(true)
	m.Crash()
	wg.Wait()
	res := Result{Completed: completed.Load(), InFlight: int(inflight.Load()), DurableErr: m.DurableErr()}
	if opts.Dir == "" {
		m.FinishCrash(opts.EvictProb, opts.Seed)
		m.Restart()
	} else {
		// SIGKILL semantics: the crashed system is abandoned without
		// rollback or Close — anything not flushed at a commit point is
		// simply gone — and rebuilt from the directory.
		if _, err := r.open(); err != nil {
			res.Violations = []Violation{{Detail: err.Error()}}
			return res
		}
	}
	r.recover()
	res.Violations, res.Survivors = r.check()
	return res
}

// openMemory builds a tracked memory for o, has build construct the system
// on it, and with o.Dir brings the file backend online. Construction is
// deterministic, so a system rebuilt on a crashed predecessor's directory
// has handles that address the replayed lines.
func openMemory(o *Options, build func(mem *pmem.Memory)) (*pmem.Memory, error) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeTracked, Profile: pmem.ProfileZero,
		MaxThreads: o.Workers + 8, Dir: o.Dir, FS: o.FS, SyncFence: o.SyncFence})
	build(mem)
	if o.Dir != "" {
		if _, err := mem.RecoverFiles(); err != nil {
			return nil, err
		}
	}
	return mem, nil
}

type keyState struct {
	inserts       uint64 // completed successful inserts
	deletes       uint64 // completed successful deletes
	lastInsertVal uint64
	sawInsert     bool
	inflightIns   int // in-flight inserts at the crash
	inflightDel   int // in-flight deletes at the crash
	attempted     bool
}

// allowedStates enumerates, per key, which final membership states some
// linearization permits: each in-flight operation may or may not have taken
// effect, and successful inserts/deletes of one key must alternate starting
// from the initial state. It returns (absentOK, presentOK, feasible).
func (s *keyState) allowedStates(prefilled bool) (absentOK, presentOK, feasible bool) {
	for eI := 0; eI <= s.inflightIns; eI++ {
		for eD := 0; eD <= s.inflightDel; eD++ {
			i := s.inserts + uint64(eI)
			d := s.deletes + uint64(eD)
			if prefilled {
				// Sequence starts present: deletes lead.
				if d == i || d == i+1 {
					feasible = true
					if d == i {
						presentOK = true
					} else {
						absentOK = true
					}
				}
			} else {
				if i == d || i == d+1 {
					feasible = true
					if i == d+1 {
						presentOK = true
					} else {
						absentOK = true
					}
				}
			}
		}
	}
	return
}

// Check verifies that the recovered structure ds is explainable by some
// linearization of the recorded histories under durable linearizability,
// and returns the violations plus the number of surviving keys. rec must be
// a post-Restart thread of the structure's memory; ds.Recover must already
// have run.
func Check(ds Set, rec *pmem.Thread, hs []*History, cfg CheckConfig) ([]Violation, int) {
	var violations []Violation

	states := map[uint64]*keyState{}
	get := func(k uint64) *keyState {
		s := states[k]
		if s == nil {
			s = &keyState{}
			states[k] = s
		}
		return s
	}
	for _, h := range hs {
		for _, r := range h.completed {
			s := get(r.key)
			s.attempted = true
			if !r.ok {
				continue
			}
			switch r.kind {
			case OpInsert:
				s.inserts++
				s.lastInsertVal = r.value
				s.sawInsert = true
			case OpDelete:
				s.deletes++
			}
		}
		for _, r := range h.inflight {
			s := get(r.key)
			s.attempted = true
			switch r.kind {
			case OpInsert:
				s.inflightIns++
			case OpDelete:
				s.inflightDel++
			}
		}
	}

	present := map[uint64]int{}
	for _, k := range ds.Contents(rec) {
		present[k]++
	}
	for k, n := range present {
		if n > 1 {
			violations = append(violations,
				Violation{k, fmt.Sprintf("present %d times", n)})
		}
	}

	if v, ok := ds.(core.Validator); ok {
		if err := v.Validate(rec); err != nil {
			violations = append(violations,
				Violation{0, "structural: " + err.Error()})
		}
	}

	// Scan/contents agreement: the full-range scan of a recovered structure
	// must report exactly the recovered key set, in ascending order on an
	// ordered kind — a durably committed key missing from the scan (or a
	// deleted key resurfacing in it) is a recovery bug even when per-key
	// membership looks right. An unordered kind, which refuses a narrower
	// range, is compared as a sorted set.
	if sc, ok := ds.(Scanner); ok {
		var scanned []uint64
		err := sc.RangeScan(rec, kv.MinKey, kv.MaxKey, func(k, _ uint64) bool {
			scanned = append(scanned, k)
			return true
		})
		if err == nil {
			want := slices.Sorted(slices.Values(ds.Contents(rec)))
			if errors.Is(sc.RangeScan(rec, kv.MinKey, kv.MinKey, func(uint64, uint64) bool { return false }), kv.ErrUnordered) {
				slices.Sort(scanned)
			} else if !slices.IsSorted(scanned) {
				violations = append(violations, Violation{0, "scan: keys out of order"})
			}
			if !slices.Equal(scanned, want) {
				i := 0
				for i < min(len(scanned), len(want)) && scanned[i] == want[i] {
					i++
				}
				violations = append(violations, Violation{0, fmt.Sprintf(
					"scan: %d keys, contents has %d; they diverge at position %d", len(scanned), len(want), i)})
			}
		}
	}

	// Per-key membership check over every key that was prefilled or touched.
	checkKey := func(k uint64) {
		s := states[k]
		_, pre := cfg.Prefilled[k]
		isPresent := present[k] > 0
		if s == nil {
			// Untouched key: prefill must survive verbatim.
			if isPresent != pre {
				violations = append(violations,
					Violation{k, fmt.Sprintf("untouched key: present=%v, prefilled=%v", isPresent, pre)})
			}
			return
		}
		absentOK, presentOK, feasible := s.allowedStates(pre)
		if !feasible {
			violations = append(violations,
				Violation{k, fmt.Sprintf("history not linearizable pre-crash: prefilled=%v inserts=%d deletes=%d inflight=%d/%d",
					pre, s.inserts, s.deletes, s.inflightIns, s.inflightDel)})
			return
		}
		if (isPresent && !presentOK) || (!isPresent && !absentOK) {
			violations = append(violations,
				Violation{k, fmt.Sprintf("present=%v not explainable (prefilled=%v inserts=%d deletes=%d inflight=%d/%d)",
					isPresent, pre, s.inserts, s.deletes, s.inflightIns, s.inflightDel)})
		}
	}
	seen := map[uint64]bool{}
	for k := range cfg.Prefilled {
		seen[k] = true
		checkKey(k)
	}
	for k := range states {
		if !seen[k] {
			seen[k] = true
			checkKey(k)
		}
	}
	// Keys present that nobody ever inserted are corruption.
	for k := range present {
		if !seen[k] {
			violations = append(violations,
				Violation{k, "present but never inserted"})
		}
	}

	// Value durability: with per-worker key partitions each key's history is
	// sequential, so a present key with no in-flight op must carry its last
	// successful insert's value (or the prefill value).
	if cfg.CheckValues {
		for k := range seen {
			s := states[k]
			if present[k] == 0 {
				continue
			}
			if s != nil && (s.inflightIns > 0 || s.inflightDel > 0) {
				continue
			}
			want, okWant := cfg.Prefilled[k]
			if s != nil && s.sawInsert {
				want, okWant = s.lastInsertVal, true
			}
			if !okWant {
				continue
			}
			got, ok := ds.Find(rec, k)
			if !ok {
				violations = append(violations,
					Violation{k, "in Contents but Find misses it"})
				continue
			}
			if got != want {
				violations = append(violations,
					Violation{k, fmt.Sprintf("value %d, want %d", got, want)})
			}
		}
	}

	return violations, len(present)
}
