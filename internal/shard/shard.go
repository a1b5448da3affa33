// Package shard composes the single-structure building blocks of this
// repository into a hash-sharded durable key-value engine: N independent
// (pmem.Memory, core.Set) shards behind one Engine.
//
// Sharding serves two system goals the paper's single-structure
// microbenchmarks do not exercise. First, scale: each shard is its own
// persistence domain with its own arena and epoch domain, so shards share
// no cache lines and no fences — throughput scales with shard count until
// the workload's skew concentrates traffic on few shards. Second,
// batching: a Session executes a batch of operations grouped per shard
// with pmem.Thread.BeginBatch/EndBatch around each shard group, so the
// fence-before-return that durable linearizability demands is paid once
// per shard group rather than once per operation (see
// pmem.Thread.CommitFence for why only that fence may be deferred). The
// batch is acknowledged only after every group's closing fence, so the
// engine remains durably linearizable at batch granularity: a crash
// mid-batch leaves each unacknowledged operation either fully applied or
// fully absent, which crashtest.Run verifies on a crashtest.Engine target.
//
// A whole-engine Crash/Recover mirrors a machine failure: every shard's
// memory crashes together, and recovery runs the per-structure recovery
// procedures of all shards in parallel.
package shard

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/pmem/vfs"
)

// Config configures an Engine.
type Config struct {
	// Shards is the shard count (default 1).
	Shards int
	// Kind is the per-shard structure (default core.KindHash).
	Kind core.Kind
	// Policy is the persistence transformation (default persist.NVTraverse).
	Policy persist.Policy
	// Profile is the latency profile for fast-mode engines.
	Profile pmem.Profile
	// Tracked builds tracked memories (crash testing) instead of fast ones.
	Tracked bool
	// MaxSessions bounds NewSession calls (each session registers one
	// thread per shard). Default 64.
	MaxSessions int
	// Params tunes the per-shard structures. Params.SizeHint is the
	// engine-wide expected key-range size; it is divided by the shard count
	// before reaching each structure.
	Params core.Params
	// Dir, when non-empty, backs every shard with the durable file backend:
	// shard i journals into Dir/shard-i (WAL + checkpoint, see
	// internal/pmem). Call RecoverFiles after New and Close on shutdown.
	Dir string
	// SyncFence makes every commit fence fsync its shard's WAL (durability
	// against power loss, not just process death). Only meaningful with Dir.
	SyncFence bool
	// FS overrides the durable backend's file operations (nil = the real
	// filesystem). Shared by every shard: fault-injection schedules see one
	// stream of calls. Only meaningful with Dir.
	FS vfs.FS
}

type engineShard struct {
	mem *pmem.Memory
	set core.Set
}

// Engine is a hash-sharded durable key-value store.
type Engine struct {
	cfg    Config
	shards []engineShard
}

// New builds an engine of cfg.Shards independent shards.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Kind == "" {
		cfg.Kind = core.KindHash
	}
	if cfg.Policy == nil {
		cfg.Policy = persist.NVTraverse{}
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	params := cfg.Params
	if params.SizeHint > 0 {
		params.SizeHint /= cfg.Shards
		if params.SizeHint < 64 {
			params.SizeHint = 64
		}
	}
	if params.Buckets > 0 {
		params.Buckets /= cfg.Shards
		if params.Buckets < 64 {
			params.Buckets = 64
		}
	}
	e := &Engine{cfg: cfg, shards: make([]engineShard, cfg.Shards)}
	mode := pmem.ModeFast
	if cfg.Tracked {
		mode = pmem.ModeTracked
	}
	for i := range e.shards {
		dir := ""
		if cfg.Dir != "" {
			dir = filepath.Join(cfg.Dir, fmt.Sprintf("shard-%d", i))
		}
		mem := pmem.New(pmem.Config{
			Mode:    mode,
			Profile: cfg.Profile,
			// +2: the structure constructor registers a thread of its own,
			// and leave one spare for ad-hoc inspection.
			MaxThreads: cfg.MaxSessions + 2,
			Dir:        dir,
			SyncFence:  cfg.SyncFence,
			FS:         cfg.FS,
		})
		set, err := core.NewSet(cfg.Kind, mem, cfg.Policy, params)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		e.shards[i] = engineShard{mem: mem, set: set}
	}
	return e, nil
}

// Durable reports whether the engine is file-backed (Config.Dir was set).
func (e *Engine) Durable() bool { return e.cfg.Dir != "" }

// DurableErr reports the first shard's sticky durable-backend damage, or
// nil if every shard is healthy. A non-nil result is permanent for the
// life of the process: the engine must stop acknowledging writes (see
// pmem.Memory.DurableErr).
func (e *Engine) DurableErr() error {
	for i := range e.shards {
		if err := e.shards[i].mem.DurableErr(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// RecoverFiles loads every shard's checkpoint and replays its WAL, in
// parallel (the per-shard files are independent). It must run after New
// and before any session touches a file-backed engine; on a non-durable
// engine it is a no-op. The returned stats aggregate all shards
// (ReplayStats.Elapsed keeps the slowest shard — replay is parallel, so
// the wall-clock cost is the maximum, not the sum).
func (e *Engine) RecoverFiles() (pmem.ReplayStats, error) {
	if !e.Durable() {
		return pmem.ReplayStats{}, nil
	}
	stats := make([]pmem.ReplayStats, len(e.shards))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = e.shards[i].mem.RecoverFiles()
		}(i)
	}
	wg.Wait()
	var total pmem.ReplayStats
	for i := range e.shards {
		if errs[i] != nil {
			return total, fmt.Errorf("shard %d: %w", i, errs[i])
		}
		total.Add(stats[i])
	}
	return total, nil
}

// Boot reports shard 0's durable boot counter (0 on a non-durable
// engine). Every shard's boot advances in lockstep — RecoverFiles bumps
// them all on the same open — so shard 0 stands for the engine: one
// value uniquely naming this process lifetime of the data directory,
// which replication uses as the primary's run identity.
func (e *Engine) Boot() uint64 {
	if len(e.shards) == 0 || !e.Durable() {
		return 0
	}
	boot, _ := e.shards[0].mem.Watermark()
	return boot
}

// ReplayStats re-reports the aggregate of the last RecoverFiles.
func (e *Engine) ReplayStats() pmem.ReplayStats {
	var total pmem.ReplayStats
	for i := range e.shards {
		total.Add(e.shards[i].mem.ReplayStats())
	}
	return total
}

// Checkpoint snapshots every shard and truncates its WAL (see
// pmem.Memory.Checkpoint). Shards checkpoint in parallel; the first error
// wins, but every shard is attempted — a failed checkpoint leaves that
// shard on its old generation, still recoverable.
func (e *Engine) Checkpoint() error {
	if !e.Durable() {
		return nil
	}
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.shards[i].mem.Checkpoint()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Close flushes and closes every shard's files. The engine must be
// quiescent. Safe on non-durable engines and safe to call twice.
func (e *Engine) Close() error {
	var first error
	for i := range e.shards {
		if err := e.shards[i].mem.Close(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// NumShards reports the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Kind reports the per-shard structure kind.
func (e *Engine) Kind() core.Kind { return e.cfg.Kind }

// ShardMemory returns shard i's memory (tests, per-shard inspection).
func (e *Engine) ShardMemory(i int) *pmem.Memory { return e.shards[i].mem }

// ShardSet returns shard i's structure (tests, per-shard inspection).
func (e *Engine) ShardSet(i int) core.Set { return e.shards[i].set }

// mix is the splitmix64 finalizer: full-avalanche, so consecutive keys
// spread across shards.
func mix(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	return k ^ (k >> 31)
}

// ShardFor maps a key to its shard (deterministic across restarts).
func (e *Engine) ShardFor(key uint64) int {
	if len(e.shards) == 1 {
		return 0
	}
	// fastrange on the mixed high word: uniform without division.
	return int((mix(key) >> 32) * uint64(len(e.shards)) >> 32)
}

// Stats aggregates the per-shard memory statistics.
type Stats struct {
	Total    pmem.Stats
	PerShard []pmem.Stats
}

// Stats sums every shard's per-thread counters.
func (e *Engine) Stats() Stats {
	s := Stats{PerShard: make([]pmem.Stats, len(e.shards))}
	for i := range e.shards {
		st := e.shards[i].mem.Stats()
		s.PerShard[i] = st
		s.Total.Add(st)
	}
	return s
}

// ResetStats clears every shard's counters. Call it only while no
// session is mid-operation (see pmem.Memory.ResetStats).
func (e *Engine) ResetStats() {
	for i := range e.shards {
		e.shards[i].mem.ResetStats()
	}
}

// PersistAll declares every shard's current contents fully persistent
// (tracked engines; the pre-history baseline of a crash test).
func (e *Engine) PersistAll() {
	for i := range e.shards {
		e.shards[i].mem.PersistAll()
	}
}

// Crash raises the crash flag on every shard: a whole-machine power
// failure. Workers must be joined before FinishCrash.
func (e *Engine) Crash() {
	for i := range e.shards {
		e.shards[i].mem.Crash()
	}
}

// FinishCrash rolls every shard back to its persisted state, with
// per-shard derived seeds for the eviction lottery.
func (e *Engine) FinishCrash(evictProb float64, seed int64) {
	for i := range e.shards {
		e.shards[i].mem.FinishCrash(evictProb, seed+int64(i)*1000003)
	}
}

// Restart lowers every shard's crash flag.
func (e *Engine) Restart() {
	for i := range e.shards {
		e.shards[i].mem.Restart()
	}
}

// Recover runs every shard's recovery procedure in parallel, using the
// session's per-shard threads. Run it after Restart, before any other
// operation; the session must not be used concurrently.
func (e *Engine) Recover(s *Session) {
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e.shards[i].set.Recover(s.th[i])
		}(i)
	}
	wg.Wait()
}

// Contents returns every present key across all shards (quiescent use).
func (e *Engine) Contents(s *Session) []uint64 {
	var out []uint64
	for i := range e.shards {
		out = append(out, e.shards[i].set.Contents(s.th[i])...)
	}
	return out
}

// Validate runs every shard's structural self-check.
func (e *Engine) Validate(s *Session) error {
	for i := range e.shards {
		if v, ok := e.shards[i].set.(core.Validator); ok {
			if err := v.Validate(s.th[i]); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
	}
	return nil
}

// OpKind names a Session operation.
type OpKind uint8

// The engine's operation vocabulary. OpPut is an atomic upsert; OpInsert
// and OpDelete keep the underlying structures' set semantics (fail if
// present/absent), which is what the crash-test checker models. OpUpdate
// is the atomic read-modify-write (Op.Fn, or "set to Op.Value if present"
// when Fn is nil); OpScan counts the keys of [Op.Key, Op.Hi] across all
// shards.
const (
	OpGet OpKind = iota
	OpPut
	OpInsert
	OpDelete
	OpUpdate
	OpScan
)

// Op is one operation of a batch.
type Op struct {
	Kind       OpKind
	Key, Value uint64
	// Hi is OpScan's inclusive upper bound ([Key, Hi]).
	Hi uint64
	// Fn is OpUpdate's transform over the present value. A nil Fn makes
	// OpUpdate a conditional overwrite: set to Value if the key is present.
	Fn func(old uint64) uint64
}

// OpResult is the outcome of one batch operation: the value for gets, and
// whether the operation succeeded (found / inserted / deleted).
type OpResult struct {
	Value uint64
	OK    bool
}

// Session is a per-goroutine handle on the engine, carrying one
// pmem.Thread per shard. A Session must be used by one goroutine at a
// time.
type Session struct {
	eng      *Engine
	th       []*pmem.Thread
	groups   [][]int    // scratch: batch op indexes grouped per shard
	scanIdxs []int      // scratch: batch op indexes holding scans
	bufs     [][]kvPair // scratch: per-shard scan cursor chunks
	heads    []int      // scratch: per-shard merge positions in bufs
}

// kvPair is one buffered scan result during a merged engine scan.
type kvPair struct {
	key, value uint64
}

// scanChunk is the number of pairs a merged scan buffers per shard: a
// refill is one RangeScan that stops after scanChunk keys, so a scan whose
// fn stops early has copied at most shards × scanChunk pairs.
const scanChunk = 64

// NewSession registers a session (one thread on every shard's memory).
func (e *Engine) NewSession() *Session {
	s := &Session{
		eng:    e,
		th:     make([]*pmem.Thread, len(e.shards)),
		groups: make([][]int, len(e.shards)),
	}
	for i := range e.shards {
		s.th[i] = e.shards[i].mem.NewThread()
	}
	return s
}

// Thread returns the session's thread on shard i.
func (s *Session) Thread(i int) *pmem.Thread { return s.th[i] }

// Rand returns a value from the session's per-goroutine RNG.
func (s *Session) Rand() uint64 { return s.th[0].Rand() }

// Get looks up a key.
func (s *Session) Get(key uint64) (uint64, bool) {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.Find(s.th[i], key)
}

// Insert adds key with value; false if the key is already present.
func (s *Session) Insert(key, value uint64) bool {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.Insert(s.th[i], key, value)
}

// Delete removes a key; false if absent.
func (s *Session) Delete(key uint64) bool {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.Delete(s.th[i], key)
}

// Put upserts atomically (core.Upsert): afterwards the key maps to value.
func (s *Session) Put(key, value uint64) {
	i := s.eng.ShardFor(key)
	core.Upsert(s.eng.shards[i].set, s.th[i], key, value)
}

// Update atomically read-modify-writes key's value on its shard; see
// core.Set.Update for the contract.
func (s *Session) Update(key uint64, fn func(old uint64) uint64) (uint64, bool) {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.Update(s.th[i], key, fn)
}

// GetOrInsert atomically returns the present value of key or inserts value.
func (s *Session) GetOrInsert(key, value uint64) (v uint64, inserted bool) {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.GetOrInsert(s.th[i], key, value)
}

// Scan visits every present key in [lo, hi] ascending across all shards,
// calling fn(key, value) until fn returns false or the range is exhausted.
// Keys are hash-partitioned, so each shard's RangeScan yields an ordered
// disjoint stream; the session k-way merges them into one globally ordered
// sequence. Each shard is read through a cursor of scanChunk pairs that
// refills by RangeScan from just past its last key, so the work is bounded
// by what fn consumes, not by the width of [lo, hi]. One shard scans its
// structure directly. Returns core.ErrUnordered when the engine's kind has
// no key order.
func (s *Session) Scan(lo, hi uint64, fn func(key, value uint64) bool) error {
	e := s.eng
	if len(e.shards) == 1 {
		return e.shards[0].set.RangeScan(s.th[0], lo, hi, fn)
	}
	if s.bufs == nil {
		s.bufs = make([][]kvPair, len(e.shards))
		s.heads = make([]int, len(e.shards))
	}
	for i := range e.shards {
		if err := s.refill(i, lo, hi); err != nil {
			return err
		}
	}
	for {
		best := -1
		var bestKey uint64
		for i := range s.bufs {
			if buf := s.bufs[i]; s.heads[i] == len(buf) {
				// A short chunk, or one that reached hi, ended the shard.
				n := len(buf)
				if n < scanChunk || buf[n-1].key >= hi {
					continue
				}
				if err := s.refill(i, buf[n-1].key+1, hi); err != nil {
					return err
				}
				if len(s.bufs[i]) == 0 {
					continue
				}
			}
			if k := s.bufs[i][s.heads[i]].key; best < 0 || k < bestKey {
				best, bestKey = i, k
			}
		}
		if best < 0 {
			return nil
		}
		p := s.bufs[best][s.heads[best]]
		s.heads[best]++
		if !fn(p.key, p.value) {
			return nil
		}
	}
}

// refill replaces shard i's cursor chunk with the first scanChunk pairs of
// [lo, hi] on that shard.
func (s *Session) refill(i int, lo, hi uint64) error {
	buf := s.bufs[i][:0]
	err := s.eng.shards[i].set.RangeScan(s.th[i], lo, hi, func(k, v uint64) bool {
		buf = append(buf, kvPair{k, v})
		return len(buf) < scanChunk
	})
	s.bufs[i], s.heads[i] = buf, 0
	return err
}

func (s *Session) exec(i int, op Op) OpResult {
	set, th := s.eng.shards[i].set, s.th[i]
	switch op.Kind {
	case OpGet:
		v, ok := set.Find(th, op.Key)
		return OpResult{Value: v, OK: ok}
	case OpInsert:
		return OpResult{Value: op.Value, OK: set.Insert(th, op.Key, op.Value)}
	case OpDelete:
		return OpResult{OK: set.Delete(th, op.Key)}
	case OpUpdate:
		nv, ok := core.ApplyUpdate(set, th, op.Key, op.Fn, op.Value)
		return OpResult{Value: nv, OK: ok}
	default: // OpPut
		core.Upsert(set, th, op.Key, op.Value)
		return OpResult{Value: op.Value, OK: true}
	}
}

// Apply executes a batch: keyed operations are grouped by shard and each
// shard group runs inside BeginBatch/EndBatch, so the whole group shares
// one commit fence instead of fencing per operation. OpScan operations
// touch every shard, so they run up front through Session.Scan (their
// OpResult carries the number of keys in [Key, Hi] and OK reports scan
// support). Results are positionally aligned with ops (dst is reused when
// it has capacity). The batch is durable when Apply returns; a crash
// during Apply may leave any subset of the batch's individual operations
// applied.
func (s *Session) Apply(ops []Op, dst []OpResult) []OpResult {
	return s.ApplyCommitted(ops, dst, nil)
}

// ApplyCommitted executes a batch like Apply, additionally invoking
// committed(idxs, err) the moment the results at those batch indexes become
// safe to acknowledge: once per shard group, immediately after the group's
// commit fence lands, and once for the batch's scans (reads need no fence).
// This is the asynchronous submission surface the group-commit batcher
// builds on — a caller multiplexing requests from many clients can release
// each request as its shard group commits instead of holding every reply
// until the whole batch returns. A non-nil err reports that the group's
// commit fence could not be made durable (the shard's backend latched a
// sticky write/fsync failure, see Engine.DurableErr): the results at idxs
// MUST NOT be acknowledged as durable. Scans always pass a nil err. idxs
// aliases internal scratch: it is valid only during the callback. A nil
// committed makes ApplyCommitted exactly Apply.
func (s *Session) ApplyCommitted(ops []Op, dst []OpResult, committed func(idxs []int, err error)) []OpResult {
	if cap(dst) < len(ops) {
		dst = make([]OpResult, len(ops))
	}
	dst = dst[:len(ops)]
	for i := range s.groups {
		s.groups[i] = s.groups[i][:0]
	}
	s.scanIdxs = s.scanIdxs[:0]
	for i := range ops {
		if ops[i].Kind == OpScan {
			var count uint64
			err := s.Scan(ops[i].Key, ops[i].Hi, func(uint64, uint64) bool {
				count++
				return true
			})
			dst[i] = OpResult{Value: count, OK: err == nil}
			s.scanIdxs = append(s.scanIdxs, i)
			continue
		}
		sh := s.eng.ShardFor(ops[i].Key)
		s.groups[sh] = append(s.groups[sh], i)
	}
	if committed != nil && len(s.scanIdxs) > 0 {
		committed(s.scanIdxs, nil)
	}
	for sh := range s.groups {
		g := s.groups[sh]
		if len(g) == 0 {
			continue
		}
		th := s.th[sh]
		th.BeginBatch()
		for _, i := range g {
			dst[i] = s.exec(sh, ops[i])
		}
		th.EndBatch()
		// The group's commit fence lands after its last operation's CountOp,
		// so publish here: acknowledgement time is a stats observation point
		// (the batcher's fence-accounting tests read Stats at batch
		// boundaries).
		th.PublishStats()
		if committed != nil {
			// The fence has landed in process memory either way; whether it
			// also landed on disk is the backend's damage latch — checked
			// here, after EndBatch, so the verdict covers this group's flush.
			committed(g, th.DurableErr())
		}
	}
	return dst
}

// MultiGet batch-reads keys, one commit fence per shard group. The results
// align with keys; dst is reused when it has capacity.
func (s *Session) MultiGet(keys []uint64, dst []OpResult) []OpResult {
	if cap(dst) < len(keys) {
		dst = make([]OpResult, len(keys))
	}
	dst = dst[:len(keys)]
	for i := range s.groups {
		s.groups[i] = s.groups[i][:0]
	}
	for i, k := range keys {
		sh := s.eng.ShardFor(k)
		s.groups[sh] = append(s.groups[sh], i)
	}
	for sh := range s.groups {
		g := s.groups[sh]
		if len(g) == 0 {
			continue
		}
		th := s.th[sh]
		th.BeginBatch()
		for _, i := range g {
			v, ok := s.eng.shards[sh].set.Find(th, keys[i])
			dst[i] = OpResult{Value: v, OK: ok}
		}
		th.EndBatch()
	}
	return dst
}
