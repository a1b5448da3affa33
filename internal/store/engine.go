package store

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/pmem"
)

type engineShard struct {
	mem *pmem.Memory
	set core.Set
}

// Engine is the hash-sharded store: N independent (pmem.Memory, core.Set)
// shards, each its own persistence domain with its own arena and epoch
// domain, so shards share no cache lines and no fences. Open is its only
// constructor.
type Engine struct {
	kind      core.Kind
	durable   bool
	shards    []engineShard
	admin     *session // Recover and Validate (quiescent use)
	replay    pmem.ReplayStats
	ckptBytes int64
	waitK     int
	replFn    atomic.Pointer[func() ReplStats] // see SetReplSource
}

// Interface conformance: the engine is a Store and its session a Session.
var (
	_ Store   = (*Engine)(nil)
	_ Session = (*session)(nil)
)

// newEngine builds cfg.Shards shards on fresh memories. Construction does
// no file IO: a durable engine's files are opened by recoverFiles. cfg
// carries Open's defaults; SizeHint and Buckets are engine-wide and split
// over the shards here.
func newEngine(cfg Config) (*Engine, error) {
	params := core.Params{SizeHint: cfg.SizeHint, Buckets: cfg.Buckets}
	if params.SizeHint > 0 {
		params.SizeHint = max(params.SizeHint/cfg.Shards, 64)
	}
	if params.Buckets > 0 {
		params.Buckets = max(params.Buckets/cfg.Shards, 64)
	}
	e := &Engine{kind: cfg.Kind, durable: cfg.Dir != "", shards: make([]engineShard, cfg.Shards),
		ckptBytes: cfg.CkptBytes, waitK: cfg.WaitReplicas}
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

// recoverFiles loads every shard's checkpoint and replays its WAL, in
// parallel (the per-shard files are independent). The returned stats
// aggregate all shards (Elapsed keeps the slowest shard — replay is
// parallel, so the wall-clock cost is the maximum, not the sum).
func (e *Engine) recoverFiles() (total pmem.ReplayStats, err error) {
	stats := make([]pmem.ReplayStats, len(e.shards))
	err = e.inParallel(func(i int) (err error) {
		stats[i], err = e.shards[i].mem.RecoverFiles()
		return err
	})
	for _, st := range stats {
		total.Add(st)
	}
	return total, err
}

// inParallel runs fn for every shard at once and returns the lowest
// failing shard's error.
func (e *Engine) inParallel(fn func(i int) error) error {
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return e.each(func(i int) error { return errs[i] })
}

// each runs fn for every shard in turn and returns the first error,
// naming its shard; every shard runs either way.
func (e *Engine) each(fn func(i int) error) error {
	var first error
	for i := range e.shards {
		if err := fn(i); err != nil && first == nil {
			first = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return first
}

// eachMem calls fn on every shard's memory.
func (e *Engine) eachMem(fn func(*pmem.Memory)) {
	for i := range e.shards {
		fn(e.shards[i].mem)
	}
}

// NewSession registers a session (one thread on every shard's memory).
func (e *Engine) NewSession() Session { return e.newSession() }

func (e *Engine) newSession() *session {
	s := &session{
		eng:    e,
		th:     make([]*pmem.Thread, len(e.shards)),
		groups: make([][]int, len(e.shards)),
	}
	for i := range e.shards {
		s.th[i] = e.shards[i].mem.NewThread()
	}
	return s
}

// The Engine methods without a comment of their own implement Store as
// its interface documents.
func (e *Engine) Kind() core.Kind               { return e.kind }
func (e *Engine) Shards() int                   { return len(e.shards) }
func (e *Engine) Ordered() bool                 { return core.Ordered(e.kind) }
func (e *Engine) Durable() bool                 { return e.durable }
func (e *Engine) ReplayStats() pmem.ReplayStats { return e.replay }

// Repl reports the attached source's figures, or the zero value until the
// repl package attaches one; either way with the configured quorum.
func (e *Engine) Repl() ReplStats {
	var st ReplStats
	if fn := e.replFn.Load(); fn != nil {
		st = (*fn)()
	}
	if st.WaitReplicas == 0 {
		st.WaitReplicas = e.waitK
	}
	return st
}

// SetReplSource attaches a live replication stats source (internal/repl).
func (e *Engine) SetReplSource(fn func() ReplStats) { e.replFn.Store(&fn) }

// DurableErr reports the first shard's sticky durable-backend damage, or
// nil if every shard is healthy.
func (e *Engine) DurableErr() error {
	return e.each(func(i int) error { return e.shards[i].mem.DurableErr() })
}

// Boot reports shard 0's durable boot counter. Every shard's boot
// advances in lockstep — recoverFiles bumps them all on the same open — so
// shard 0 stands for the engine.
func (e *Engine) Boot() uint64 {
	boot, _ := e.shards[0].mem.Watermark()
	return boot
}

// Checkpoint checkpoints the shards in parallel; the first error wins, but
// every shard is attempted — a failed checkpoint leaves that shard on its
// old generation, still recoverable.
func (e *Engine) Checkpoint() error {
	if !e.durable {
		return nil
	}
	return e.inParallel(func(i int) error { return e.shards[i].mem.Checkpoint() })
}

func (e *Engine) MaybeCheckpoint() (int, error) {
	if e.ckptBytes <= 0 {
		return 0, nil
	}
	ran := 0
	for i := range e.shards {
		ok, err := e.shards[i].mem.CheckpointIfOver(e.ckptBytes)
		if ok {
			ran++
		}
		if err != nil {
			return ran, err
		}
	}
	return ran, nil
}

// Close closes every shard's files; the first error wins.
func (e *Engine) Close() error {
	return e.each(func(i int) error { return e.shards[i].mem.Close() })
}

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

// Stats sums every shard's per-thread counters.
func (e *Engine) Stats() (total pmem.Stats) {
	e.eachMem(func(m *pmem.Memory) { total.Add(m.Stats()) })
	return total
}

func (e *Engine) ResetStats() { e.eachMem((*pmem.Memory).ResetStats) }

// PersistAll declares every shard's current contents fully persistent
// (tracked engines; the pre-history baseline of a crash test).
func (e *Engine) PersistAll() { e.eachMem((*pmem.Memory).PersistAll) }

// Crash raises the crash flag on every shard: a whole-machine power
// failure. Workers must be joined before FinishCrash.
func (e *Engine) Crash() { e.eachMem((*pmem.Memory).Crash) }

// FinishCrash rolls every shard back to its persisted state, with
// per-shard derived seeds for the eviction lottery.
func (e *Engine) FinishCrash(evictProb float64, seed int64) {
	for i := range e.shards {
		e.shards[i].mem.FinishCrash(evictProb, seed+int64(i)*1000003)
	}
}

// Restart lowers every shard's crash flag.
func (e *Engine) Restart() { e.eachMem((*pmem.Memory).Restart) }

// Recover runs every shard's recovery procedure in parallel.
func (e *Engine) Recover() {
	e.inParallel(func(i int) error {
		e.shards[i].set.Recover(e.admin.th[i])
		return nil
	})
}

// Validate runs every shard's structural self-check and the
// shard-isolation check: every present key lives on the shard it hashes
// to. Quiescent use only.
func (e *Engine) Validate() error {
	return e.each(func(i int) error {
		th := e.admin.th[i]
		if v, ok := e.shards[i].set.(core.Validator); ok {
			if err := v.Validate(th); err != nil {
				return err
			}
		}
		for _, k := range e.shards[i].set.Contents(th) {
			if j := e.ShardFor(k); j != i {
				return fmt.Errorf("key %d hashes to shard %d", k, j)
			}
		}
		return nil
	})
}

// session is the engine's Session, carrying one pmem.Thread per shard.
type session struct {
	eng      *Engine
	th       []*pmem.Thread
	groups   [][]int    // scratch: batch op indexes grouped per shard
	scanIdxs []int      // scratch: batch op indexes holding scans
	bufs     [][]kvPair // scratch: per-shard scan cursor chunks
	heads    []int      // scratch: per-shard merge positions in bufs
	wants    []int      // scratch: per-shard size of the next chunk
}

// kvPair is one buffered scan result during a merged engine scan.
type kvPair struct {
	key, value uint64
}

// scanChunk is the number of pairs a merged scan first buffers per shard:
// a refill is one RangeScan that stops after its chunk's worth of keys, so
// a scan whose fn stops within the first chunks has copied at most
// shards × scanChunk pairs. Each later refill of a shard asks for twice
// the pairs of its last, up to maxScanChunk, so a scan that runs to the
// end of n keys costs O(shards · log(n/scanChunk)) RangeScans — each of
// which pays its own descent and fences — while one that stops after r
// keys has still buffered only O(r + shards × scanChunk) pairs.
const (
	scanChunk    = 64
	maxScanChunk = 1 << 16
)

func (s *session) Rand() uint64 { return s.th[0].Rand() }

func (s *session) Get(key uint64) (uint64, bool) {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.Find(s.th[i], key)
}

func (s *session) Insert(key, value uint64) bool {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.Insert(s.th[i], key, value)
}

func (s *session) Delete(key uint64) bool {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.Delete(s.th[i], key)
}

func (s *session) Put(key, value uint64) {
	i := s.eng.ShardFor(key)
	core.Upsert(s.eng.shards[i].set, s.th[i], key, value)
}

func (s *session) Update(key uint64, fn func(old uint64) uint64) (uint64, bool) {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.Update(s.th[i], key, fn)
}

func (s *session) GetOrInsert(key, value uint64) (v uint64, inserted bool) {
	i := s.eng.ShardFor(key)
	return s.eng.shards[i].set.GetOrInsert(s.th[i], key, value)
}

// Scan k-way merges the shards' ordered streams: keys are
// hash-partitioned, so each shard's RangeScan yields an ordered disjoint
// stream. Each shard is read through a cursor chunk that refills by
// RangeScan from just past its last key, scanChunk pairs first and twice
// as many each refill after (see scanChunk), so the work is bounded by
// what fn consumes, not by the width of [lo, hi]. One shard scans its
// structure directly; an unordered kind's shards scan one after another.
func (s *session) Scan(lo, hi uint64, fn func(key, value uint64) bool) error {
	e := s.eng
	if len(e.shards) == 1 {
		return e.shards[0].set.RangeScan(s.th[0], lo, hi, fn)
	}
	if !e.Ordered() {
		more := true
		visit := func(k, v uint64) bool { more = fn(k, v); return more }
		for i := 0; i < len(e.shards) && more; i++ {
			if err := e.shards[i].set.RangeScan(s.th[i], lo, hi, visit); err != nil {
				return err
			}
		}
		return nil
	}
	if s.bufs == nil {
		s.bufs = make([][]kvPair, len(e.shards))
		s.heads = make([]int, len(e.shards))
		s.wants = make([]int, len(e.shards))
	}
	for i := range e.shards {
		s.wants[i] = scanChunk
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
				if n < s.wants[i] || buf[n-1].key >= hi {
					continue
				}
				s.wants[i] = min(2*s.wants[i], maxScanChunk)
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

// refill replaces shard i's cursor chunk with the first s.wants[i] pairs
// of [lo, hi] on that shard.
func (s *session) refill(i int, lo, hi uint64) error {
	buf, want := s.bufs[i][:0], s.wants[i]
	err := s.eng.shards[i].set.RangeScan(s.th[i], lo, hi, func(k, v uint64) bool {
		buf = append(buf, kvPair{k, v})
		return len(buf) < want
	})
	s.bufs[i], s.heads[i] = buf, 0
	return err
}

func (s *session) exec(i int, op Op) OpResult {
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

func (s *session) Apply(ops []Op, dst []OpResult) []OpResult {
	return s.ApplyCommitted(ops, dst, nil)
}

// ApplyCommitted groups keyed operations by shard and runs each shard
// group inside BeginBatch/EndBatch, so the whole group shares one commit
// fence instead of fencing per operation (see pmem.Thread.CommitFence for
// why only that fence may be deferred). OpScan operations touch every
// shard, so they run up front through Scan (their OpResult carries the
// number of keys in [Key, Hi] and OK reports scan support). A crash during
// the call may leave any subset of the batch's individual operations
// applied, each fully or not at all.
func (s *session) ApplyCommitted(ops []Op, dst []OpResult, committed func(idxs []int, err error)) []OpResult {
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

// MultiGet reads with one commit fence per shard group.
func (s *session) MultiGet(keys []uint64, dst []OpResult) []OpResult {
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
