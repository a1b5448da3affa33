// Package batcher is the group-commit stage between a network front end
// and a store.Store: writes submitted by many connections are applied in
// batches through ApplyCommitted, so the commit fence that durable
// linearizability demands before every acknowledgement is paid once per
// shard group per flush instead of once per request — the same amortization
// store.Session.Apply performs for one caller's batch, extended across
// callers.
//
// Pool is that stage, and the only one. It runs one worker per shard group,
// each owning its own store session and a bounded ring (a buffered channel
// of by-value requests — no allocation per submission); Submit routes an
// operation by its key's shard straight to the session that owns it, with
// no central queue and no shared pending list.
//
// There is one batching rule and no clock in it: a worker takes what its
// ring holds, capped at MaxBatch, and flushes it now. A request that finds
// the worker idle is applied and fenced at once and pays exactly its own
// apply and one commit fence; requests that arrive while a flush is running
// queue behind it and ride the next flush together. The previous flush —
// the fsync itself on a -sync store — is the only batching window, so
// batches grow exactly as fast as commits get slow, and nothing ever waits
// for company that may not come.
//
// Correctness is the reply-after-fence rule: a request's Completer runs
// only after the commit fence covering its operation has landed
// (ApplyCommitted fires per fence group), so a reply implies durability — a
// crash can only lose requests that were never acknowledged. A worker
// applies its ring in FIFO order, so requests on one key are applied in the
// order they were submitted. Read-your-writes across workers is the
// caller's (the server connection's) WaitGroup over all its outstanding
// submissions, which is worker-agnostic: a completion from any worker
// counts it down. After every flush a worker probes the store's automatic
// checkpoint threshold (MaybeCheckpoint), so on durable stores the WAL
// stays bounded under live traffic with no background ticker.
package batcher

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/pmem"
	"repro/internal/store"
)

// Errors a Completer may receive.
var (
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("batcher: closed")
	// ErrCrashed completes requests whose covering fence never landed
	// because the memory crashed: the request was not acknowledged and may
	// or may not have taken effect (in-flight under durable linearizability).
	ErrCrashed = errors.New("batcher: store crashed before commit")
	// ErrDegraded completes writes whose commit fence could not be made
	// durable: the store's disk backend latched a sticky write/fsync
	// failure (see store.Store.DurableErr). The write was not acknowledged
	// and must be treated as lost — it may be in process memory but is not
	// on disk, and only what recovery replays after a restart survives.
	// The condition is permanent for the process: every later write fails
	// the same way, while reads keep completing normally.
	ErrDegraded = errors.New("batcher: store degraded, write not durable")
)

// isReadOp reports whether op needs no durability to acknowledge. Reads
// keep serving on a degraded store; everything else is a write whose
// acknowledgement would promise durability the disk can no longer provide.
func isReadOp(op store.Op) bool {
	return op.Kind == store.OpGet || op.Kind == store.OpScan
}

// Stats counts pool activity (monotone, read with atomic snapshots).
type Stats struct {
	// Ops is the number of requests applied.
	Ops uint64
	// Flushes is the number of batches applied.
	Flushes uint64
	// Groups is the number of completion groups (one per shard fence group
	// per flush, plus one per flush that carried scans).
	Groups uint64
}

// Completer receives a submitted operation's completion exactly once: after
// the commit fence covering the operation landed, or with ErrClosed /
// ErrCrashed when it never will. Implementations must be quick and must not
// call back into the pool; Complete normally runs on a worker goroutine but
// runs on the submitter's goroutine when the pool is already closed or
// crashed at Submit time. The interface (rather than a callback func) is
// what keeps the submit path allocation-free: callers hand in a reusable
// object, not a fresh closure.
type Completer interface {
	Complete(res store.OpResult, err error)
}

// GroupSink observes every durably committed fence group, called on the
// worker goroutine right after the group's commit fence landed and before
// any of the group's completions fire — the same instant the WAL covering
// the group is on disk, which is what makes it the replication stream's
// commit point. ops, res and idxs alias worker scratch and are valid only
// during the call; a sink that needs them later must copy. cs holds the
// group's completers parallel to ops.
//
// CommittedGroup returns true to take ownership of the group's WRITE
// completions (reply-after-replication): the pool then completes only the
// group's reads, and the sink must eventually call Complete exactly once
// on every cs[i] whose ops[i] is a write, with res[i] on success or a
// typed error when replication could not confirm the group. Returning
// false leaves completion with the pool (reply-after-fence, as without a
// sink). Groups whose fence failed (degraded path) never reach the sink.
type GroupSink interface {
	CommittedGroup(ops []store.Op, res []store.OpResult, idxs []int, cs []Completer) bool
}

// PoolConfig tunes the worker pool.
type PoolConfig struct {
	// Workers is the number of shard-affine workers (default: the store's
	// shard count, at least 1). Each owns one session; keys route to
	// workers by shard, so more workers than shards gains nothing.
	Workers int
	// Ring is each worker's bounded ring capacity (default 1024). A full
	// ring applies backpressure: Submit blocks until the worker drains.
	Ring int
	// MaxBatch caps one flush (default 64). Batches form from ring backlog
	// only: a flush takes what queued while the previous one ran.
	MaxBatch int
	// OnCommit, when non-nil, observes every durable fence group at its
	// commit point and may defer the group's write acknowledgements until
	// replication confirms it (see GroupSink). The replication primary
	// (internal/repl) is the production sink.
	OnCommit GroupSink
}

// poolReq is one submitted operation in a worker's ring, held by value.
type poolReq struct {
	op store.Op
	c  Completer
}

// poolWorker owns one store session and one ring.
type poolWorker struct {
	p    *Pool
	sess store.Session
	ring chan poolReq

	// Flush scratch, reused across batches; committedFn and flushFn are
	// built once so a flush allocates nothing.
	reqs        []poolReq
	ops         []store.Op
	dst         []store.OpResult
	cs          []Completer
	committedFn func(idxs []int, err error)
	flushFn     func()
	crashed     bool
}

// Pool is the shard-affine group-commit stage. Submit from any goroutine.
type Pool struct {
	st  store.Store // nil when built over explicit sessions
	cfg PoolConfig

	// shardFor routes keys to workers (modulo the worker count); nil routes
	// everything to worker 0.
	shardFor func(key uint64) int

	workers []*poolWorker
	wg      sync.WaitGroup

	// mu guards closed against the rings closing: Submit sends while
	// holding the read side, Close flips closed under the write side before
	// closing any ring, so a send on a closed ring is impossible.
	mu      sync.RWMutex
	closed  bool
	crashed atomic.Bool

	ops     atomic.Uint64
	flushes atomic.Uint64
	groups  atomic.Uint64
	ckptErr atomic.Pointer[error]

	// degraded latches the first non-durable group commit (wrapped in
	// ErrDegraded) and never clears: writes fail fast from then on while
	// reads keep flowing (see ErrDegraded).
	degraded atomic.Pointer[error]
}

// NewPool starts a pool over st with one new session per worker.
func NewPool(st store.Store, cfg PoolConfig) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = st.Shards()
	}
	sessions := make([]store.Session, cfg.Workers)
	for i := range sessions {
		sessions[i] = st.NewSession()
	}
	return newPool(st, sessions, cfg)
}

// NewSessionPool starts a single-worker pool that owns sess — the
// session-injection constructor tests use to pair the pool with a stub
// session. The caller must not use sess afterwards.
func NewSessionPool(sess store.Session, cfg PoolConfig) *Pool {
	cfg.Workers = 1
	return newPool(nil, []store.Session{sess}, cfg)
}

// NewSessionsPool starts one worker per provided session, routing key k to
// worker shardFor(k) % len(sessions) (nil shardFor routes everything to
// worker 0). Test seam for multi-worker ordering scenarios over stub
// sessions; NewPool is the production constructor.
func NewSessionsPool(sessions []store.Session, shardFor func(key uint64) int, cfg PoolConfig) *Pool {
	cfg.Workers = len(sessions)
	p := newPool(nil, sessions, cfg)
	p.shardFor = shardFor
	return p
}

func newPool(st store.Store, sessions []store.Session, cfg PoolConfig) *Pool {
	if cfg.Ring <= 0 {
		cfg.Ring = 1024
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	p := &Pool{st: st, cfg: cfg}
	if st != nil {
		p.shardFor = st.ShardFor
	}
	for _, sess := range sessions {
		w := &poolWorker{
			p:    p,
			sess: sess,
			ring: make(chan poolReq, cfg.Ring),
		}
		p.workers = append(p.workers, w)
		p.wg.Add(1)
		go w.run()
	}
	return p
}

// Workers reports the worker count.
func (p *Pool) Workers() int { return len(p.workers) }

// Submit enqueues one operation onto its key's shard-affine worker ring,
// blocking when the ring is full (bounded-queue backpressure). c.Complete
// runs exactly once; see Completer for where.
func (p *Pool) Submit(op store.Op, c Completer) {
	if err := p.DegradedErr(); err != nil && !isReadOp(op) {
		// Fail-fast for writes on a degraded store; reads still ride the
		// workers — a degraded store keeps serving them.
		c.Complete(store.OpResult{}, err)
		return
	}
	p.mu.RLock()
	if p.closed || p.crashed.Load() {
		closed := p.closed
		p.mu.RUnlock()
		if closed {
			c.Complete(store.OpResult{}, ErrClosed)
		} else {
			c.Complete(store.OpResult{}, ErrCrashed)
		}
		return
	}
	w := p.workers[0]
	if len(p.workers) > 1 && p.shardFor != nil {
		w = p.workers[p.shardFor(op.Key)%len(p.workers)]
	}
	// The send happens under the read lock: Close cannot close the ring
	// before every in-flight Submit has released it. A blocked send drains
	// eventually — the worker consumes its ring until the ring closes, even
	// after a crash.
	w.ring <- poolReq{op: op, c: c}
	p.mu.RUnlock()
}

// Do submits op and blocks for its result (synchronous convenience).
func (p *Pool) Do(op store.Op) (store.OpResult, error) {
	d := &doCompleter{ch: make(chan struct{})}
	p.Submit(op, d)
	<-d.ch
	return d.res, d.err
}

type doCompleter struct {
	ch  chan struct{}
	res store.OpResult
	err error
}

func (d *doCompleter) Complete(res store.OpResult, err error) {
	d.res, d.err = res, err
	close(d.ch)
}

// Close flushes every worker's pending requests, stops the workers, and
// fails later submissions with ErrClosed. It returns once every worker has
// exited.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	for _, w := range p.workers {
		close(w.ring)
	}
	p.wg.Wait()
}

// Stats snapshots the activity counters, summed across workers.
func (p *Pool) Stats() Stats {
	return Stats{
		Ops:     p.ops.Load(),
		Flushes: p.flushes.Load(),
		Groups:  p.groups.Load(),
	}
}

// CheckpointErr reports the first error an automatic post-flush checkpoint
// returned (nil normally). The store remains consistent after a failed
// checkpoint — the old generation stays live — but the WAL is no longer
// being bounded, which the server surfaces at shutdown.
func (p *Pool) CheckpointErr() error {
	if e := p.ckptErr.Load(); e != nil {
		return *e
	}
	return nil
}

// DegradedErr reports the sticky degraded state: nil while every group
// commit has been durable, and the first ErrDegraded-wrapped failure
// forever after.
func (p *Pool) DegradedErr() error {
	if e := p.degraded.Load(); e != nil {
		return *e
	}
	return nil
}

// degrade latches err as the pool's permanent degraded state and returns
// the canonical wrapped error (first caller wins, so every completion
// carries the root cause).
func (p *Pool) degrade(err error) error {
	werr := fmt.Errorf("%w: %v", ErrDegraded, err)
	if p.degraded.CompareAndSwap(nil, &werr) {
		return werr
	}
	return *p.degraded.Load()
}

// run is one worker's loop: take the first request (blocking), take what
// else the ring already holds, flush, probe the checkpoint threshold.
// Whatever queued in the ring while the previous flush ran becomes the next
// batch, so a saturated worker batches naturally and an idle worker commits
// a lone request at once. After a crash the worker stays on the ring
// failing everything with ErrCrashed until Close, so submitters blocked on
// a full ring always make progress.
func (w *poolWorker) run() {
	defer w.p.wg.Done()
	for {
		r, ok := <-w.ring
		if !ok {
			return
		}
		if w.crashed {
			r.c.Complete(store.OpResult{}, ErrCrashed)
			continue
		}
		w.reqs = append(w.reqs[:0], r)
		w.drain()
		if !w.flush() {
			w.crashed = true
			w.p.crashed.Store(true)
			continue
		}
		if st := w.p.st; st != nil {
			if _, err := st.MaybeCheckpoint(); err != nil {
				// Copy before taking the address: &err directly would make
				// the variable escape and cost one allocation per flush even
				// on the nil path.
				e := err
				w.p.ckptErr.CompareAndSwap(nil, &e)
			}
		}
	}
}

// drain moves queued requests from the ring into the batch without
// blocking, up to MaxBatch. A ring closed mid-drain just ends the batch;
// the next blocking receive in run sees the close.
func (w *poolWorker) drain() {
	for len(w.reqs) < w.p.cfg.MaxBatch {
		select {
		case r, ok := <-w.ring:
			if !ok {
				return
			}
			w.reqs = append(w.reqs, r)
		default:
			return
		}
	}
}

// flush applies the worker's gathered batch through its own session and
// completes requests per fence group (reply-after-fence). Returns false
// when the memory crashed mid-batch: already-completed requests were
// acknowledged by fences that landed, the rest complete with ErrCrashed.
func (w *poolWorker) flush() bool {
	p := w.p
	ops := w.ops[:0]
	cs := w.cs[:0]
	for i := range w.reqs {
		ops = append(ops, w.reqs[i].op)
		cs = append(cs, w.reqs[i].c)
	}
	w.ops = ops
	w.cs = cs
	// Pre-size dst so ApplyCommitted cannot reallocate it out from under
	// the committed callback.
	if cap(w.dst) < len(ops) {
		w.dst = make([]store.OpResult, len(ops))
	}
	w.dst = w.dst[:len(ops)]
	if w.flushFn == nil {
		w.committedFn = func(idxs []int, err error) {
			w.p.groups.Add(1)
			var gerr error
			if err != nil {
				gerr = w.p.degrade(err)
			}
			gated := false
			if sink := w.p.cfg.OnCommit; sink != nil && gerr == nil {
				// The group's fence is down: hand it to the replication
				// sink. A true return moves the write acknowledgements to
				// the sink (reply-after-replication); reads never wait on
				// replication and complete below either way.
				gated = sink.CommittedGroup(w.ops, w.dst, idxs, w.cs)
			}
			for _, i := range idxs {
				c := w.reqs[i].c
				if c == nil {
					continue
				}
				if gated && !isReadOp(w.reqs[i].op) {
					// The sink owns this completion now.
					w.reqs[i].c = nil
					continue
				}
				w.reqs[i].c = nil
				if gerr != nil && !isReadOp(w.reqs[i].op) {
					// The group's fence did not reach the disk: withhold
					// the acknowledgement. Reads never needed it.
					c.Complete(store.OpResult{}, gerr)
					continue
				}
				c.Complete(w.dst[i], nil)
			}
		}
		w.flushFn = func() { w.sess.ApplyCommitted(w.ops, w.dst, w.committedFn) }
	}
	// Count the flush before running it: the committed callback replies,
	// and a STATS that follows a reply must already see its flush.
	p.flushes.Add(1)
	p.ops.Add(uint64(len(w.reqs)))
	crashed := pmem.RunOp(w.flushFn)
	if crashed {
		for i := range w.reqs {
			if c := w.reqs[i].c; c != nil {
				w.reqs[i].c = nil
				c.Complete(store.OpResult{}, ErrCrashed)
			}
		}
		return false
	}
	return true
}
