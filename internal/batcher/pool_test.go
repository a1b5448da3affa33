package batcher

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
	"repro/internal/store"
	"repro/internal/store/storetest"
)

// oneWorker presents st to NewPool as a single shard, so one worker's
// session serves every shard of st and one flush spans several shard fence
// groups, acknowledging them group by group.
func oneWorker(st store.Store) store.Store {
	return &storetest.Sessions{Store: st, List: []store.Session{st.NewSession()}}
}

func asIs(st store.Store) store.Store { return st }

// TestPoolBasicOps round-trips the operation vocabulary through Pool.Do on
// one shard and on four (one worker per shard).
func TestPoolBasicOps(t *testing.T) {
	testBasicOps(t, asIs)
}

// testBasicOps runs the vocabulary through a pool over pool(st).
func testBasicOps(t *testing.T, pool func(store.Store) store.Store) {
	for _, shards := range []int{1, 4} {
		st, err := store.Open(store.Config{
			Kind: core.KindSkiplist, Profile: pmem.ProfileZero,
			Shards: shards, SizeHint: 1024, MaxSessions: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := NewPool(pool(st), PoolConfig{})
		if res, err := p.Do(store.Op{Kind: store.OpInsert, Key: 10, Value: 100}); err != nil || !res.OK {
			t.Fatalf("shards=%d insert: %+v %v", shards, res, err)
		}
		if res, _ := p.Do(store.Op{Kind: store.OpInsert, Key: 10, Value: 101}); res.OK {
			t.Fatalf("shards=%d duplicate insert succeeded", shards)
		}
		if res, _ := p.Do(store.Op{Kind: store.OpGet, Key: 10}); !res.OK || res.Value != 100 {
			t.Fatalf("shards=%d get: %+v", shards, res)
		}
		if res, _ := p.Do(store.Op{Kind: store.OpPut, Key: 11, Value: 42}); !res.OK {
			t.Fatalf("shards=%d put: %+v", shards, res)
		}
		if res, _ := p.Do(store.Op{Kind: store.OpUpdate, Key: 11, Fn: func(o uint64) uint64 { return o + 1 }}); !res.OK || res.Value != 43 {
			t.Fatalf("shards=%d update: %+v", shards, res)
		}
		if res, _ := p.Do(store.Op{Kind: store.OpScan, Key: 1, Hi: 100}); !res.OK || res.Value != 2 {
			t.Fatalf("shards=%d scan: %+v", shards, res)
		}
		if res, _ := p.Do(store.Op{Kind: store.OpDelete, Key: 10}); !res.OK {
			t.Fatalf("shards=%d delete: %+v", shards, res)
		}
		// Published before the completions fire: each Do has returned.
		if ps := p.Stats(); ps.Ops != 7 || ps.Reads != 2 {
			t.Fatalf("shards=%d stats %+v, want 7 ops of which 2 reads (the get and the scan)", shards, ps)
		}
		p.Close()
		if _, err := p.Do(store.Op{Kind: store.OpGet, Key: 10}); err != ErrClosed {
			t.Fatalf("shards=%d submit after close: %v", shards, err)
		}
		sess := st.NewSession()
		if v, ok := sess.Get(11); !ok || v != 43 {
			t.Fatalf("shards=%d store state after close: %d %v", shards, v, ok)
		}
	}
}

// TestPoolConcurrentRings hammers the per-worker rings from many goroutines
// (run under -race as part of the race target).
func TestPoolConcurrentRings(t *testing.T) {
	testConcurrentWriters(t, asIs)
}

// testConcurrentWriters verifies exact op accounting and every write
// landing under concurrent submitters, through a pool over pool(st).
func testConcurrentWriters(t *testing.T, pool func(store.Store) store.Store) {
	st := openEngine(t, 4, 12)
	p := NewPool(pool(st), PoolConfig{})
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64(w*per + i + 1)
				if res, err := p.Do(store.Op{Kind: store.OpPut, Key: k, Value: k * 2}); err != nil || !res.OK {
					t.Errorf("put %d: %+v %v", k, res, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	p.Close()
	sess := st.NewSession()
	for k := uint64(1); k <= workers*per; k++ {
		if v, ok := sess.Get(k); !ok || v != k*2 {
			t.Fatalf("key %d: %d %v", k, v, ok)
		}
	}
	ps := p.Stats()
	if ps.Ops != workers*per {
		t.Fatalf("pool ops %d, want %d", ps.Ops, workers*per)
	}
	// Whether backlog formed is the scheduler's business (TestPoolGroupCommit
	// pins the batching rule on a gate); what must hold is that no flush
	// was empty.
	if ps.Flushes == 0 || ps.Flushes > ps.Ops {
		t.Fatalf("%d flushes for %d ops", ps.Flushes, ps.Ops)
	}
}

// orderSession is a stub session that records the keys applied to it, for
// asserting shard affinity and per-ring FIFO order.
type orderSession struct {
	mu   sync.Mutex
	keys []uint64
	m    map[uint64]uint64
}

func newOrderSession() *orderSession { return &orderSession{m: map[uint64]uint64{}} }

func (s *orderSession) Get(key uint64) (uint64, bool) { v, ok := s.m[key]; return v, ok }
func (s *orderSession) Put(key, value uint64) {
	s.mu.Lock()
	s.keys = append(s.keys, key)
	s.m[key] = value
	s.mu.Unlock()
}
func (s *orderSession) Insert(key, value uint64) bool { s.Put(key, value); return true }
func (s *orderSession) Delete(key uint64) bool        { delete(s.m, key); return true }
func (s *orderSession) Update(key uint64, fn func(uint64) uint64) (uint64, bool) {
	return 0, false
}
func (s *orderSession) GetOrInsert(key, value uint64) (uint64, bool) { return 0, false }
func (s *orderSession) Scan(lo, hi uint64, fn func(uint64, uint64) bool) error {
	return nil
}
func (s *orderSession) Apply(ops []store.Op, dst []store.OpResult) []store.OpResult {
	if cap(dst) < len(ops) {
		dst = make([]store.OpResult, len(ops))
	}
	dst = dst[:len(ops)]
	for i, op := range ops {
		s.Put(op.Key, op.Value)
		dst[i] = store.OpResult{Value: op.Value, OK: true}
	}
	return dst
}
func (s *orderSession) ApplyCommitted(ops []store.Op, dst []store.OpResult, committed func([]int, error)) []store.OpResult {
	dst = s.Apply(ops, dst)
	idxs := make([]int, len(ops))
	for i := range idxs {
		idxs[i] = i
	}
	committed(idxs, nil)
	return dst
}
func (s *orderSession) MultiGet(keys []uint64, dst []store.OpResult) []store.OpResult {
	return dst
}
func (s *orderSession) Rand() uint64 { return 0 }

// TestPoolShardAffinityAndOrder submits interleaved keys from several
// goroutines through a two-worker pool routed by key parity: every key must
// be applied by exactly the worker that owns its parity, and each
// goroutine's per-key sequence must be applied in submission order (the
// ring is FIFO and a worker applies batches in ring order).
func TestPoolShardAffinityAndOrder(t *testing.T) {
	s0, s1 := newOrderSession(), newOrderSession()
	p := NewPool(storetest.Stub(t, func(key uint64) int { return int(key % 2) }, s0, s1), PoolConfig{})
	const writers, per = 4, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// Key encodes (writer, seq, parity); value encodes seq.
				k := uint64(w)<<32 | uint64(i)<<1 | uint64(w%2)
				if res, err := p.Do(store.Op{Kind: store.OpPut, Key: k, Value: uint64(i)}); err != nil || !res.OK {
					t.Errorf("put %x: %+v %v", k, res, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	p.Close()
	for parity, s := range []*orderSession{s0, s1} {
		if len(s.keys) != writers/2*per {
			t.Fatalf("worker %d applied %d keys, want %d", parity, len(s.keys), writers/2*per)
		}
		lastSeq := map[uint64]int{}
		for _, k := range s.keys {
			if int(k%2) != parity {
				t.Fatalf("worker %d applied key %x of parity %d: affinity broken", parity, k, k%2)
			}
			w := k >> 32
			seq := int(k>>1) & ((1 << 31) - 1)
			if prev, ok := lastSeq[w]; ok && seq <= prev {
				t.Fatalf("worker %d saw writer %d seq %d after %d: ring order broken", parity, w, seq, prev)
			}
			lastSeq[w] = seq
		}
	}
}

// gate holds a worker at the entry of every flush until the test releases
// it, so a test can build a known ring backlog while the worker is
// mid-flush. entered receives once per flush, on entry; release lets that
// flush proceed.
type gate struct {
	entered chan struct{}
	release chan struct{}
}

func newGate() gate {
	return gate{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g gate) hold() {
	g.entered <- struct{}{}
	<-g.release
}

// gateSession is a gated stub session that records the size of every batch.
type gateSession struct {
	*orderSession
	gate
	batches []int // len(ops) per flush
}

func (s *gateSession) ApplyCommitted(ops []store.Op, dst []store.OpResult, committed func([]int, error)) []store.OpResult {
	s.hold()
	s.batches = append(s.batches, len(ops))
	return s.orderSession.ApplyCommitted(ops, dst, committed)
}

// gatedSession gates a real store session's flushes.
type gatedSession struct {
	store.Session
	gate
}

func (s gatedSession) ApplyCommitted(ops []store.Op, dst []store.OpResult, committed func([]int, error)) []store.OpResult {
	s.hold()
	return s.Session.ApplyCommitted(ops, dst, committed)
}

type countCompleter struct{ wg *sync.WaitGroup }

func (c countCompleter) Complete(store.OpResult, error) { c.wg.Done() }

// TestPoolGroupCommit pins the backlog-driven group-commit rule: every
// request that queues in the ring while a flush is running rides the next
// flush as one batch — one fence for all of them, however many there are.
func TestPoolGroupCommit(t *testing.T) {
	const K = 8
	s := &gateSession{orderSession: newOrderSession(), gate: newGate()}
	p := NewPool(storetest.Stub(t, nil, s), PoolConfig{})
	var wg sync.WaitGroup
	wg.Add(K + 1)
	p.Submit(store.Op{Kind: store.OpPut, Key: 1, Value: 1}, countCompleter{&wg})
	<-s.entered // worker is mid-flush holding exactly op 1
	for i := 2; i <= K+1; i++ {
		p.Submit(store.Op{Kind: store.OpPut, Key: uint64(i), Value: uint64(i)}, countCompleter{&wg})
	}
	s.release <- struct{}{} // release flush 1
	<-s.entered             // flush 2 must carry the whole backlog
	s.release <- struct{}{}
	wg.Wait()
	ps := p.Stats()
	p.Close()
	if ps.Ops != K+1 || ps.Flushes != 2 {
		t.Fatalf("ops %d flushes %d, want %d ops in 2 flushes", ps.Ops, ps.Flushes, K+1)
	}
	if len(s.batches) != 2 || s.batches[0] != 1 || s.batches[1] != K {
		t.Fatalf("batch sizes %v, want [1 %d]", s.batches, K)
	}
}

// TestPoolLoneRequestFlushesAtOnce pins the other half of the rule: a
// request that finds the worker idle is not held back for company. One
// Submit into an idle pool reaches the session with no second Submit and no
// clock involved, and completes as a flush of one.
func TestPoolLoneRequestFlushesAtOnce(t *testing.T) {
	s := &gateSession{orderSession: newOrderSession(), gate: newGate()}
	p := NewPool(storetest.Stub(t, nil, s), PoolConfig{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit(store.Op{Kind: store.OpPut, Key: 1, Value: 1}, countCompleter{&wg})
	<-s.entered // the lone request is being applied: nothing else was submitted
	s.release <- struct{}{}
	wg.Wait()
	ps := p.Stats()
	p.Close()
	if ps.Ops != 1 || ps.Flushes != 1 {
		t.Fatalf("ops %d flushes %d, want the lone op in a flush of its own", ps.Ops, ps.Flushes)
	}
	if len(s.batches) != 1 || s.batches[0] != 1 {
		t.Fatalf("batch sizes %v, want [1]", s.batches)
	}
}

// TestPoolFlushCap pins the batch cap: a backlog of maxBatch+8 requests
// queued behind a held flush leaves the ring as one flush of maxBatch and
// one of the 8 left over.
func TestPoolFlushCap(t *testing.T) {
	s := &gateSession{orderSession: newOrderSession(), gate: newGate()}
	p := NewPool(storetest.Stub(t, nil, s), PoolConfig{})
	var wg sync.WaitGroup
	wg.Add(maxBatch + 9)
	p.Submit(store.Op{Kind: store.OpPut, Key: 1, Value: 1}, countCompleter{&wg})
	<-s.entered // worker is mid-flush holding exactly op 1
	for i := 0; i < maxBatch+8; i++ {
		k := uint64(i + 2)
		p.Submit(store.Op{Kind: store.OpPut, Key: k, Value: k}, countCompleter{&wg})
	}
	for range 2 {
		s.release <- struct{}{}
		<-s.entered
	}
	s.release <- struct{}{}
	wg.Wait()
	p.Close()
	if len(s.batches) != 3 || s.batches[0] != 1 || s.batches[1] != maxBatch || s.batches[2] != 8 {
		t.Fatalf("batch sizes %v, want [1 %d 8]", s.batches, maxBatch)
	}
}
