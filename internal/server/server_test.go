package server

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
)

// startServer spins up a server over a fresh store on a Unix socket in a
// test temp dir and tears both down with the test.
func startServer(t *testing.T, kind core.Kind, shards int, scfg Config) (string, *Server, store.Store) {
	t.Helper()
	if scfg.MaxConns == 0 {
		scfg.MaxConns = 8
	}
	st, err := store.Open(store.Config{
		Kind: kind, Policy: persist.NVTraverse{}, Profile: pmem.ProfileZero,
		Shards: shards, SizeHint: 1 << 12, MaxSessions: scfg.MaxConns + 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "nv.sock")
	srv := New(st, scfg)
	ln, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return addr, srv, st
}

// TestRoundTrips exercises every command synchronously over a Unix socket.
func TestRoundTrips(t *testing.T) {
	addr, _, _ := startServer(t, core.KindSkiplist, 4, Config{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(7, 70); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("get: %d %v %v", v, ok, err)
	}
	if _, ok, err := cl.Get(8); err != nil || ok {
		t.Fatalf("missing get: %v %v", ok, err)
	}
	if ins, err := cl.Insert(8, 80); err != nil || !ins {
		t.Fatalf("insert: %v %v", ins, err)
	}
	if ins, err := cl.Insert(8, 81); err != nil || ins {
		t.Fatalf("duplicate insert: %v %v", ins, err)
	}
	if v, ok, err := cl.Update(8, 88); err != nil || !ok || v != 88 {
		t.Fatalf("update: %d %v %v", v, ok, err)
	}
	if _, ok, err := cl.Update(9, 99); err != nil || ok {
		t.Fatalf("update missing: %v %v", ok, err)
	}
	keys, vals, err := cl.Scan(1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != 7 || keys[1] != 8 || vals[1] != 88 {
		t.Fatalf("scan: %v %v", keys, vals)
	}
	// An explicit zero cap returns an empty scan, not one element.
	if keys, _, err := cl.Scan(1, 100, 0); err != nil || len(keys) != 0 {
		t.Fatalf("scan max=0: %v %v", keys, err)
	}
	if del, err := cl.Del(7); err != nil || !del {
		t.Fatalf("del: %v %v", del, err)
	}
	if del, err := cl.Del(7); err != nil || del {
		t.Fatalf("double del: %v %v", del, err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["batch_ops"] == 0 || stats["fences"] == 0 {
		t.Fatalf("stats missing activity: %v", stats)
	}
	if err := cl.Quit(); err != nil {
		t.Fatal(err)
	}
}

// TestTCP round-trips over a TCP listener (the loopback path).
func TestTCP(t *testing.T) {
	st, err := store.Open(store.Config{
		Kind: core.KindHash, Profile: pmem.ProfileZero, SizeHint: 1 << 10, MaxSessions: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{MaxConns: 4})
	ln, err := Listen("tcp:127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-done
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(1); err != nil || !ok || v != 2 {
		t.Fatalf("get over tcp: %d %v %v", v, ok, err)
	}
}

// TestPipelining sends a burst of commands without reading, then checks
// every reply arrives in order — including the read-your-writes pair where
// a pipelined GET follows the PUT of the same key.
func TestPipelining(t *testing.T) {
	addr, srv, _ := startServer(t, core.KindHash, 4, Config{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Phase 1: a pure write burst. The pipeline keeps the batcher fed, so
	// the burst must coalesce into far fewer flushes than writes.
	const n = 200
	for i := uint64(1); i <= n; i++ {
		if err := cl.SendPut(i, i*10); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		put, err := cl.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if put.Status != "OK" {
			t.Fatalf("put %d: %+v", i, put)
		}
	}
	bs := srv.Pool().Stats()
	if bs.Ops != n {
		t.Fatalf("pool saw %d ops, want %d", bs.Ops, n)
	}
	if bs.Flushes >= n/2 {
		t.Fatalf("pipelined writes barely batched: %d flushes for %d writes", bs.Flushes, n)
	}

	// Phase 2: alternating PUT/GET pairs pipelined in one burst. Each GET
	// must observe the connection's preceding PUT (read-your-writes), which
	// forces the server to hold the GET until the PUT's fence lands — the
	// ordering cost of reading your own pipelined writes.
	for i := uint64(1); i <= 50; i++ {
		if err := cl.SendPut(i, i*7); err != nil {
			t.Fatal(err)
		}
		if err := cl.SendGet(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		if put, err := cl.ReadReply(); err != nil || put.Status != "OK" {
			t.Fatalf("put %d: %+v %v", i, put, err)
		}
		get, err := cl.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if !get.Found || get.Value != i*7 {
			t.Fatalf("pipelined get %d after put: %+v (read-your-writes broken)", i, get)
		}
	}
}

// TestReadYourWritesAcrossShards regression-tests the ordering bug where a
// read waited only on the connection's most recent write: within one
// batcher flush, shard groups are acknowledged in shard-index order, not
// submission order, so an earlier write to a later-committing shard could
// still be unexecuted when the latest write's fence landed. Each round
// pipelines PUT a, a filler burst spread across every shard, PUT b, GET a
// into a single flush; the GET must observe a no matter which shards a and
// b hash to. The NVRAM profile stretches each flush's execution (spin cost
// per op), widening the window between one shard group's acknowledgement
// and a later group's execution so the old code fails reliably.
func TestReadYourWritesAcrossShards(t *testing.T) {
	st, err := store.Open(store.Config{
		Kind: core.KindHash, Policy: persist.NVTraverse{}, Profile: pmem.ProfileNVRAM,
		Shards: 8, SizeHint: 1 << 16, MaxSessions: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "nv.sock")
	srv := New(st, Config{
		MaxConns: 8,
		Pipeline: 4096,
		MaxBatch: 8192,
	})
	ln, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const rounds, filler = 40, 2000
	next := uint64(1)
	for r := 0; r < rounds; r++ {
		a := next
		next++
		if err := cl.SendPut(a, a*3); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < filler; i++ {
			k := next
			next++
			if err := cl.SendPut(k, k); err != nil {
				t.Fatal(err)
			}
		}
		b := next
		next++
		if err := cl.SendPut(b, b*3); err != nil {
			t.Fatal(err)
		}
		if err := cl.SendGet(a); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < filler+2; i++ {
			put, err := cl.ReadReply()
			if err != nil {
				t.Fatal(err)
			}
			if put.Status != "OK" {
				t.Fatalf("round %d put %d: %+v", r, i, put)
			}
		}
		get, err := cl.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if !get.Found || get.Value != a*3 {
			t.Fatalf("round %d: pipelined GET %d = %+v — stale read, earlier write to a later-committing shard not awaited", r, a, get)
		}
	}
}

// inversionSession is a stub AsyncSession whose ApplyCommitted applies and
// acknowledges a batch's operations one at a time in REVERSE submission
// order, pausing between acknowledgements — a deterministic stand-in for
// the shard engine acknowledging one flush's shard groups in shard-index
// order while later groups are still unexecuted. With entered/release set,
// every flush announces itself on entered and waits at release first, so a
// test can queue a known backlog behind a running flush.
type inversionSession struct {
	mu    sync.Mutex
	m     map[uint64]uint64
	pause time.Duration

	entered, release chan struct{}
}

func (s *inversionSession) Get(key uint64) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[key]
	return v, ok
}
func (s *inversionSession) Put(key, value uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = value
}
func (s *inversionSession) Insert(uint64, uint64) bool                        { return false }
func (s *inversionSession) Delete(uint64) bool                                { return false }
func (s *inversionSession) Update(uint64, func(uint64) uint64) (uint64, bool) { return 0, false }
func (s *inversionSession) GetOrInsert(uint64, uint64) (uint64, bool)         { return 0, false }
func (s *inversionSession) Scan(uint64, uint64, func(uint64, uint64) bool) error {
	return nil
}
func (s *inversionSession) Apply(ops []store.Op, dst []store.OpResult) []store.OpResult {
	return s.ApplyCommitted(ops, dst, nil)
}
func (s *inversionSession) MultiGet([]uint64, []store.OpResult) []store.OpResult { return nil }
func (s *inversionSession) Rand() uint64                                         { return 0 }

func (s *inversionSession) ApplyCommitted(ops []store.Op, dst []store.OpResult, committed func(idxs []int, err error)) []store.OpResult {
	if cap(dst) < len(ops) {
		dst = make([]store.OpResult, len(ops))
	}
	dst = dst[:len(ops)]
	if s.entered != nil {
		s.entered <- struct{}{}
		<-s.release
	}
	for i := len(ops) - 1; i >= 0; i-- {
		s.Put(ops[i].Key, ops[i].Value)
		dst[i] = store.OpResult{Value: ops[i].Value, OK: true}
		if committed != nil {
			committed([]int{i}, nil)
		}
		if i > 0 {
			time.Sleep(s.pause)
		}
	}
	return dst
}

// drainReplies collects the next n rendered replies from a connState's
// order queue (component-level tests with no writer goroutine).
func drainReplies(cs *connState, n int) []string {
	out := make([]string, n)
	for i := range out {
		sl := <-cs.order
		<-sl.ready
		out[i] = string(sl.buf)
		cs.free <- sl
	}
	return out
}

// TestAwaitWritesWaitsForAllOutstanding regression-tests the read-your-
// writes bug deterministically: a connection pipelines PUT a, PUT b, GET a,
// and the store acknowledges b's write long before a's is even applied
// (inversionSession's reverse-order acks). A read that waited only on the
// connection's most recent write would run between the two
// acknowledgements and miss a; the server must hold the GET until every
// outstanding write has committed. The two PUTs share one flush because
// they queue while a priming write's flush is held at the gate: what
// arrives during a flush rides the next one together.
func TestAwaitWritesWaitsForAllOutstanding(t *testing.T) {
	sess := &inversionSession{
		m: make(map[uint64]uint64), pause: 100 * time.Millisecond,
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	p := batcher.NewSessionPool(sess, batcher.PoolConfig{})
	defer p.Close()
	srv := &Server{pool: p, cfg: Config{MaxScan: 16}}
	cs := newConnState(srv, sess, 16, false)

	cs.dispatch([]byte("PUT 1 1\n")) // priming write: flushes alone, at once
	<-sess.entered                   // ... and is held mid-flush
	cs.dispatch([]byte("PUT 7 21\n"))
	cs.dispatch([]byte("PUT 8 24\n"))
	sess.release <- struct{}{} // the priming flush lands
	<-sess.entered             // the next flush took both PUTs
	sess.release <- struct{}{}
	cs.dispatch([]byte("GET 7\n")) // blocks until read-your-writes holds

	want := []string{"+OK\r\n", "+OK\r\n", "+OK\r\n", "$21\r\n"}
	for i, got := range drainReplies(cs, len(want)) {
		if got != want[i] {
			t.Fatalf("reply %d = %q, want %q (stale read: GET ran before the earlier write was applied)", i, got, want[i])
		}
	}
	if ps := p.Stats(); ps.Flushes != 2 || ps.Ops != 3 {
		t.Fatalf("%d ops in %d flushes, want PUT 7 and PUT 8 sharing the second of 2 flushes", ps.Ops, ps.Flushes)
	}
}

// slowSession delays every batch before applying it — a deterministic
// stand-in for a pool worker whose shard group commits late.
type slowSession struct {
	inversionSession
	delay time.Duration
}

func (s *slowSession) Apply(ops []store.Op, dst []store.OpResult) []store.OpResult {
	return s.ApplyCommitted(ops, dst, nil)
}

func (s *slowSession) ApplyCommitted(ops []store.Op, dst []store.OpResult, committed func(idxs []int, err error)) []store.OpResult {
	time.Sleep(s.delay)
	return s.inversionSession.ApplyCommitted(ops, dst, committed)
}

// TestAwaitWritesAcrossWorkers is the shard-affine version of the same
// ordering hazard: two writes route to two different pool workers, the
// second worker acknowledges long before the first has applied anything,
// and a pipelined read of the first key must still observe it. The
// connection's WaitGroup over all outstanding writes is worker-agnostic —
// this pins exactly that (run under -race as part of the race target).
func TestAwaitWritesAcrossWorkers(t *testing.T) {
	slow := &slowSession{
		inversionSession: inversionSession{m: make(map[uint64]uint64)},
		delay:            100 * time.Millisecond,
	}
	fast := &inversionSession{m: make(map[uint64]uint64)}
	p := batcher.NewSessionsPool(
		[]store.Session{slow, fast},
		func(key uint64) int { return int(key % 2) },
		batcher.PoolConfig{MaxBatch: 1},
	)
	defer p.Close()
	srv := &Server{pool: p, cfg: Config{MaxScan: 16}}
	// The read session is the slow worker's: a stale read of key 2 would
	// observe the map before the delayed apply.
	cs := newConnState(srv, slow, 16, false)

	cs.dispatch([]byte("PUT 2 42\n")) // worker 0 (slow)
	cs.dispatch([]byte("PUT 3 9\n"))  // worker 1 (fast, acks first)
	cs.dispatch([]byte("GET 2\n"))    // must wait for worker 0 too

	want := []string{"+OK\r\n", "+OK\r\n", "$42\r\n"}
	for i, got := range drainReplies(cs, len(want)) {
		if got != want[i] {
			t.Fatalf("reply %d = %q, want %q (read ran before the slow worker's write committed)", i, got, want[i])
		}
	}
}

// TestListenSocketOwnership pins the Unix socket rules: Listen must not
// steal a live server's socket, and must replace a socket file left behind
// by a dead server (bind fails, nothing answers a probe).
func TestListenSocketOwnership(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nv.sock")
	addr := "unix:" + path

	ln, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	if second, err := Listen(addr); err == nil {
		second.Close()
		t.Fatal("second Listen stole a live server's socket")
	}
	// The failed attempt must not have unlinked the live socket.
	if c, err := net.Dial("unix", path); err != nil {
		t.Fatalf("live socket unusable after failed Listen: %v", err)
	} else {
		c.Close()
	}

	// Leave a stale socket file behind: keep the file on close, so the
	// path exists with no listener — the dead-server case.
	ln.(*net.UnixListener).SetUnlinkOnClose(false)
	ln.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("stale socket file not left in place: %v", err)
	}
	ln2, err := Listen(addr)
	if err != nil {
		t.Fatalf("Listen over a stale socket: %v", err)
	}
	ln2.Close()
}

// TestErrorReplies pins the protocol's error surface; the connection stays
// usable after each error.
func TestErrorReplies(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 0, Config{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, bad := range []string{
		"BOGUS 1 2",
		"GET",
		"GET notanumber",
		"PUT 1",
		"SCAN 1",
		"SCAN 1 2 -3",
		"MGET",
		"SCAN 1 100 5", // hash kind: unordered
	} {
		if err := cl.Send(bad); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		rep, err := cl.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.IsErr() {
			t.Fatalf("%q: expected error reply, got %+v", bad, rep)
		}
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after error replies: %v", err)
	}
}

// TestMGet covers the batch read path.
func TestMGet(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 4, Config{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := uint64(1); i <= 5; i++ {
		if err := cl.Put(i, i+100); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Send("MGET 1 3 9 5"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"$101", "$103", "$-1", "$105"}
	if len(rep.Array) != len(want) {
		t.Fatalf("mget: %v", rep.Array)
	}
	for i := range want {
		if rep.Array[i] != want[i] {
			t.Fatalf("mget[%d] = %q, want %q", i, rep.Array[i], want[i])
		}
	}
}

// TestMaxConns: connections beyond the session pool get a clean error.
func TestMaxConns(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 0, Config{MaxConns: 2})
	var keep []*Client
	defer func() {
		for _, c := range keep {
			c.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		keep = append(keep, cl)
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	over, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	rep, err := over.ReadReply()
	if err != nil || !rep.IsErr() || !strings.Contains(rep.Err, "max connections") {
		t.Fatalf("over-limit connection: %+v %v", rep, err)
	}
}

// TestConcurrentConnections drives many writers through separate
// connections and checks the union of writes.
func TestConcurrentConnections(t *testing.T) {
	addr, srv, st := startServer(t, core.KindHash, 4, Config{MaxConns: 8})
	const conns, per = 6, 150
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < per; i++ {
				k := uint64(c*per + i + 1)
				if err := cl.Put(k, k*3); err != nil {
					t.Errorf("put %d: %v", k, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	sess := st.NewSession()
	for k := uint64(1); k <= conns*per; k++ {
		if v, ok := sess.Get(k); !ok || v != k*3 {
			t.Fatalf("key %d: %d %v", k, v, ok)
		}
	}
	if bs := srv.Pool().Stats(); bs.Ops != conns*per {
		t.Fatalf("pool ops %d, want %d", bs.Ops, conns*per)
	}
}

// TestLoadGenerator runs the embedded load generator end to end on every
// point workload and checks zero protocol errors.
func TestLoadGenerator(t *testing.T) {
	addr, _, _ := startServer(t, core.KindSkiplist, 4, Config{MaxConns: 8})
	for _, wl := range []string{"A", "C", "E", "U"} {
		res, err := RunLoad(LoadConfig{
			Addr: addr, Conns: 2, Pipeline: 8, Ops: 2000,
			Workload: wl, Range: 1 << 10, Prefill: wl == "E",
		})
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if res.Errors > 0 {
			t.Fatalf("%s: %d protocol errors", wl, res.Errors)
		}
		if res.Ops < 2000-2*8 || res.Ops > 2000 {
			t.Fatalf("%s: ops %d, want ~2000", wl, res.Ops)
		}
		if res.Lat.Count() == 0 || res.Lat.Quantile(0.5) <= 0 {
			t.Fatalf("%s: no latency samples: %s", wl, res.Lat.Summary())
		}
	}
}

// TestLoadGeneratorDepthOneDeadline: a duration-bounded closed loop at
// pipeline depth 1 has nothing in flight at the top of its loop, and must
// stop at the deadline all the same (it used to run forever).
func TestLoadGeneratorDepthOneDeadline(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 2, Config{MaxConns: 4})
	done := make(chan struct{})
	var res LoadResult
	var err error
	go func() {
		defer close(done)
		res, err = RunLoad(LoadConfig{
			Addr: addr, Conns: 1, Pipeline: 1,
			Duration: 100 * time.Millisecond, Workload: "A", Range: 1 << 10,
		})
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("depth-1 closed loop did not stop at its deadline")
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Errors > 0 {
		t.Fatalf("ops %d, errors %d", res.Ops, res.Errors)
	}
}

// TestLoadGeneratorOpenLoop: open-loop runs (fixed-rate and Poisson, text
// and binary) issue on their schedule, complete every issued request, and
// report the achieved offered rate.
func TestLoadGeneratorOpenLoop(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 4, Config{MaxConns: 8})
	for _, tc := range []struct {
		name    string
		poisson bool
		binary  bool
	}{
		{"fixed-text", false, false},
		{"poisson-text", true, false},
		{"poisson-binary", true, true},
	} {
		res, err := RunLoad(LoadConfig{
			Addr: addr, Conns: 2, Pipeline: 8,
			Duration: 150 * time.Millisecond, Rate: 20000,
			Poisson: tc.poisson, Binary: tc.binary,
			Workload: "A", Range: 1 << 10,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Errors > 0 {
			t.Fatalf("%s: %d protocol errors", tc.name, res.Errors)
		}
		if res.Ops == 0 {
			t.Fatalf("%s: no ops completed", tc.name)
		}
		// Every scheduled request was answered: completed rate ≈ offered
		// rate (both counted over the same elapsed window).
		if res.Offered <= 0 {
			t.Fatalf("%s: no offered rate reported: %+v", tc.name, res)
		}
		if res.OpsPerSec < res.Offered*0.99 {
			t.Fatalf("%s: completed %.0f/s of %.0f/s offered — replies lost", tc.name, res.OpsPerSec, res.Offered)
		}
		if res.Lat.Count() == 0 || res.Lat.Quantile(0.5) <= 0 {
			t.Fatalf("%s: no latency samples: %s", tc.name, res.Lat.Summary())
		}
	}
}

// TestBenchRow: the self-contained server bench produces a well-formed
// bench.Result row with open-loop percentiles.
func TestBenchRow(t *testing.T) {
	res, err := Bench(50 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.Mops <= 0 {
		t.Fatalf("empty bench result: %+v", res)
	}
	if res.Lat == nil || res.Lat.Count() == 0 {
		t.Fatal("bench result has no latency histogram")
	}
	if res.FencePerOp <= 0 {
		t.Fatalf("bench result has no fence accounting: %+v", res)
	}
	if res.Offered <= 0 {
		t.Fatalf("bench result percentiles are not from an open-loop pass: %+v", res)
	}
}

// TestServerSmokeScript is the server-smoke scenario in miniature: serve,
// load, verify, shut down cleanly. Used as the reference for the Makefile
// target.
func TestServerSmokeScript(t *testing.T) {
	addr, srv, _ := startServer(t, core.KindHash, 4, Config{MaxConns: 8})
	res, err := RunLoad(LoadConfig{Addr: addr, Conns: 4, Pipeline: 8, Ops: 4000, Range: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	srv.Close()
	if n := srv.connCount(); n != 0 {
		t.Fatalf("%d connections survive Close", n)
	}
	// Close is idempotent.
	srv.Close()
}

// TestLonePutRoundTrips is the regression test for the group-commit clock:
// a write that finds its worker idle flushes at once, so 200 depth-1 PUT
// round trips over a Unix socket cost 200 flushes and a few milliseconds.
// When a lone write waited for company on a sub-millisecond timer — which
// an otherwise idle Go process rounds up to about a millisecond — the same
// loop took 220 ms or more.
func TestLonePutRoundTrips(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 4, Config{})
	cl, err := Dial(addr, WithBinaryProto())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	before, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	start := time.Now()
	for k := uint64(1); k <= n; k++ {
		if err := cl.Put(k, k*5); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	elapsed := time.Since(start)
	after, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := after["batch_flushes"] - before["batch_flushes"]; got != n {
		t.Errorf("batch_flushes advanced by %d over %d lone PUTs, want one flush each", got, n)
	}
	t.Logf("%d lone PUT round trips in %v", n, elapsed)
	if elapsed > 100*time.Millisecond {
		t.Errorf("%d depth-1 PUT round trips took %v, want under 100ms: something on the write path is waiting on a clock", n, elapsed)
	}
}
