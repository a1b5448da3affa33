package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
	"repro/internal/store/storetest"
	"repro/internal/wire"
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
	addr, srv := serveStore(t, st, scfg)
	return addr, srv, st
}

// TestServerWALStats: on a durable server that fsyncs at every commit
// (nvserver -data -sync), STATS reports the WAL. A PUT moves wal_bytes by
// exactly what its record adds to the log file and wal_syncs by one; a GET
// of a key nobody is writing moves neither.
func TestServerWALStats(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{
		Kind: core.KindHash, Profile: pmem.ProfileZero, Shards: 1,
		SizeHint: 1 << 10, MaxSessions: 16, Dir: dir, SyncFence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	addr, _ := serveStore(t, st, Config{MaxConns: 8})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	walSize := func() int64 {
		names, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*.log"))
		if err != nil || len(names) == 0 {
			t.Fatalf("no WAL under %s (%v)", dir, err)
		}
		var n int64
		for _, name := range names {
			fi, err := os.Stat(name)
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	stats := func() map[string]uint64 {
		s, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := cl.Put(5, 1); err != nil { // the key exists from here on
		t.Fatal(err)
	}

	s0, size0 := stats(), walSize()
	if err := cl.Put(5, 2); err != nil {
		t.Fatal(err)
	}
	s1, size1 := stats(), walSize()
	if d := s1["wal_records"] - s0["wal_records"]; d != 1 {
		t.Fatalf("an upsert of an existing key appended %d records, want 1", d)
	}
	if d := s1["wal_bytes"] - s0["wal_bytes"]; d == 0 || int64(d) != size1-size0 {
		t.Fatalf("PUT moved wal_bytes by %d, the log file grew by %d", d, size1-size0)
	}
	if d := s1["wal_syncs"] - s0["wal_syncs"]; d != 1 {
		t.Fatalf("PUT moved wal_syncs by %d, want 1", d)
	}

	if v, ok, err := cl.Get(5); err != nil || !ok || v != 2 {
		t.Fatalf("GET 5 = %d %v %v", v, ok, err)
	}
	s2 := stats()
	if s2["wal_bytes"] != s1["wal_bytes"] || s2["wal_syncs"] != s1["wal_syncs"] || walSize() != size1 {
		t.Fatalf("GET of a quiescent key moved wal_bytes %d -> %d, wal_syncs %d -> %d",
			s1["wal_bytes"], s2["wal_bytes"], s1["wal_syncs"], s2["wal_syncs"])
	}
}

// serveStore serves st on a Unix socket in a test temp dir and stops the
// server with the test (the store stays the caller's).
func serveStore(t *testing.T, st store.Store, scfg Config) (string, *Server) {
	t.Helper()
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
	return addr, srv
}

// TestRoundTrips exercises every command synchronously over a Unix socket,
// on each protocol.
func TestRoundTrips(t *testing.T) {
	for _, tc := range protocols {
		t.Run(tc.name, func(t *testing.T) { testRoundTrips(t, tc.opts...) })
	}
}

// protocols names the client options of each wire protocol.
var protocols = []struct {
	name string
	opts []DialOption
}{
	{"text", nil},
	{"binary", []DialOption{WithBinaryProto()}},
}

func testRoundTrips(t *testing.T, opts ...DialOption) {
	addr, _, _ := startServer(t, core.KindSkiplist, 4, Config{})
	cl, err := Dial(addr, opts...)
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
	if err := cl.SendMGet([]uint64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rep.Array, ","); got != "$70,$88,$-1" {
		t.Fatalf("mget: %q", got)
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
	if stats["batch_ops"] == 0 || stats["fences"] == 0 || stats["pool_workers"] == 0 {
		t.Fatalf("stats missing activity: %v", stats)
	}
	if err := cl.Quit(); err != nil {
		t.Fatal(err)
	}
}

// TestScanNegativeMax: a negative SCAN limit is refused by the client on
// either protocol before anything reaches the wire (binary once sent it as
// uint32(-1) and got every key back), and the connection stays in step.
func TestScanNegativeMax(t *testing.T) {
	for _, tc := range protocols {
		t.Run(tc.name, func(t *testing.T) {
			addr, _, _ := startServer(t, core.KindSkiplist, 4, Config{})
			cl, err := Dial(addr, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Put(5, 50); err != nil {
				t.Fatal(err)
			}
			if keys, _, err := cl.Scan(1, 100, -1); err == nil {
				t.Fatalf("Scan with max -1 returned %v, want an error", keys)
			}
			if v, ok, err := cl.Get(5); err != nil || !ok || v != 50 {
				t.Fatalf("get after refused scan: %d %v %v (a stray reply?)", v, ok, err)
			}
		})
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

// TestPipelining sends bursts of commands without reading, over each
// protocol on a 4-shard ordered store, and checks every reply arrives in
// order.
func TestPipelining(t *testing.T) {
	for _, tc := range protocols {
		t.Run(tc.name, func(t *testing.T) { testPipelining(t, tc.opts...) })
	}
}

func testPipelining(t *testing.T, opts ...DialOption) {
	addr, srv, _ := startServer(t, core.KindSkiplist, 4, Config{})
	cl, err := Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	model := make(map[uint64]uint64)

	// Phase 1: a pure write burst. The pipeline keeps the batcher fed, so
	// the burst must coalesce into far fewer flushes than writes.
	const n = 200
	for i := uint64(1); i <= n; i++ {
		if err := cl.SendPut(i, i*10); err != nil {
			t.Fatal(err)
		}
		model[i] = i * 10
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
	bs := srv.pool.Stats()
	if bs.Ops != n {
		t.Fatalf("pool saw %d ops, want %d", bs.Ops, n)
	}
	if bs.Flushes >= n/2 {
		t.Fatalf("pipelined writes barely batched: %d flushes for %d writes", bs.Flushes, n)
	}

	// Phase 2: alternating PUT/GET pairs pipelined in one burst. Each GET
	// must observe the connection's preceding PUT (read-your-writes): with
	// the PUT outstanding, the GET rides the PUT's worker ring behind it.
	for i := uint64(1); i <= 50; i++ {
		if err := cl.SendPut(i, i*7); err != nil {
			t.Fatal(err)
		}
		if err := cl.SendGet(i); err != nil {
			t.Fatal(err)
		}
		model[i] = i * 7
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

	// Phase 3: one burst mixing every pipelined command over present and
	// absent keys. The expected replies come from a model map advanced in
	// send order, so each reply must reflect every earlier write of the
	// burst, whichever shard it went to.
	var want []Reply
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 400; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		k, v := 1+rng%(n+n/2), rng>>40|1
		var err error
		switch i % 5 {
		case 0:
			err = cl.SendInsert(k, v)
			_, had := model[k]
			if !had {
				model[k] = v
			}
			want = append(want, Reply{Int: boolInt(!had)})
		case 1:
			err = cl.SendUpdate(k, v)
			if _, had := model[k]; had {
				model[k] = v
				want = append(want, Reply{Value: v, Found: true})
			} else {
				want = append(want, Reply{})
			}
		case 2:
			err = cl.SendDel(k)
			_, had := model[k]
			delete(model, k)
			want = append(want, Reply{Int: boolInt(had)})
		case 3:
			err = cl.SendGet(k)
			mv, had := model[k]
			want = append(want, Reply{Value: mv, Found: had})
		case 4:
			hi, max := k+rng%64, int(rng%16)
			err = cl.SendScan(k, hi, max)
			want = append(want, Reply{Array: modelScan(model, k, hi, max)})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		got, err := cl.ReadReply()
		if err != nil {
			t.Fatal(err)
		}
		if got.IsErr() || got.Int != w.Int || got.Found != w.Found || got.Value != w.Value ||
			strings.Join(got.Array, ",") != strings.Join(w.Array, ",") {
			t.Fatalf("mixed burst reply %d = %+v, want %+v", i, got, w)
		}
	}

	// Close ends every connection, the open one included, and a second
	// Close is harmless.
	srv.Close()
	if c := srv.connCount(); c != 0 {
		t.Fatalf("%d connections survive Close", c)
	}
	srv.Close()
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// modelScan renders what SCAN lo hi max returns over the model: up to max
// "k v" entries of [lo, hi] in key order.
func modelScan(model map[uint64]uint64, lo, hi uint64, max int) []string {
	var keys []uint64
	for k := range model {
		if k >= lo && k <= hi {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	if len(keys) > max {
		keys = keys[:max]
	}
	var out []string
	for _, k := range keys {
		out = append(out, fmt.Sprintf("%d %d", k, model[k]))
	}
	return out
}

// TestReadYourWritesAcrossShards regression-tests the ordering bug where a
// read waited only on the connection's most recent write: workers and the
// shard groups within one flush acknowledge out of submission order, so an
// earlier write to a later-committing shard could still be unexecuted when
// the latest write's fence landed. Each round pipelines PUT a, a filler
// burst spread across every shard, PUT b and GET a, sized to fit one
// pipeline window so that all of them are outstanding together (a slot is
// recycled only once its reply is sent, so a larger round would hold the
// GET back until PUT a had been answered); the GET must observe a no matter
// which shards a and b hash to. The NVRAM profile stretches each flush's
// execution (spin cost per op), so PUT a is still unexecuted when the
// reader decodes the GET, and a GET that ignores outstanding writes fails.
func TestReadYourWritesAcrossShards(t *testing.T) {
	st, err := store.Open(store.Config{
		Kind: core.KindHash, Policy: persist.NVTraverse{}, Profile: pmem.ProfileNVRAM,
		Shards: 8, SizeHint: 1 << 16, MaxSessions: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "nv.sock")
	srv := New(st, Config{MaxConns: 8})
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

	// PUT a, the fillers, PUT b and GET a: pipeline-5 requests, leaving
	// slack for slots the writer is still returning from the last round.
	const rounds, filler = 40, pipeline - 8
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

// inversionSession is a stub Session whose ApplyCommitted applies and
// acknowledges a batch one key at a time, the keys in REVERSE order of
// their first submission, pausing between acknowledgements — a
// deterministic stand-in for the shard engine acknowledging one flush's
// shard groups in shard-index order while later groups are still
// unexecuted. Like a shard group, one key's operations apply in submission
// order; OpGet reads, every other op puts. With entered/release set, every
// flush announces itself on entered and waits at release first, so a test
// can queue a known backlog behind a running flush.
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
func (s *inversionSession) MultiGet(keys []uint64, dst []store.OpResult) []store.OpResult {
	dst = dst[:0]
	for _, k := range keys {
		v, ok := s.Get(k)
		dst = append(dst, store.OpResult{Value: v, OK: ok})
	}
	return dst
}
func (s *inversionSession) Rand() uint64 { return 0 }

func (s *inversionSession) ApplyCommitted(ops []store.Op, dst []store.OpResult, committed func(idxs []int, err error)) []store.OpResult {
	if cap(dst) < len(ops) {
		dst = make([]store.OpResult, len(ops))
	}
	dst = dst[:len(ops)]
	if s.entered != nil {
		s.entered <- struct{}{}
		<-s.release
	}
	var keys []uint64
	groups := make(map[uint64][]int)
	for i, op := range ops {
		if _, ok := groups[op.Key]; !ok {
			keys = append(keys, op.Key)
		}
		groups[op.Key] = append(groups[op.Key], i)
	}
	for j := len(keys) - 1; j >= 0; j-- {
		g := groups[keys[j]]
		for _, i := range g {
			if ops[i].Kind == store.OpGet {
				v, ok := s.Get(ops[i].Key)
				dst[i] = store.OpResult{Value: v, OK: ok}
				continue
			}
			s.Put(ops[i].Key, ops[i].Value)
			dst[i] = store.OpResult{Value: ops[i].Value, OK: true}
		}
		if committed != nil {
			committed(g, nil)
		}
		if j > 0 {
			time.Sleep(s.pause)
		}
	}
	return dst
}

// stubServer builds a Server whose pool workers run the given stub
// sessions, key k on worker shardFor(k) (see storetest.Sessions).
func stubServer(t *testing.T, shardFor func(uint64) int, sessions ...store.Session) *Server {
	t.Helper()
	return New(storetest.Stub(t, shardFor, sessions...), Config{})
}

// execText decodes one text request line and executes it
// (component-level tests with no socket).
func execText(cs *connState, line string) {
	cs.exec(parseText(splitFields([]byte(line), nil), nil))
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
// acknowledgements and miss a. The two PUTs share one flush because they
// queue while a priming write's flush is held at the gate: what arrives
// during a flush rides the next one together. The GET finds a's write
// outstanding, so it rides a's worker ring into a third flush, applied
// after it.
func TestAwaitWritesWaitsForAllOutstanding(t *testing.T) {
	sess := &inversionSession{
		m: make(map[uint64]uint64), pause: 100 * time.Millisecond,
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	srv := stubServer(t, nil, sess)
	defer func() {
		srv.Close()
		close(sess.entered) // stops the gatekeeper below
	}()
	cs := newConnState(srv, sess, &textCodec{})

	execText(cs, "PUT 1 1") // priming write: flushes alone, at once
	<-sess.entered          // ... and is held mid-flush
	execText(cs, "PUT 7 21")
	execText(cs, "PUT 8 24")
	sess.release <- struct{}{} // the priming flush lands
	<-sess.entered             // the next flush took both PUTs
	go func() {                // from here on every flush passes the gate
		sess.release <- struct{}{}
		for range sess.entered {
			sess.release <- struct{}{}
		}
	}()
	execText(cs, "GET 7")

	want := []string{"+OK\r\n", "+OK\r\n", "+OK\r\n", "$21\r\n"}
	for i, got := range drainReplies(cs, len(want)) {
		if got != want[i] {
			t.Fatalf("reply %d = %q, want %q (stale read: GET ran before the earlier write was applied)", i, got, want[i])
		}
	}
	// The GET finds PUT 7 outstanding unless the reader stalls through the
	// stub's 100 ms pause; either way the PUTs shared the second flush.
	if ps := srv.pool.Stats(); ps.Reads > 1 || ps.Ops != 3+ps.Reads || ps.Flushes != 2+ps.Reads {
		t.Fatalf("%d ops (%d reads) in %d flushes, want PUT 7 and PUT 8 sharing the second flush and a pooled GET in a third", ps.Ops, ps.Reads, ps.Flushes)
	}
}

// TestGetRidesRingBehindHeldFlush pins the GET that does not wait: while
// the pool's only flush is held at the gate, a pipelined PUT 7, GET 7,
// PUT 8 all reach the worker's ring without blocking the reader, ride the
// next flush together, and reply in request order with the GET observing
// the PUT before it.
func TestGetRidesRingBehindHeldFlush(t *testing.T) {
	sess := &inversionSession{
		m:       make(map[uint64]uint64),
		entered: make(chan struct{}), release: make(chan struct{}),
	}
	srv := stubServer(t, nil, sess)
	defer func() {
		srv.Close()
		close(sess.entered) // stops the gate drain on the failure path
	}()
	cs := newConnState(srv, sess, &textCodec{})

	execText(cs, "PUT 1 1") // priming write: flushes alone, at once
	<-sess.entered          // ... and is held mid-flush
	queued := make(chan struct{})
	go func() {
		execText(cs, "PUT 7 21")
		execText(cs, "GET 7")
		execText(cs, "PUT 8 24")
		close(queued)
	}()
	select {
	case <-queued:
	case <-time.After(5 * time.Second):
		// Open the gate for good so the reader and the pool can finish.
		close(sess.release)
		go func() {
			for range sess.entered {
			}
		}()
		<-queued
		t.Fatal("GET 7 blocked the reader while the flush was held: it waited for the earlier write instead of riding the ring")
	}
	sess.release <- struct{}{} // the priming flush lands
	<-sess.entered             // the next flush took all three
	sess.release <- struct{}{}

	want := []string{"+OK\r\n", "+OK\r\n", "$21\r\n", "+OK\r\n"}
	for i, got := range drainReplies(cs, len(want)) {
		if got != want[i] {
			t.Fatalf("reply %d = %q, want %q", i, got, want[i])
		}
	}
	if ps := srv.pool.Stats(); ps.Flushes != 2 || ps.Ops != 4 || ps.Reads != 1 {
		t.Fatalf("%d ops (%d reads) in %d flushes, want PUT 7, GET 7 and PUT 8 sharing the second of 2 flushes", ps.Ops, ps.Reads, ps.Flushes)
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
// and a pipelined read of the first key must still observe it — the GET
// rides the first key's worker ring behind its write. An MGET spans
// workers, so it keeps the barrier: it waits for every outstanding request
// of the connection, whichever worker holds it (run under -race as part of
// the race target).
func TestAwaitWritesAcrossWorkers(t *testing.T) {
	slow := &slowSession{
		inversionSession: inversionSession{m: make(map[uint64]uint64)},
		delay:            100 * time.Millisecond,
	}
	fast := &inversionSession{m: make(map[uint64]uint64)}
	srv := stubServer(t, func(key uint64) int { return int(key % 2) }, slow, fast)
	defer srv.Close()
	// The read session is the slow worker's: a stale read of key 2 would
	// observe the map before the delayed apply.
	cs := newConnState(srv, slow, &textCodec{})

	execText(cs, "PUT 2 42") // worker 0 (slow)
	execText(cs, "PUT 3 9")  // worker 1 (fast, acks first)
	execText(cs, "GET 2")    // rides worker 0's ring behind PUT 2
	execText(cs, "PUT 4 8")  // worker 0 (slow)
	execText(cs, "MGET 4")   // waits for every outstanding request

	want := []string{"+OK\r\n", "+OK\r\n", "$42\r\n", "+OK\r\n", "*1\r\n$8\r\n"}
	for i, got := range drainReplies(cs, len(want)) {
		if got != want[i] {
			t.Fatalf("reply %d = %q, want %q (read ran before the slow worker's write committed)", i, got, want[i])
		}
	}
	if ps := srv.pool.Stats(); ps.Ops != 4 || ps.Reads != 1 {
		t.Fatalf("pool applied %d ops (%d reads), want the three PUTs and the GET", ps.Ops, ps.Reads)
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

// TestServeAfterClose: Serve on a closed server returns nil, as after a
// Close that lands while it runs, and closes the listener it was given.
func TestServeAfterClose(t *testing.T) {
	st, err := store.Open(store.Config{Kind: core.KindHash, Profile: pmem.ProfileZero, SizeHint: 64, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{MaxConns: 1})
	srv.Close()
	path := filepath.Join(t.TempDir(), "nv.sock")
	ln, err := Listen("unix:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); err != nil {
		t.Fatalf("Serve after Close = %v, want nil", err)
	}
	if c, err := net.Dial("unix", path); err == nil {
		c.Close()
		t.Fatal("listener still accepts after Serve on a closed server")
	}
}

// rawText dials addr without a Client, for tests that must put exact
// text request lines on the wire.
func rawText(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial(wire.SplitAddr(addr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, bufio.NewReader(c)
}

// TestErrorReplies pins the protocol's error surface; the connection stays
// usable after each error.
func TestErrorReplies(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 0, Config{})
	c, br := rawText(t, addr)
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
		if _, err := c.Write([]byte(bad + "\r\n")); err != nil {
			t.Fatal(err)
		}
		if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "-ERR ") {
			t.Fatalf("%q: reply %q %v, want an error reply", bad, line, err)
		}
	}
	if _, err := c.Write([]byte("PING\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := br.ReadString('\n'); err != nil || line != "+PONG\r\n" {
		t.Fatalf("connection unusable after error replies: %q %v", line, err)
	}
}

// TestMGet covers the batch read path on the text wire.
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
	c, br := rawText(t, addr)
	if _, err := c.Write([]byte("MGET 1 3 9 5\r\n")); err != nil {
		t.Fatal(err)
	}
	want := "*4\r\n$101\r\n$103\r\n$-1\r\n$105\r\n"
	got := make([]byte, len(want))
	if _, err := io.ReadFull(br, got); err != nil || string(got) != want {
		t.Fatalf("mget reply %q %v, want %q", got, err, want)
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
	if bs := srv.pool.Stats(); bs.Ops != conns*per {
		t.Fatalf("pool ops %d, want %d", bs.Ops, conns*per)
	}
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
