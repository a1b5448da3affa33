package main

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	nv "repro"
	"repro/internal/batcher"
	"repro/internal/pmem"
	"repro/internal/pmem/vfs"
	"repro/internal/server"
	"repro/internal/store"
)

// The traced run is a latency ladder: one seeded YCSB-A stream (4-shard
// hash, zero cost profile; a skiplist for the scan rungs) entered through
// one public entry point after another, so that adjacent rungs price one
// layer. Everything except the restart rung runs inside this process, and
// no end-to-end number is ever taken from it.
type ladder struct {
	e    *env
	seed uint64
	per  int64 // ns one rung measures for
	tr   *tracer
	t    tally // the oracle's verdict on every reply a rung checked
	m    map[string]reading
}

const (
	ladderRungs = 16
	// counterOps is the fixed prefix of the stream that count metrics are
	// taken over, so that they repeat exactly from run to run.
	counterOps = 100_000
	poolDepth  = 32
)

func runLadder(e *env, seed uint64, seconds float64, out string) (record, error) {
	l := &ladder{
		e: e, seed: seed, per: int64(seconds * 1e9 / ladderRungs),
		tr: &tracer{t0: time.Now()}, m: map[string]reading{},
	}
	defer e.watchdog(seconds).Stop()
	for _, rung := range []func() error{
		func() error { return l.structure("core") },
		func() error { return l.structure("shard", nv.WithShards(4)) },
		l.pool,
		func() error { return l.wal(false) },
		func() error { return l.wal(true) },
		func() error { return l.wire("bin", true) },
		func() error { return l.wire("text", false) },
		l.wait1,
		l.restart,
	} {
		if err := rung(); err != nil {
			return record{}, err
		}
	}
	if err := l.tr.write(out); err != nil {
		return record{}, err
	}
	if l.t.failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: ladder: %d of %d checks failed; first: %s\n", l.t.failed, l.t.attempted, l.t.firstFailure)
	}
	return record{Correct: l.t.failed == 0, Attempted: l.t.attempted, Failed: l.t.failed, Metrics: l.m}, nil
}

func (l *ladder) set(name string, v float64, unit string) { l.m[name] = reading{v, unit} }

// timed repeats step until the rung's time is up and returns the nanoseconds
// per unit of work (step returns how much it did). The time is cut into
// segments, the clock read every 64 steps, and the median segment reported:
// a GC cycle or a neighbour's burst lands in one segment, not in the metric.
func (l *ladder) timed(name string, step func() int) float64 {
	const segments = 8
	var rates []float64
	begin := l.tr.now()
	end := begin
	for len(rates) < segments {
		start, work := end, 0
		for end < start+l.per/segments {
			for i := 0; i < 64; i++ {
				work += step()
			}
			end = l.tr.now()
		}
		rates = append(rates, float64(end-start)/float64(max(work, 1)))
	}
	l.tr.add(name, begin, end, -1, 0)
	return median(rates)
}

// oneShots times an action that cannot be kept up for a whole rung: it runs
// three times and the median counts, in seconds.
func (l *ladder) oneShots(name string, action func() error) (float64, error) {
	var took []float64
	for i := 0; i < 3; i++ {
		start := l.tr.now()
		if err := action(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		end := l.tr.now()
		l.tr.add(name, start, end, -1, 0)
		took = append(took, float64(end-start)/1e9)
	}
	return median(took), nil
}

// stream pre-generates a cycle of operations, so that a rung that costs
// 100 ns per operation does not measure the generator.
func (l *ladder) stream(m mix) func() op {
	g := newOpGen(l.seed, 0, m)
	ops := make([]op, 1<<16)
	for i := range ops {
		ops[i] = g.next()
	}
	i := -1
	return func() op {
		i = (i + 1) % len(ops)
		return ops[i]
	}
}

// structure prices the in-process rungs: the bare structure ("core") or the
// sharded engine ("shard"), point operations on the hash table and scans on
// the skiplist.
func (l *ladder) structure(layer string, opts ...nv.Option) error {
	opts = append(opts, nv.WithProfile(pmem.ProfileZero))
	in, err := setupMem(nv.HashMap, ycsbA, l.seed, opts...)
	if err != nil {
		return err
	}
	defer in.close()
	w := window{t0: l.tr.t0}
	next := l.stream(ycsbA)

	// Counts first, over a fixed prefix with every reply checked: they are
	// exact single-threaded, and the same on every run of a seed.
	before := in.st.Stats()
	for i := 0; i < counterOps; i++ {
		in.exec(next(), &l.t, w, false)
	}
	if layer == "core" {
		d := in.st.Stats().Sub(before)
		l.set("pmem.flush_per_op", float64(d.Flushes)/counterOps, "count")
		l.set("pmem.flush_elided_per_op", float64(d.FlushesElided)/counterOps, "count")
		l.set("pmem.fence_per_op", float64(d.Fences)/counterOps, "count")
	}
	l.set(layer+".get_ns", l.timed("l-"+layer+".get", func() int {
		in.sess.Get(next().key)
		return 1
	}), "ns")
	l.set(layer+".put_ns", l.timed("l-"+layer+".put", func() int {
		in.exec(op{kind: opPut, key: next().key}, &l.t, w, false)
		return 1
	}), "ns")
	if layer == "shard" {
		l.apply16(in, l.stream(ycsbA))
	}
	if _, err := in.verify(&l.t); err != nil {
		return err
	}

	sk, err := setupMem(nv.Skiplist, ycsbE, l.seed, opts...)
	if err != nil {
		return err
	}
	defer sk.close()
	next = l.stream(ycsbE)
	for i := 0; i < counterOps/10; i++ {
		sk.exec(next(), &l.t, w, false)
	}
	l.set(layer+".scan_ns_per_key", l.timed("l-"+layer+".scan", func() int {
		o, seen := next(), 0
		sk.sess.Scan(o.key, o.scanHi(), func(uint64, uint64) bool {
			seen++
			return seen < int(o.n)
		})
		return seen
	}), "ns")
	_, err = sk.verify(&l.t)
	return err
}

// apply16 drives the engine's batched entry point: 16 operations share one
// commit fence per shard group.
func (l *ladder) apply16(in *memInstance, next func() op) {
	ops := make([]store.Op, 16)
	dst := make([]store.OpResult, 16)
	batch := func() int {
		for i := range ops {
			o := next()
			if o.kind == opGet {
				ops[i] = store.Op{Kind: nv.OpGet, Key: o.key}
				continue
			}
			in.seq++
			ops[i] = store.Op{Kind: nv.OpPut, Key: o.key, Value: value(in.seq, o.key)}
		}
		dst = in.sess.Apply(ops, dst)
		for i, o := range ops {
			l.t.attempted++
			if want := in.last[o.Key]; o.Kind == nv.OpGet && (dst[i].Value != want || dst[i].OK != (want != 0)) {
				l.t.fail("apply16 get %d = %#x,%v, want %#x", o.Key, dst[i].Value, dst[i].OK, want)
			} else if o.Kind == nv.OpPut {
				in.last[o.Key] = o.Value
			}
		}
		return len(ops)
	}
	before := in.st.Stats()
	for i := 0; i < counterOps/len(ops); i++ {
		batch()
	}
	d := in.st.Stats().Sub(before)
	l.set("shard.apply16_fence_per_op", float64(d.Fences)/counterOps, "count")
	l.set("shard.apply16_ns_per_op", l.timed("l-shard.apply16", batch), "ns")
}

// openServed opens the store the serving rungs share a shape with: what
// cmd/nvserver opens for -shards 4 -size 65536.
func openServed(cfg store.Config) (store.Store, error) {
	cfg.Kind, cfg.Shards, cfg.SizeHint, cfg.Profile = nv.HashMap, 4, keySpace, pmem.ProfileZero
	cfg.MaxSessions = 80
	return store.Open(cfg)
}

// waiter is the reusable completion object of the pool rungs.
type waiter struct{ done chan error }

func (w *waiter) Complete(res store.OpResult, err error) {
	if err == nil && !res.OK {
		err = errors.New("put not applied")
	}
	w.done <- err
}

// submitter feeds a pool with the stream's keys as PUTs.
type submitter struct {
	l    *ladder
	pool *batcher.Pool
	next func() op
	seq  uint64
	w    waiter
}

func (l *ladder) submitter(st store.Store) *submitter {
	// One completion per outstanding request can be pending at once.
	return &submitter{l: l, pool: batcher.NewPool(st, batcher.PoolConfig{}), next: l.stream(ycsbA),
		w: waiter{done: make(chan error, poolDepth)}}
}

func (s *submitter) submit() {
	s.seq++
	k := s.next().key
	s.pool.Submit(store.Op{Kind: nv.OpPut, Key: k, Value: value(s.seq, k)}, &s.w)
}

func (s *submitter) wait() {
	s.l.t.attempted++
	if err := <-s.w.done; err != nil {
		s.l.t.fail("pool put: %v", err)
	}
}

// lone times one PUT at a time: nothing else is in the ring.
func (s *submitter) lone(name string) float64 {
	var h hist
	s.l.timed(name, func() int {
		start := s.l.tr.now()
		s.submit()
		s.wait()
		h.record(s.l.tr.now() - start)
		return 1
	})
	return h.quantile(0.5) / 1e3
}

// loaded keeps poolDepth PUTs outstanding and returns ns per PUT.
func (s *submitter) loaded(name string) float64 {
	for i := 0; i < poolDepth; i++ {
		s.submit()
	}
	ns := s.l.timed(name, func() int {
		s.wait()
		s.submit()
		return 1
	})
	for i := 0; i < poolDepth; i++ {
		s.wait()
	}
	return ns
}

// pool prices the group-commit stage alone, over a store with no files.
func (l *ladder) pool() error {
	st, err := openServed(store.Config{})
	if err != nil {
		return err
	}
	defer st.Close()
	s := l.submitter(st)
	defer s.pool.Close()
	l.set("batcher.lone_put_us", s.lone("l-pool.lone"), "us")
	before := s.pool.Stats()
	l.set("batcher.put_ns_per_op", s.loaded("l-pool.loaded"), "ns")
	after := s.pool.Stats()
	flushes := float64(max(after.Flushes-before.Flushes, 1))
	l.set("batcher.ops_per_flush", float64(after.Ops-before.Ops)/flushes, "count")
	l.set("batcher.groups_per_flush", float64(after.Groups-before.Groups)/flushes, "count")
	return nil
}

// wal puts a data directory under the pool rung, through a file system that
// counts and times, then prices what a data directory costs afterwards:
// replay of the log (l-wal), checkpoint and reopen from it (l-wal-sync).
func (l *ladder) wal(sync bool) error {
	var c fsCounts
	cfg := store.Config{Dir: l.e.path("w"), SyncFence: sync, FS: countingFS{vfs.OS, &c}}
	puts, err := l.walLoad(cfg, &c)
	if err != nil {
		return err
	}
	// Reopening leaves the directory as it found it, so it can be repeated:
	// the first two stores are closed again, the third is checked.
	var st store.Store
	reopen := func() (err error) {
		if st != nil {
			if err := st.Close(); err != nil {
				return err
			}
		}
		st, err = openServed(cfg)
		return err
	}
	if sync {
		took, err := l.oneShots("l-wal-sync.reopen", reopen)
		if err != nil {
			return err
		}
		l.set("pmem.reopen_s", took, "s")
	} else {
		var rates []float64
		_, err := l.oneShots("l-wal.replay", func() error {
			if err := reopen(); err != nil {
				return err
			}
			rs := st.ReplayStats()
			rates = append(rates, float64(rs.Bytes)/1e6/max(rs.Elapsed.Seconds(), 1e-9))
			return nil
		})
		if err != nil {
			return err
		}
		l.set("pmem.replay_mb_s", median(rates), "MB/s")
	}
	defer st.Close()
	l.checkReopened(st, puts)
	return nil
}

// walLoad opens the directory, keeps poolDepth PUTs outstanding for one
// rung, and closes it: without a checkpoint when the log is to be replayed,
// after a timed one otherwise. It returns how many PUTs were acknowledged.
func (l *ladder) walLoad(cfg store.Config, c *fsCounts) (puts uint64, err error) {
	st, err := openServed(cfg)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	s := l.submitter(st)
	if !cfg.SyncFence {
		l.set("pmem.wal_put_ns_per_op", s.loaded("l-wal.loaded"), "ns")
		s.pool.Close()
		return s.seq, nil
	}
	dev := deviceBytes()
	s.loaded("l-wal-sync.loaded")
	s.pool.Close()
	n := float64(s.seq)
	l.set("pmem.wal_bytes_per_write", float64(c.bytes.Load())/n, "B")
	l.set("pmem.wal_writes_per_write", float64(c.writes.Load())/n, "count")
	l.set("pmem.wal_write_us", c.writeTime.quantile(0.5)/1e3, "us")
	l.set("pmem.wal_syncs_per_write", float64(c.syncs.Load())/n, "count")
	l.set("pmem.wal_sync_us", c.syncTime.quantile(0.5)/1e3, "us")
	l.set("pmem.dev_bytes_per_write", float64(deviceBytes()-dev)/n, "B")

	// A checkpoint dumps the memory image whatever the log holds, so the
	// second and third cost what the first did.
	written := c.bytes.Load()
	took, err := l.oneShots("l-wal-sync.checkpoint", st.Checkpoint)
	if err != nil {
		return 0, err
	}
	l.set("pmem.ckpt_s", took, "s")
	l.set("pmem.ckpt_bytes", float64(c.bytes.Load()-written)/3, "B")
	return s.seq, nil
}

// checkReopened requires a reopened store to hold the last value the
// submitter's stream wrote to each key: every PUT was acknowledged.
func (l *ladder) checkReopened(st store.Store, puts uint64) {
	last := make(map[uint64]uint64)
	next := l.stream(ycsbA)
	for seq := uint64(1); seq <= puts; seq++ {
		k := next().key
		last[k] = value(seq, k)
	}
	sess := st.NewSession()
	for k, want := range last {
		l.t.attempted++
		if got, ok := sess.Get(k); !ok || got != want {
			l.t.fail("reopened store: key %d = %#x,%v, want %#x", k, got, ok, want)
		}
	}
}

// deviceBytes reads the bytes this process has caused to be sent to the
// storage layer (Linux; 0 elsewhere).
func deviceBytes() int64 {
	data, _ := os.ReadFile("/proc/self/io")
	for _, line := range strings.Split(string(data), "\n") {
		var n int64
		if _, err := fmt.Sscanf(line, "write_bytes: %d", &n); err == nil {
			return n
		}
	}
	return 0
}

// served is an in-process server on a Unix socket of the run's directory.
type served struct {
	srv  *server.Server
	st   store.Store
	addr string
	done chan error
}

// serve builds a server over st. With a probe the store and the listener
// are wrapped, so the server's calls into both are seen from outside.
func (l *ladder) serve(st store.Store, p *probe, socks *sockCounts) (*served, error) {
	s := &served{st: st, addr: "unix:" + l.e.path("l"), done: make(chan error, 1)}
	ln, err := server.Listen(s.addr)
	if err != nil {
		st.Close()
		return nil, err
	}
	if p != nil {
		st, ln = probedStore{st, p}, countingListener{ln, socks}
	}
	s.srv = server.New(st, server.Config{})
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *served) close() {
	s.srv.Close()
	<-s.done
	s.st.Close()
}

// loneWire sends one request at a time, a GET and a PUT in turn, and returns
// the median round trips. With a probe it also splits each round trip at
// the store's boundary, all on the tracer's clock.
func (l *ladder) loneWire(rung, addr string, bin bool, ks *keyState, p *probe) (getUs, putUs float64, err error) {
	cl, err := dial(addr, bin)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	var get, put, getIn, putIn, commit, putOut hist
	next := l.stream(ycsbA)
	seq := ks.seq0
	// The loaded phase that follows must see what this one wrote, and
	// number its own writes above it.
	defer func() { ks.seq0 = seq }()
	roundTrip := func(r request) (rep server.Reply, start, end int64, err error) {
		start = l.tr.now()
		if r.kind == opGet {
			err = cl.SendGet(r.key)
		} else {
			err = cl.SendPut(r.key, r.want)
		}
		if err = cmp.Or(err, cl.Flush()); err == nil {
			rep, err = cl.ReadReply()
		}
		return rep, start, l.tr.now(), err
	}
	if p != nil {
		p.stamp.Store(true)
		defer p.stamp.Store(false)
	}
	var fail error
	l.timed("l-"+rung+".lone", func() int {
		if fail != nil {
			return 1
		}
		// PUT, then GET of the same key: the reply must be the value just
		// acknowledged.
		seq++
		k := next().key
		w := request{kind: opPut, key: k, want: value(seq, k)}
		rep, start, end, err := roundTrip(w)
		if err != nil {
			fail = err
			return 1
		}
		l.t.attempted++
		if rep.Status != "OK" {
			l.t.fail("%s lone put %d: reply %+v", rung, k, rep)
		}
		ks.sent[k] = w.want
		ks.acked[k].Store(w.want)
		put.record(end - start)
		if p != nil {
			if s, ok := p.takePut(seq); ok {
				root := l.tr.add("l-"+rung+".put", start, end, -1, seq)
				l.tr.add("server.put_ingress", start, s.enter, root, seq)
				l.tr.add("store.commit", s.enter, s.commit, root, seq)
				l.tr.add("server.put_egress", s.commit, end, root, seq)
				putIn.record(s.enter - start)
				commit.record(s.commit - s.enter)
				putOut.record(end - s.commit)
			}
		}
		rep, start, end, err = roundTrip(request{kind: opGet, key: k})
		if err != nil {
			fail = err
			return 1
		}
		l.t.attempted++
		if rep.IsErr() {
			l.t.fail("%s lone get %d: error reply %q", rung, k, rep.Err)
		} else {
			checkGet(&l.t, request{key: k, want: w.want, exact: true}, rep)
		}
		get.record(end - start)
		if p != nil {
			enter := p.getEnter.Load()
			root := l.tr.add("l-"+rung+".get", start, end, -1, seq)
			l.tr.add("server.get_ingress", start, enter, root, seq)
			getIn.record(enter - start)
		}
		return 1
	})
	if fail != nil {
		return 0, 0, fmt.Errorf("%s lone: %w", rung, fail)
	}
	if p != nil {
		l.set("server.get_ingress_us", getIn.quantile(0.5)/1e3, "us")
		l.set("server.put_ingress_us", putIn.quantile(0.5)/1e3, "us")
		l.set("store.commit_us", commit.quantile(0.5)/1e3, "us")
		l.set("server.put_egress_us", putOut.quantile(0.5)/1e3, "us")
	}
	return get.quantile(0.5) / 1e3, put.quantile(0.5) / 1e3, nil
}

// loadedWire runs the wire workloads' closed loop (4 connections x 8 in
// flight, YCSB-A) for one rung and returns ns per operation, the operations
// completed in the window, and all of them (warm-up and drain included).
func (l *ladder) loadedWire(rung, addr string, bin bool, ks *keyState) (nsPerOp, ops, all float64, err error) {
	w := newWindow(float64(l.per) / 1e9)
	t, err := runConns(addr, bin, ycsbA, l.seed, ks, wireDepth, w)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("%s loaded: %w", rung, err)
	}
	l.tr.add("l-"+rung+".loaded", int64(w.t0.Sub(l.tr.t0))+w.start, int64(w.t0.Sub(l.tr.t0))+w.end, -1, 0)
	l.t.add(t)
	return w.seconds() * 1e9 / float64(max(t.ops, 1)), float64(t.ops), float64(t.attempted), nil
}

// wire prices one protocol: a server built in this process over a probed
// store and a counting listener, a lone client and then the loaded one. The
// binary rung also runs the loaded client against an unwrapped server; the
// difference is what the tracing costs.
func (l *ladder) wire(proto string, bin bool) error {
	st, err := openServed(store.Config{})
	if err != nil {
		return err
	}
	p := &probe{tr: l.tr, puts: map[uint64]putStamps{}}
	var socks sockCounts
	s, err := l.serve(st, p, &socks)
	if err != nil {
		return err
	}
	defer s.close()
	ks := newKeyState(wireConns)
	if err := prefill(s.addr, ks); err != nil {
		return err
	}
	getUs, putUs, err := l.loneWire(proto, s.addr, bin, ks, p)
	if err != nil {
		return err
	}
	l.set("server."+proto+"_get_rtt_us", getUs, "us")
	l.set("server."+proto+"_put_rtt_us", putUs, "us")

	reads, writes, bytes := socks.reads.Load(), socks.writes.Load(), socks.bytes.Load()
	applies, applied := p.applies.Load(), p.applied.Load()
	nsPerOp, ops, all, err := l.loadedWire(proto, s.addr, bin, ks)
	if err != nil {
		return err
	}
	l.set("server."+proto+"_ns_per_op", nsPerOp, "ns")
	if !bin {
		return readBack(s.addr, ks, &l.t, "l-text")
	}
	// The counters cover warm-up and drain too, so they are divided by every
	// operation the loaded clients completed, not by the window's.
	l.set("store.ops_per_apply", float64(p.applied.Load()-applied)/float64(max(p.applies.Load()-applies, 1)), "count")
	l.set("server.sock_reads_per_op", float64(socks.reads.Load()-reads)/all, "count")
	l.set("server.sock_writes_per_op", float64(socks.writes.Load()-writes)/all, "count")
	l.set("server.wire_bytes_per_op", float64(socks.bytes.Load()-bytes)/all, "B")
	if err := readBack(s.addr, ks, &l.t, "l-bin"); err != nil {
		return err
	}

	plainStore, err := openServed(store.Config{})
	if err != nil {
		return err
	}
	plain, err := l.serve(plainStore, nil, nil)
	if err != nil {
		return err
	}
	defer plain.close()
	plainKeys := newKeyState(wireConns)
	if err := prefill(plain.addr, plainKeys); err != nil {
		return err
	}
	// Two loaded runs differ by a few percent whatever they run against, so
	// the pair is repeated, the sides taking turns, and the median counts.
	shares := []float64{}
	for round := 0; round < 3; round++ {
		_, plainOps, _, err := l.loadedWire("bin-plain", plain.addr, true, plainKeys)
		if err != nil {
			return err
		}
		shares = append(shares, 1-ops/max(plainOps, 1))
		if _, ops, _, err = l.loadedWire("bin", s.addr, true, ks); err != nil {
			return err
		}
	}
	l.set("trace.overhead_share", median(shares), "ratio")
	return nil
}

// wait1 puts a replica and a write quorum of 1 behind the binary rung: an
// in-process primary, and a second server attached to it with StartReplica.
func (l *ladder) wait1() error {
	st, err := openServed(store.Config{WaitReplicas: 1})
	if err != nil {
		return err
	}
	primary, err := l.serve(st, nil, nil)
	if err != nil {
		return err
	}
	defer primary.close()
	rst, err := openServed(store.Config{})
	if err != nil {
		return err
	}
	replica, err := l.serve(rst, nil, nil)
	if err != nil {
		return err
	}
	defer replica.close()
	if err := replica.srv.StartReplica(primary.addr, ""); err != nil {
		return fmt.Errorf("attach replica: %w", err)
	}
	for deadline := time.Now().Add(20 * time.Second); st.Repl().Replicas < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			return errors.New("l-wait1: replica never attached")
		}
	}
	ks := newKeyState(wireConns)
	if err := prefill(primary.addr, ks); err != nil {
		return err
	}
	_, putUs, err := l.loneWire("wait1", primary.addr, true, ks, nil)
	if err != nil {
		return err
	}
	l.set("repl.wait1_put_rtt_us", putUs, "us")

	// The primary's backlog is sampled while the loaded clients run.
	stop, lag := make(chan struct{}), make(chan uint64)
	go func() {
		var worst uint64
		for {
			select {
			case <-stop:
				lag <- worst
				return
			case <-time.After(time.Millisecond):
				worst = max(worst, st.Repl().MaxLagGroups)
			}
		}
	}()
	nsPerOp, _, _, err := l.loadedWire("wait1", primary.addr, true, ks)
	close(stop)
	l.set("repl.lag_groups_max", float64(<-lag), "count")
	if err != nil {
		return err
	}
	l.set("repl.wait1_ns_per_op", nsPerOp, "ns")
	return readBack(replica.addr, ks, &l.t, "l-wait1 replica")
}

// restart is the one rung with a child: a -data -sync nvserver takes the
// prefill (32,768 fsynced PUTs), is killed, and is timed from spawn to its
// first served request on the same directory, three times over.
func (l *ladder) restart() error {
	flags := []string{"-data", l.e.path("d"), "-sync"}
	c, err := l.e.spawn(flags...)
	if err != nil {
		return err
	}
	ks := newKeyState(wireConns)
	if err := prefill(c.addr, ks); err != nil {
		return err
	}
	l.set("proc.rss_mb", c.rssMB(), "MB")
	defer func() { c.kill() }()
	var took []float64
	for i := 0; i < 3; i++ {
		c.kill()
		start := l.tr.now()
		if c, err = l.e.spawnAt(c.addr, flags...); err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		end := l.tr.now()
		l.tr.add("l-restart", start, end, -1, 0)
		took = append(took, float64(end-start)/1e9)
	}
	l.set("pmem.restart_s", median(took), "s")
	return readBack(c.addr, ks, &l.t, "l-restart")
}
