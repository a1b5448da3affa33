package repl

import (
	"bufio"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/batcher"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/pmem"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestConcurrentFullResync: two replicas holding stale contents attach to
// one primary while writers commit through the group-commit pool. Both
// full-resync at the same time — wipe, snapshot read through a session
// scan, then the stream — and once the writers stop and both replicas have
// acknowledged every log head, each equals the primary key for key and
// value for value. Every kind, 4 shards; run it under -race.
func TestConcurrentFullResync(t *testing.T) {
	for _, kind := range core.Kinds() {
		t.Run(string(kind), func(t *testing.T) { testConcurrentFullResync(t, kind) })
	}
}

func testConcurrentFullResync(t *testing.T, kind core.Kind) {
	keys, extraOps := uint64(2048), int64(2000)
	if testing.Short() {
		keys, extraOps = 512, 500
	}
	open := func() store.Store {
		st, err := store.Open(store.Config{Kind: kind, Shards: 4, Profile: pmem.ProfileZero, SizeHint: int(keys), MaxSessions: 32})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	prim := open()
	fill := prim.NewSession()
	for k := uint64(1); k <= keys; k++ {
		fill.Put(k, k)
	}
	p := NewPrimary(prim, PrimaryConfig{})
	pool := batcher.NewPool(prim, batcher.PoolConfig{OnCommit: p})
	ln, err := net.Listen("unix", filepath.Join(t.TempDir(), "p.sock"))
	if err != nil {
		t.Fatal(err)
	}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		acceptReplicas(ln, p, prim, &serving)
	}()

	var stop atomic.Bool
	var ops atomic.Int64
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		rnd := prim.NewSession()
		writers.Add(1)
		go func() {
			defer writers.Done()
			for !stop.Load() {
				op := store.Op{Kind: store.OpPut, Key: rnd.Rand()%keys + 1, Value: rnd.Rand()}
				if rnd.Rand()%4 == 0 {
					op.Kind = store.OpDelete
				}
				if _, err := pool.Do(op); err != nil {
					t.Error(err)
					return
				}
				ops.Add(1)
				// Paced, so the CPUs stay free for the resyncs: on a
				// busy machine a released link can wait a whole time
				// slice for a CPU, and the two resyncs would not overlap.
				time.Sleep(20 * time.Microsecond)
			}
		}()
	}

	var reps []*Replica
	var stores []store.Store
	for i := 0; i < 2; i++ {
		st := open()
		stale := st.NewSession()
		for k := uint64(1); k <= keys+300; k += 3 {
			stale.Put(k, k+7)
		}
		r, err := StartReplica(st, ReplicaConfig{Primary: "unix:" + ln.Addr().String(), Reconnect: 10 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		reps, stores = append(reps, r), append(stores, st)
	}

	// Writes go on until both snapshots are in and extraOps more landed.
	waitFor(t, "both replicas past their snapshot", func() bool {
		return reps[0].Stats().LastAckSeq > 0 && reps[1].Stats().LastAckSeq > 0
	})
	base := ops.Load()
	waitFor(t, "writes after the snapshots", func() bool { return ops.Load() >= base+extraOps })
	stop.Store(true)
	writers.Wait()

	waitFor(t, "both replicas caught up", func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		for _, r := range reps {
			r.mu.Lock()
			acked := append([]uint64(nil), r.acked...)
			r.mu.Unlock()
			if len(acked) != len(p.logs) {
				return false
			}
			for sh, l := range p.logs {
				if acked[sh] != l.head() {
					return false
				}
			}
		}
		return true
	})
	want := dumpStore(t, prim)
	for i, st := range stores {
		got := dumpStore(t, st)
		if len(got) != len(want) {
			t.Errorf("replica %d holds %d keys, primary %d", i, len(got), len(want))
		}
		for k, v := range want {
			if gv, ok := got[k]; !ok || gv != v {
				t.Errorf("replica %d: key %d = %d, %v; primary has %d", i, k, gv, ok, v)
				break
			}
		}
	}

	for _, r := range reps {
		r.Close()
	}
	ln.Close()
	pool.Close()
	p.Close()
	serving.Wait()
}

// acceptReplicas hands every replica link on ln to p, as the server does
// after a PSYNC request. The first two links start together, so their full
// resyncs overlap.
func acceptReplicas(ln net.Listener, p *Primary, st store.Store, serving *sync.WaitGroup) {
	start := make(chan struct{})
	for n := 1; ; n++ {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		if n == 2 {
			close(start)
		}
		serving.Add(1)
		go func() {
			defer serving.Done()
			<-start
			br := bufio.NewReader(c)
			if _, err := io.ReadFull(br, make([]byte, len(wire.Preamble))); err != nil {
				c.Close()
				return
			}
			op, payload, _, err := wire.ReadFrame(br, nil)
			if err != nil || op != OpPSync {
				c.Close()
				return
			}
			p.ServeConn(c, br, st.NewSession(), payload)
		}()
	}
}

// dumpStore reads every pair of st through a whole-range scan.
func dumpStore(t *testing.T, st store.Store) map[uint64]uint64 {
	t.Helper()
	m := map[uint64]uint64{}
	if err := st.NewSession().Scan(kv.MinKey, kv.MaxKey, func(k, v uint64) bool {
		m[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitFor polls cond until it holds, failing the test after 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
