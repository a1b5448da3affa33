package server

// End-to-end replication tests: a primary and replicas as real servers on
// Unix sockets, the replication channel negotiated over the shared wire
// protocol, and failover driven through PROMOTE.

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crashtest"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
)

// startReplicaServer opens a fresh store, serves it, and attaches it to
// primaryAddr's replication stream.
func startReplicaServer(t *testing.T, primaryAddr string, kind core.Kind, shards int, wmPath string) (string, *Server) {
	t.Helper()
	st, err := store.Open(store.Config{
		Kind: kind, Policy: persist.NVTraverse{}, Profile: pmem.ProfileZero,
		Shards: shards, SizeHint: 1 << 12, MaxSessions: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(st, Config{MaxConns: 8})
	if err := srv.StartReplica(primaryAddr, wmPath); err != nil {
		t.Fatal(err)
	}
	addr := "unix:" + filepath.Join(t.TempDir(), "replica.sock")
	ln, err := Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("replica serve: %v", err)
		}
		st.Close()
	})
	return addr, srv
}

// startWaitPrimary serves a fresh 2-shard hash store whose write quorum
// (store.Config.WaitReplicas) is k, failing unconfirmed writes after
// timeout.
func startWaitPrimary(t *testing.T, k int, timeout time.Duration) (string, *Server) {
	t.Helper()
	st, err := store.Open(store.Config{
		Kind: core.KindHash, Policy: persist.NVTraverse{}, Profile: pmem.ProfileZero,
		Shards: 2, SizeHint: 1 << 12, MaxSessions: 16, WaitReplicas: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	return serveStore(t, st, Config{MaxConns: 8, WaitTimeout: timeout})
}

// waitForKey polls a client until key reads back with want.
func waitForKey(t *testing.T, cl *Client, key, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok, err := cl.Get(key)
		if err == nil && ok && v == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %d never reached %d (last: %d found=%v err=%v)", key, want, v, ok, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitForStat(t *testing.T, cl *Client, name string, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl.Stats()
		if err == nil && st[name] == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stat %s never reached %d (last %v, err %v)", name, want, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicationStreamAndSnapshot covers both catch-up paths: keys
// written before the replica attaches arrive via the bootstrap snapshot,
// keys written after it via the stream, and deletes replicate as deletes.
func TestReplicationStreamAndSnapshot(t *testing.T) {
	paddr, _, _ := startServer(t, core.KindHash, 4, Config{})
	pcl, err := Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()

	// Pre-attach state: snapshot material.
	for k := uint64(1); k <= 100; k++ {
		if err := pcl.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	raddr, _ := startReplicaServer(t, paddr, core.KindHash, 4, "")
	rcl, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	waitForKey(t, rcl, 100, 1000)

	// Post-attach writes: stream material, including deletes and the
	// effect forms of insert/update.
	for k := uint64(101); k <= 200; k++ {
		if err := pcl.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := pcl.Del(50); err != nil {
		t.Fatal(err)
	}
	if ok, err := pcl.Insert(300, 3); err != nil || !ok {
		t.Fatalf("insert: %v %v", ok, err)
	}
	if _, ok, err := pcl.Update(300, 4); err != nil || !ok {
		t.Fatalf("update: %v %v", ok, err)
	}
	waitForKey(t, rcl, 300, 4)
	waitForKey(t, rcl, 200, 2000)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok, err := rcl.Get(50); err == nil && !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("delete of key 50 never replicated")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Topology stats on both ends.
	pst, err := pcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if pst["repl_role"] != uint64(store.RolePrimary) || pst["repl_replicas"] != 1 {
		t.Fatalf("primary stats: %v", pst)
	}
	rst, err := rcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if rst["repl_role"] != uint64(store.RoleReplica) || rst["repl_applied_groups"] == 0 {
		t.Fatalf("replica stats: %v", rst)
	}

	// The staleness contract's hard edge: replicas refuse writes, typed.
	if err := rcl.Put(9999, 1); !errors.Is(err, ErrReplica) {
		t.Fatalf("replica write: %v, want ErrReplica", err)
	}
}

// TestWaitQuorumOverWire pins the WAIT semantics end to end: with K=1 and
// no replica a write fails typed after the quorum timeout (durable but
// unconfirmed), and succeeds once a replica is attached and confirming.
func TestWaitQuorumOverWire(t *testing.T) {
	paddr, _ := startWaitPrimary(t, 1, 150*time.Millisecond)
	pcl, err := Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()

	if err := pcl.Put(1, 1); !errors.Is(err, ErrWait) {
		t.Fatalf("unreplicated WAIT write: %v, want ErrWait", err)
	}
	// Reads never wait on the quorum — and the failed WAIT write IS
	// durable on the primary, which the read shows.
	if v, ok, err := pcl.Get(1); err != nil || !ok || v != 1 {
		t.Fatalf("read after quorum failure: %d %v %v", v, ok, err)
	}

	raddr, _ := startReplicaServer(t, paddr, core.KindHash, 2, "")
	rcl, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()
	waitForStat(t, pcl, "repl_replicas", 1)

	// Non-sticky: the same client, the same connection, now succeeds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := pcl.Put(2, 2); err == nil {
			break
		} else if !errors.Is(err, ErrWait) {
			t.Fatalf("WAIT write after attach: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("WAIT writes never recovered after replica attach")
		}
	}
	// Replied ⇒ replicated: the acknowledged write is already on the
	// replica (modulo only this Get's own round trip).
	waitForKey(t, rcl, 2, 2)
}

// TestPromoteFailover kills the primary under load and promotes the
// replica: every write the primary acknowledged under WAIT must be
// present on the promoted replica, which must accept writes afterwards.
func TestPromoteFailover(t *testing.T) {
	paddr, psrv := startWaitPrimary(t, 1, 2*time.Second)
	raddr, _ := startReplicaServer(t, paddr, core.KindHash, 2, "")
	rcl, err := Dial(raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.Close()

	pcl, err := Dial(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.Close()
	waitForStat(t, pcl, "repl_replicas", 1)

	// Concurrent writers recording which inserts were acknowledged; the
	// primary dies mid-load.
	const writers, perWriter = 3, 200
	type rec struct {
		key, value uint64
		acked, ok  bool
	}
	records := make([][]rec, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(paddr)
			if err != nil {
				return
			}
			defer cl.Close()
			base := (uint64(w) + 1) << 32
			for i := uint64(1); i <= perWriter; i++ {
				k, v := base+i, i|1
				r := rec{key: k, value: v}
				ok, err := cl.Insert(k, v)
				if err == nil {
					r.acked, r.ok = true, ok
				} else if errors.Is(err, ErrWait) {
					// Durable on the primary but unconfirmed: after a
					// failover this write may be lost — the client must
					// NOT count it as acknowledged. In-flight for the
					// checker.
				} else {
					return // primary died; everything after is unsent
				}
				records[w] = append(records[w], r)
			}
		}(w)
	}
	// Let the load run, then kill the primary out from under it.
	time.Sleep(100 * time.Millisecond)
	psrv.Close()
	wg.Wait()

	if err := rcl.Promote(); err != nil {
		t.Fatal(err)
	}

	// The durable-linearizability checker over the promoted replica:
	// acked ⇒ present with the exact value, in-flight either way.
	view := &replicaView{cl: rcl}
	var hists []*crashtest.History
	acked := 0
	for _, rs := range records {
		h := &crashtest.History{}
		for _, r := range rs {
			view.attempted = append(view.attempted, r.key)
			if r.acked {
				h.Completed(crashtest.OpInsert, r.key, r.value, r.ok)
				acked++
			} else {
				h.InFlight(crashtest.OpInsert, r.key, r.value)
			}
		}
		hists = append(hists, h)
	}
	if acked == 0 {
		t.Fatal("no write was acknowledged before the kill; torture proved nothing")
	}
	violations, present := crashtest.Check(view, nil, hists, crashtest.CheckConfig{CheckValues: true})
	if view.err != nil {
		t.Fatalf("wire error during check: %v", view.err)
	}
	if len(violations) > 0 {
		t.Fatalf("%d lost acked writes after failover (%d present): first %s",
			len(violations), present, violations[0])
	}

	// The promoted replica is a primary now: writes succeed.
	if err := rcl.Put(424242, 1); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	st, err := rcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["repl_role"] != uint64(store.RolePrimary) {
		t.Fatalf("promoted stats: %v", st)
	}
}

// replicaView adapts a wire client to crashtest.Set (pmem.Thread params
// unused: the structure lives behind the socket).
type replicaView struct {
	cl        *Client
	attempted []uint64
	err       error
}

func (r *replicaView) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

func (r *replicaView) Find(_ *pmem.Thread, k uint64) (uint64, bool) {
	v, ok, err := r.cl.Get(k)
	r.fail(err)
	return v, ok
}

func (r *replicaView) Insert(_ *pmem.Thread, k, v uint64) bool {
	ok, err := r.cl.Insert(k, v)
	r.fail(err)
	return ok
}

func (r *replicaView) Delete(_ *pmem.Thread, k uint64) bool {
	ok, err := r.cl.Del(k)
	r.fail(err)
	return ok
}

func (r *replicaView) Recover(*pmem.Thread) {}

func (r *replicaView) Contents(*pmem.Thread) []uint64 {
	var present []uint64
	for _, k := range r.attempted {
		if _, ok := r.Find(nil, k); ok {
			present = append(present, k)
		}
	}
	return present
}

// TestPromoteIdempotent pins PROMOTE on a server that already is a
// primary: +OK, no state change.
func TestPromoteIdempotent(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 1, Config{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(1, 1); err != nil {
		t.Fatal(err)
	}
}

// TestDialOptionsReadRouting pins the redesigned Dial surface: one
// constructor, options for protocol and routing, reads served by the
// replica connection.
func TestDialOptionsReadRouting(t *testing.T) {
	paddr, _, _ := startServer(t, core.KindHash, 2, Config{})
	raddr, rsrv := startReplicaServer(t, paddr, core.KindHash, 2, "")

	cl, err := Dial(paddr,
		WithBinaryProto(),
		WithDialTimeout(5*time.Second),
		WithReadFrom(ReadReplica),
		WithReplicaAddrs(raddr),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Put(77, 770); err != nil {
		t.Fatal(err)
	}
	// The synchronous Get goes to the replica: poll until the stream
	// catches up (read-your-writes explicitly does NOT hold).
	deadline := time.Now().Add(10 * time.Second)
	for {
		v, ok, err := cl.Get(77)
		if err == nil && ok && v == 770 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica-routed read never caught up: %d %v %v", v, ok, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Prove the read really came from the replica's server.
	if got := rsrv.connCount(); got == 0 {
		t.Fatal("no connection reached the replica server")
	}

	// ReadNearest with no replica addrs degenerates to the primary.
	cl2, err := Dial(paddr, WithReadFrom(ReadNearest))
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if v, ok, err := cl2.Get(77); err != nil || !ok || v != 770 {
		t.Fatalf("nearest read: %d %v %v", v, ok, err)
	}
}
