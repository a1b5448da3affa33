package server

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
)

// The shard package pins Session.Get at zero allocations; these tests
// extend that guarantee up through the serving path: binary frame decode,
// shard-affine ring submission, group commit, and reply rendering into the
// connection's reusable slot. AllocsPerRun counts mallocs process-wide, so
// the pool worker goroutines are covered too — a closure or slice born per
// flush anywhere in the path fails the test.

// allocHarness builds a server and a binary connState wired straight to the
// exec layer (no socket: the network write is the kernel's job, the
// allocation story ends at the rendered slot buffer).
func allocHarness(t *testing.T) (*connState, func()) {
	t.Helper()
	st, err := store.Open(store.Config{
		Kind: core.KindHash, Policy: persist.NVTraverse{}, Profile: pmem.ProfileZero,
		Shards: 4, SizeHint: 1 << 12, MaxSessions: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A lone write flushes at once, so each measured iteration spans a
	// complete submit → fence → complete round trip.
	srv := New(st, Config{MaxConns: 2, MaxBatch: 4})
	sess := st.NewSession()
	cs := newConnState(srv, sess, 8, &binCodec{})
	for k := uint64(1); k <= 512; k++ {
		sess.Insert(k, k)
	}
	return cs, func() { srv.Close() }
}

// roundTrip pushes one binary request payload through the decoder and exec
// and drains its reply slot, asserting the reply tag.
func roundTrip(t *testing.T, cs *connState, op byte, payload []byte, wantTag byte) {
	cs.exec(parseBin(op, payload, nil))
	sl := <-cs.order
	<-sl.ready
	if len(sl.buf) < 5 || sl.buf[4] != wantTag {
		t.Fatalf("reply % x, want tag %d", sl.buf, wantTag)
	}
	cs.free <- sl
}

// TestBinaryWritePathAllocs: PUT to an existing key — decode, submit to the
// key's worker ring, group commit, OK frame — at zero allocations per op.
func TestBinaryWritePathAllocs(t *testing.T) {
	cs, stop := allocHarness(t)
	defer stop()
	payload := make([]byte, 16)
	put := func(k uint64) {
		binary.LittleEndian.PutUint64(payload, k)
		binary.LittleEndian.PutUint64(payload[8:], k*7)
		roundTrip(t, cs, binOpPut, payload, binTagOK)
	}
	for i := uint64(1); i <= 128; i++ { // warm worker scratch and slot buffers
		put(i%512 + 1)
	}
	if avg := testing.AllocsPerRun(200, func() { put(137) }); avg != 0 {
		t.Errorf("binary PUT path: %v allocs per op, want 0", avg)
	}
}

// TestBinaryReadPathAllocs: GET — await outstanding writes, decode, engine
// lookup, VALUE/NIL frame — at zero allocations per op, hit and miss.
func TestBinaryReadPathAllocs(t *testing.T) {
	cs, stop := allocHarness(t)
	defer stop()
	payload := make([]byte, 8)
	get := func(k uint64, wantTag byte) {
		binary.LittleEndian.PutUint64(payload, k)
		roundTrip(t, cs, binOpGet, payload, wantTag)
	}
	for i := uint64(1); i <= 64; i++ { // warm up
		get(i, binTagValue)
	}
	if avg := testing.AllocsPerRun(200, func() {
		get(321, binTagValue)
		get(100021, binTagNil) // miss path must be clean too
	}); avg != 0 {
		t.Errorf("binary GET path: %v allocs per 2 gets, want 0", avg)
	}
}

// TestClientBinaryReplyAllocs: the client's side of a binary point request
// — queue the frame, flush, read the reply — allocates nothing, and since
// the server shares the process, neither does its whole socket path (read
// loop, exec, group commit, writer goroutine).
func TestClientBinaryReplyAllocs(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 4, Config{})
	cl, err := Dial(addr, WithBinaryProto())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	do := func(send error, check func(Reply) bool) {
		if send != nil {
			t.Fatal(send)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		if r, err := cl.ReadReply(); err != nil || !check(r) {
			t.Fatalf("reply %+v %v", r, err)
		}
	}
	round := func() {
		do(cl.SendPut(7, 49), func(r Reply) bool { return r.Status == "OK" })
		do(cl.SendGet(7), func(r Reply) bool { return r.Found && r.Value == 49 })
		do(cl.SendGet(8), func(r Reply) bool { return !r.Found && !r.IsErr() })
	}
	for i := 0; i < 64; i++ { // warm slot buffers and worker scratch
		round()
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("binary PUT + GET hit + GET miss round trips: %v allocs, want 0", avg)
	}
}
