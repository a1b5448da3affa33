package repl

// Replica stream tests: a scripted primary over net.Pipe pins the
// ack-before-block rule, and FuzzReplicaStream drives the post-HELLO frame
// loop with arbitrary bytes.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/batcher"
	"repro/internal/store"
	"repro/internal/wire"
)

// newTestReplica builds a replica over a fresh store without starting its
// dial loop; tests drive syncOn or applyStream themselves.
func newTestReplica(t testing.TB, shards int) *Replica {
	t.Helper()
	st, err := store.Open(store.Config{Kind: "hash", Shards: shards, SizeHint: 1 << 10, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return &Replica{
		st:    st,
		sess:  st.NewSession(),
		cfg:   ReplicaConfig{ApplyBatch: 256},
		acked: make([]uint64, shards),
		done:  make(chan struct{}),
	}
}

// scriptPrimary answers the replica's PSYNC on c with a HELLO frame.
func scriptPrimary(t *testing.T, c net.Conn, shards int, full bool) {
	t.Helper()
	var pre [7]byte // binary preamble + request header
	if _, err := io.ReadFull(c, pre[:]); err != nil {
		t.Fatal(err)
	}
	if pre[6] != OpPSync {
		t.Fatalf("replica sent opcode %d, want PSYNC", pre[6])
	}
	if _, err := io.ReadFull(c, make([]byte, binary.LittleEndian.Uint32(pre[2:])-1)); err != nil {
		t.Fatal(err)
	}
	var hello [13]byte
	binary.LittleEndian.PutUint64(hello[:], 1)
	binary.LittleEndian.PutUint32(hello[8:], uint32(shards))
	if full {
		hello[12] = 1
	}
	if _, err := c.Write(wire.AppendFrame(nil, frameHello, hello[:])); err != nil {
		t.Fatal(err)
	}
}

// readAcks reads n ack frames from c, failing unless they all arrive
// within d, and returns them as shard → seq.
func readAcks(t *testing.T, c net.Conn, n int, d time.Duration) map[int]uint64 {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(d))
	got := make(map[int]uint64)
	for i := 0; i < n; i++ {
		op, payload, _, err := wire.ReadFrame(c, nil)
		if err != nil {
			t.Fatalf("ack %d of %d did not arrive within %v: %v", i+1, n, d, err)
		}
		if op != frameAck || len(payload) != 12 {
			t.Fatalf("replica sent frame %d (%d bytes), want an ack", op, len(payload))
		}
		got[int(binary.LittleEndian.Uint32(payload))] = binary.LittleEndian.Uint64(payload[4:])
	}
	return got
}

// runScripted starts the replica side of a link over net.Pipe and returns
// the primary's end; closing it ends the replica's stream.
func runScripted(t *testing.T, r *Replica) net.Conn {
	pc, rc := net.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- r.syncOn(rc) }()
	t.Cleanup(func() {
		pc.Close()
		if err := <-errc; !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("replica stream ended with %v", err)
		}
	})
	return pc
}

// TestReplicaAcksBeforeBlockAfterPing: a batch followed by a ping in one
// write is acked although the burst ends on a frame that is not a batch.
func TestReplicaAcksBeforeBlockAfterPing(t *testing.T) {
	r := newTestReplica(t, 2)
	pc := runScripted(t, r)
	scriptPrimary(t, pc, 2, false)
	burst := appendBatchFrame(nil, 1, 1, []Effect{{Kind: effectPut, Key: 5, Value: 50}})
	burst = wire.AppendFrame(burst, framePing, nil)
	if _, err := pc.Write(burst); err != nil {
		t.Fatal(err)
	}
	if got := readAcks(t, pc, 1, 100*time.Millisecond); got[1] != 1 {
		t.Fatalf("acks %v, want shard 1 at seq 1", got)
	}
	if st := r.Stats(); st.AppliedGroups != 1 || st.AppliedOps != 1 {
		t.Fatalf("stats after ack: %+v", st)
	}
}

// TestReplicaAcksBeforeBlockAfterSnapEnd: a batch that follows SNAP_END in
// the same write is acked with the cut, one ack per shard, in one burst.
func TestReplicaAcksBeforeBlockAfterSnapEnd(t *testing.T) {
	r := newTestReplica(t, 2)
	pc := runScripted(t, r)
	scriptPrimary(t, pc, 2, true)
	var kv [20]byte
	binary.LittleEndian.PutUint32(kv[:], 1)
	binary.LittleEndian.PutUint64(kv[4:], 7)
	binary.LittleEndian.PutUint64(kv[12:], 70)
	burst := wire.AppendFrame(nil, frameSnapKV, kv[:])
	burst = wire.AppendFrame(burst, frameSnapEnd, binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 2), 3), 0))
	burst = appendBatchFrame(burst, 0, 4, []Effect{{Kind: effectDel, Key: 7}})
	if _, err := pc.Write(burst); err != nil {
		t.Fatal(err)
	}
	if got := readAcks(t, pc, 2, 100*time.Millisecond); got[0] != 4 || got[1] != 0 {
		t.Fatalf("acks %v, want shard 0 at 4 and shard 1 at 0", got)
	}
}

// TestReplicaAckBurstAllocs: acknowledging a burst allocates nothing.
func TestReplicaAckBurstAllocs(t *testing.T) {
	r := newTestReplica(t, 4)
	bw := bufio.NewWriter(io.Discard)
	pos, dirty := []uint64{3, 1, 4, 1}, make([]bool, 4)
	burst := func() {
		dirty[0], dirty[2], dirty[3] = true, true, true
		r.ackBurst(bw, pos, dirty, 1, 1)
	}
	if n := testing.AllocsPerRun(1000, burst); n != 0 {
		t.Fatalf("ackBurst: %v allocs/op, want 0", n)
	}
}

// capturedStream records what a real primary sends a full-resyncing
// replica of a 2-shard store after HELLO: snapshot, cut, batches, ping.
// It also returns the primary's per-shard log heads.
func capturedStream(t testing.TB) ([]byte, []uint64) {
	t.Helper()
	st, err := store.Open(store.Config{Kind: "hash", Shards: 2, SizeHint: 1 << 10, MaxSessions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sess := st.NewSession()
	var res []store.OpResult
	res = sess.Apply([]store.Op{{Kind: store.OpPut, Key: 1, Value: 10}, {Kind: store.OpPut, Key: 2, Value: 20}}, res)
	p := NewPrimary(st, PrimaryConfig{})
	defer p.Close()
	f := &feeder{acked: make([]uint64, 2), next: make([]uint64, 2), wake: make(chan struct{}, 1)}
	p.mu.Lock()
	p.feeds[f] = struct{}{}
	p.mu.Unlock()

	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	if err := p.sendSnapshot(bw, sess, f); err != nil {
		t.Fatal(err)
	}
	// One key per fence group: a group never spans shards.
	for _, op := range []store.Op{{Kind: store.OpPut, Key: 3, Value: 30}, {Kind: store.OpDelete, Key: 1}, {Kind: store.OpPut, Key: 4, Value: 40}} {
		ops := []store.Op{op}
		res = sess.Apply(ops, res)
		p.CommittedGroup(ops, res, []int{0}, make([]batcher.Completer, 1))
	}
	heads := make([]uint64, len(p.logs))
	for sh, l := range p.logs {
		heads[sh] = l.head()
		for _, frame := range l.from(0, nil) {
			bw.Write(frame)
		}
	}
	bw.Write(wire.AppendFrame(nil, framePing, nil))
	bw.Flush()
	return out.Bytes(), heads
}

// TestReplicaAppliesCapturedStream: a real primary's stream applies
// whole and leaves the replica acked at every shard's head.
func TestReplicaAppliesCapturedStream(t *testing.T) {
	stream, heads := capturedStream(t)
	r := newTestReplica(t, 2)
	if err := r.applyStream(bufio.NewReader(bytes.NewReader(stream)), bufio.NewWriter(io.Discard), 2); err != io.EOF {
		t.Fatalf("stream ended with %v, want EOF", err)
	}
	if r.acked[0] != heads[0] || r.acked[1] != heads[1] || heads[0]+heads[1] != 3 {
		t.Fatalf("replica acked %v, primary heads %v", r.acked, heads)
	}
	res := r.sess.MultiGet([]uint64{1, 2, 3, 4}, nil)
	if res[0].OK || res[1].Value != 20 || res[2].Value != 30 || res[3].Value != 40 {
		t.Fatalf("replica holds %+v", res)
	}
}

// wellFormed is the oracle for FuzzReplicaStream: whether a frame is one
// the replica must apply, following the frame layouts in repl.go.
func wellFormed(op byte, p []byte, shards int) bool {
	u32 := func(off int) int { return int(binary.LittleEndian.Uint32(p[off:])) }
	keyOK := func(k uint64) bool { return k >= 1 && k < 1<<61 }
	switch op {
	case framePing:
		return true
	case frameSnapKV:
		if len(p) < 4 || len(p) != 4+16*u32(0) {
			return false
		}
		for i := 4; i < len(p); i += 16 {
			if !keyOK(binary.LittleEndian.Uint64(p[i:])) {
				return false
			}
		}
		return true
	case frameSnapEnd:
		return len(p) >= 4 && u32(0) == shards && len(p) == 4+8*shards
	case frameBatch:
		if len(p) < 16 || u32(0) >= shards || len(p) != 16+17*u32(12) {
			return false
		}
		for i := 16; i < len(p); i += 17 {
			if p[i] > effectDel || !keyOK(binary.LittleEndian.Uint64(p[i+1:])) {
				return false
			}
		}
		return true
	}
	return false
}

// FuzzReplicaStream feeds arbitrary bytes to the replica's frame loop. It
// must not panic, must end with an error, and may only ack positions that
// well-formed frames ahead of the first malformed one carried.
func FuzzReplicaStream(f *testing.F) {
	const shards = 2
	stream, _ := capturedStream(f)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte{})
	r := newTestReplica(f, shards)
	var mu sync.Mutex
	f.Fuzz(func(t *testing.T, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		r.acked = make([]uint64, shards)
		var out bytes.Buffer
		if err := r.applyStream(bufio.NewReader(bytes.NewReader(data)), bufio.NewWriter(&out), shards); err == nil {
			t.Fatal("stream ended without an error")
		}

		allowed := make([]map[uint64]bool, shards)
		for sh := range allowed {
			allowed[sh] = map[uint64]bool{0: true}
		}
		for in := bytes.NewReader(data); ; {
			op, p, _, err := wire.ReadFrame(in, nil)
			if err != nil || !wellFormed(op, p, shards) {
				break
			}
			switch op {
			case frameSnapEnd:
				for sh := 0; sh < shards; sh++ {
					allowed[sh][binary.LittleEndian.Uint64(p[4+8*sh:])] = true
				}
			case frameBatch:
				allowed[binary.LittleEndian.Uint32(p)][binary.LittleEndian.Uint64(p[4:])] = true
			}
		}
		for acks := out.Bytes(); len(acks) > 0; acks = acks[17:] {
			op, p, _, err := wire.ReadFrame(bytes.NewReader(acks), nil)
			if err != nil || op != frameAck || len(p) != 12 {
				t.Fatalf("replica wrote a frame that is not an ack: %x", acks)
			}
			sh, seq := binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint64(p[4:])
			if int(sh) >= shards || !allowed[sh][seq] {
				t.Fatalf("replica acked shard %d seq %d, which no well-formed frame carried", sh, seq)
			}
		}
	})
}
