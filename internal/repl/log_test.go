package repl

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/store"
)

func TestShardLogAppendTrimTail(t *testing.T) {
	l := newShardLog(4)
	if l.head() != 0 {
		t.Fatalf("empty head = %d", l.head())
	}
	if !l.canTail(0) {
		t.Fatal("empty log must be tailable from 0")
	}
	for i := 0; i < 10; i++ {
		seq := l.append(testFrame(uint64(i+1), Effect{Kind: effectPut, Key: uint64(i), Value: 1}))
		if seq != uint64(i+1) {
			t.Fatalf("append %d: seq %d", i, seq)
		}
	}
	if l.head() != 10 {
		t.Fatalf("head = %d, want 10", l.head())
	}
	// Retention 4: groups 7..10 retained, positions before 6 fell off.
	if l.canTail(5) {
		t.Fatal("position 5 fell off the window but canTail said yes")
	}
	if !l.canTail(6) {
		t.Fatal("position 6 is the window edge and must be tailable")
	}
	if !l.canTail(10) || !l.canTail(11) {
		t.Fatal("at-or-past head must be tailable")
	}
	got := l.from(8, nil)
	if len(got) != 2 || frameSeq(got[0]) != 9 || frameSeq(got[1]) != 10 {
		t.Fatalf("from(8) = %v", got)
	}
	if k := binary.LittleEndian.Uint64(got[0][batchHeader+1:]); k != 8 {
		t.Fatalf("group 9 carries key %d", k)
	}
	if n := len(l.from(10, nil)); n != 0 {
		t.Fatalf("from(head) returned %d groups", n)
	}
}

func TestShardLogLagBytes(t *testing.T) {
	l := newShardLog(8)
	l.append(testFrame(1, Effect{Kind: effectPut, Key: 1, Value: 1}))                                  // 17 bytes
	l.append(testFrame(2, Effect{Kind: effectPut, Key: 2, Value: 2}, Effect{Kind: effectDel, Key: 1})) // 34
	l.append(testFrame(3))                                                                             // 0
	if got := l.bytesBetween(0, 3); got != 51 {
		t.Fatalf("bytesBetween(0,3) = %d, want 51", got)
	}
	if got := l.bytesBetween(1, 3); got != 34 {
		t.Fatalf("bytesBetween(1,3) = %d, want 34", got)
	}
	if got := l.bytesBetween(3, 3); got != 0 {
		t.Fatalf("bytesBetween(3,3) = %d, want 0", got)
	}
}

// testFrame encodes one shard-0 group's batch frame.
func testFrame(seq uint64, effects ...Effect) []byte {
	return appendBatchFrame(nil, 0, seq, effects)
}

func frameSeq(frame []byte) uint64 { return binary.LittleEndian.Uint64(frame[9:]) }

// refLog is the naive model of shardLog: every group ever appended, with
// the retained window computed from the cap.
type refLog struct {
	frames [][]byte
	cum    []uint64 // cum[i]: effect bytes through seq i+1
	max    int
}

func (m *refLog) append(frame []byte) {
	var c uint64
	if n := len(m.cum); n > 0 {
		c = m.cum[n-1]
	}
	m.frames = append(m.frames, frame)
	m.cum = append(m.cum, c+uint64(len(frame)-batchHeader))
}

func (m *refLog) head() uint64 { return uint64(len(m.frames)) }

func (m *refLog) first() uint64 { return uint64(max(1, len(m.frames)-m.max+1)) }

func (m *refLog) canTail(from uint64) bool {
	return from >= m.head() || (m.head() > 0 && m.first() <= from+1)
}

func (m *refLog) from(from uint64) [][]byte {
	if from >= m.head() {
		return nil
	}
	return m.frames[max(from+1, m.first())-1:]
}

func (m *refLog) cumAt(seq uint64) uint64 {
	if m.head() == 0 {
		return 0
	}
	if seq >= m.head() {
		return m.cum[m.head()-1]
	}
	if seq < m.first() {
		seq = m.first() - 1 // the window counts from its start
	}
	if seq == 0 {
		return 0
	}
	return m.cum[seq-1]
}

// TestShardLogRingModel checks the ring against refLog across every wrap
// edge: 10 × max appends, probing after each one.
func TestShardLogRingModel(t *testing.T) {
	for _, max := range []int{1, 4, 1024} {
		t.Run(fmt.Sprint(max), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(max)))
			l, m := newShardLog(max), &refLog{max: max}
			var got [][]byte
			probe := func() {
				for p := 0; p < 4; p++ {
					from := uint64(rng.Int63n(int64(m.head() + 3)))
					if l.canTail(from) != m.canTail(from) {
						t.Fatalf("head %d: canTail(%d) = %v, model %v", m.head(), from, l.canTail(from), m.canTail(from))
					}
					got = l.from(from, got[:0])
					want := m.from(from)
					if len(got) != len(want) {
						t.Fatalf("head %d: from(%d) has %d frames, model %d", m.head(), from, len(got), len(want))
					}
					for k := range got {
						if &got[k][0] != &want[k][0] { // frames are shared, never copied
							t.Fatalf("head %d: from(%d)[%d] differs", m.head(), from, k)
						}
					}
					b := uint64(rng.Int63n(int64(m.head() + 3)))
					a := uint64(rng.Int63n(int64(b + 1)))
					if got, want := l.bytesBetween(a, b), m.cumAt(b)-m.cumAt(a); got != want {
						t.Fatalf("head %d: bytesBetween(%d,%d) = %d, model %d", m.head(), a, b, got, want)
					}
				}
			}
			probe() // the empty log
			for i := 0; i < 10*max; i++ {
				seq := uint64(i + 1)
				effects := make([]Effect, rng.Intn(4))
				for j := range effects {
					effects[j] = Effect{Kind: uint8(rng.Intn(2)), Key: rng.Uint64(), Value: rng.Uint64()}
				}
				frame := testFrame(seq, effects...)
				if got := l.append(frame); got != seq {
					t.Fatalf("append %d returned seq %d", seq, got)
				}
				m.append(frame)
				if len(l.slots) > max {
					t.Fatalf("ring holds %d slots, cap %d", len(l.slots), max)
				}
				if l.head() != m.head() {
					t.Fatalf("head %d, model %d", l.head(), m.head())
				}
				probe()
			}
		})
	}
}

// TestShardLogAppendFullAllocs: once the ring is full, an append
// overwrites a slot and allocates nothing.
func TestShardLogAppendFullAllocs(t *testing.T) {
	l := newShardLog(64)
	frame := testFrame(1, Effect{Kind: effectPut, Key: 1, Value: 1})
	for i := 0; i < 64; i++ {
		l.append(frame)
	}
	if n := testing.AllocsPerRun(1000, func() { l.append(frame) }); n != 0 {
		t.Fatalf("append on a full ring: %v allocs/op, want 0", n)
	}
}

// BenchmarkShardLogAppendFull prices one append on a full ring; ns/op
// must not depend on the retention window.
func BenchmarkShardLogAppendFull(b *testing.B) {
	frame := testFrame(1, Effect{Kind: effectPut, Key: 1, Value: 1})
	for _, max := range []int{1024, 65536} {
		b.Run(fmt.Sprint(max), func(b *testing.B) {
			l := newShardLog(max)
			for i := 0; i < max; i++ {
				l.append(frame)
			}
			b.ReportAllocs()
			for b.Loop() {
				l.append(frame)
			}
		})
	}
}

func TestPSyncPayloadRoundTrip(t *testing.T) {
	p := PSyncPayload(7, []uint64{3, 0, 9})
	runID, acked, err := parsePSync(p)
	if err != nil {
		t.Fatal(err)
	}
	if runID != 7 || len(acked) != 3 || acked[0] != 3 || acked[2] != 9 {
		t.Fatalf("parsed runID %d acked %v", runID, acked)
	}
	if _, _, err := parsePSync(p[:len(p)-1]); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestEffectsOf(t *testing.T) {
	ops := []store.Op{
		{Kind: store.OpPut, Key: 1, Value: 10},
		{Kind: store.OpInsert, Key: 2, Value: 20},
		{Kind: store.OpInsert, Key: 3, Value: 30}, // failed insert
		{Kind: store.OpUpdate, Key: 4, Value: 40},
		{Kind: store.OpUpdate, Key: 5, Value: 50}, // absent key
		{Kind: store.OpDelete, Key: 6},
		{Kind: store.OpDelete, Key: 7}, // absent key
		{Kind: store.OpGet, Key: 8},
	}
	res := []store.OpResult{
		{}, {OK: true}, {OK: false}, {OK: true, Value: 40}, {OK: false},
		{OK: true}, {OK: false}, {OK: true, Value: 99},
	}
	idxs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	got := effectsOf(nil, ops, res, idxs)
	want := []Effect{
		{Kind: effectPut, Key: 1, Value: 10},
		{Kind: effectPut, Key: 2, Value: 20},
		{Kind: effectPut, Key: 4, Value: 40},
		{Kind: effectDel, Key: 6},
	}
	if len(got) != len(want) {
		t.Fatalf("effects %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("effect %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
