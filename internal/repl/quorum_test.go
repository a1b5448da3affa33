package repl

// Deterministic WAIT-quorum tests: the primary's commit hook and ack path
// driven directly, with stub feeders standing in for replica links — no
// sockets, no timing races beyond the quorum timeout itself.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/batcher"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
)

// quorumStore opens the store a primary under test reads its write quorum
// k from.
func quorumStore(t *testing.T, shards, k int) store.Store {
	t.Helper()
	st, err := store.Open(store.Config{
		Kind: "hash", Policy: persist.NVTraverse{}, Profile: pmem.ProfileZero,
		Shards: shards, SizeHint: 1 << 10, MaxSessions: 8, WaitReplicas: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// stubC is one write's completion: the error (nil = acked) lands in ch.
type stubC struct{ ch chan error }

func (c *stubC) Complete(_ store.OpResult, err error) { c.ch <- err }

// attachStub registers a fake replica link; acks are injected via onAck.
func attachStub(p *Primary) *feeder {
	f := &feeder{
		acked: make([]uint64, len(p.logs)),
		next:  make([]uint64, len(p.logs)),
		wake:  make(chan struct{}, 1),
	}
	p.mu.Lock()
	p.feeds[f] = struct{}{}
	p.mu.Unlock()
	return f
}

func detachStub(p *Primary, f *feeder) {
	p.mu.Lock()
	f.gone = true
	delete(p.feeds, f)
	p.mu.Unlock()
}

// commitPut pushes one single-put fence group through the commit hook and
// returns the withheld completion (the test fails if the group was not
// gated).
func commitPut(t *testing.T, p *Primary, key uint64) *stubC {
	t.Helper()
	c := &stubC{ch: make(chan error, 1)}
	ops := []store.Op{{Kind: store.OpPut, Key: key, Value: key}}
	res := []store.OpResult{{}}
	if !p.CommittedGroup(ops, res, []int{0}, []batcher.Completer{c}) {
		t.Fatal("WAIT-mode put was not gated")
	}
	return c
}

func waitErr(t *testing.T, c *stubC, within time.Duration) error {
	t.Helper()
	select {
	case err := <-c.ch:
		return err
	case <-time.After(within):
		t.Fatal("completion never arrived")
		return nil
	}
}

func TestQuorumReverseOrderAck(t *testing.T) {
	st := quorumStore(t, 2, 1)
	p := NewPrimary(st, PrimaryConfig{WaitTimeout: 5 * time.Second})
	defer p.Close()
	f := attachStub(p)

	// Three groups on one shard; acks are cumulative, so confirming the
	// newest position must release all three gates, oldest first.
	cs := []*stubC{commitPut(t, p, 42), commitPut(t, p, 42), commitPut(t, p, 42)}
	sh := st.ShardFor(42)
	select {
	case <-cs[0].ch:
		t.Fatal("gate released before any ack")
	default:
	}
	p.onAck(f, sh, 3)
	for i, c := range cs {
		if err := waitErr(t, c, time.Second); err != nil {
			t.Fatalf("gate %d: %v", i, err)
		}
	}
	if s := p.Stats(); s.LastAckSeq != 3 || s.Replicas != 1 {
		t.Fatalf("stats after acks: %+v", s)
	}
}

func TestQuorumSlowReplicaTimesOutThenHeals(t *testing.T) {
	st := quorumStore(t, 1, 1)
	p := NewPrimary(st, PrimaryConfig{WaitTimeout: 30 * time.Millisecond})
	defer p.Close()
	f := attachStub(p)

	// The replica is too slow: the gate must fail typed, not hang.
	c := commitPut(t, p, 7)
	if err := waitErr(t, c, 2*time.Second); !errors.Is(err, ErrQuorum) {
		t.Fatalf("slow replica: got %v, want ErrQuorum", err)
	}
	// The late ack lands on an empty gate queue: harmless.
	p.onAck(f, st.ShardFor(7), 1)

	// NOT sticky: the next write succeeds once the replica keeps up.
	c2 := commitPut(t, p, 7)
	p.onAck(f, st.ShardFor(7), 2)
	if err := waitErr(t, c2, 2*time.Second); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestQuorumReplicaDeathMidBatch(t *testing.T) {
	st := quorumStore(t, 1, 2)
	p := NewPrimary(st, PrimaryConfig{WaitTimeout: 30 * time.Millisecond})
	defer p.Close()
	f1 := attachStub(p)
	f2 := attachStub(p)

	c := commitPut(t, p, 9)
	sh := st.ShardFor(9)
	p.onAck(f1, sh, 1)
	// The second replica dies before confirming: quorum 2 is unreachable
	// and the gate must fail typed once the deadline passes.
	detachStub(p, f2)
	if err := waitErr(t, c, 2*time.Second); !errors.Is(err, ErrQuorum) {
		t.Fatalf("replica death: got %v, want ErrQuorum", err)
	}
	if s := p.Stats(); s.Replicas != 1 {
		t.Fatalf("replicas after death: %+v", s)
	}
}

func TestNoListenersSkipsLogAndGate(t *testing.T) {
	st := quorumStore(t, 1, 0)
	p := NewPrimary(st, PrimaryConfig{}) // K = 0, nobody attached
	defer p.Close()
	c := &stubC{ch: make(chan error, 1)}
	ops := []store.Op{{Kind: store.OpPut, Key: 1, Value: 1}}
	if p.CommittedGroup(ops, []store.OpResult{{}}, []int{0}, []batcher.Completer{c}) {
		t.Fatal("unreplicated group was gated")
	}
	p.mu.Lock()
	head := p.logs[0].head()
	p.mu.Unlock()
	if head != 0 {
		t.Fatalf("log grew with no listeners: head %d", head)
	}

	// With a feeder attached the log grows, but K=0 still never gates.
	attachStub(p)
	if p.CommittedGroup(ops, []store.OpResult{{}}, []int{0}, []batcher.Completer{c}) {
		t.Fatal("K=0 group was gated")
	}
	p.mu.Lock()
	head = p.logs[0].head()
	p.mu.Unlock()
	if head != 1 {
		t.Fatalf("log head %d with a feeder attached, want 1", head)
	}
}

func TestCloseFailsPendingGates(t *testing.T) {
	st := quorumStore(t, 1, 1)
	p := NewPrimary(st, PrimaryConfig{WaitTimeout: time.Hour})
	attachStub(p)
	c := commitPut(t, p, 3)
	p.Close()
	if err := waitErr(t, c, 2*time.Second); !errors.Is(err, ErrQuorum) {
		t.Fatalf("close: got %v, want ErrQuorum", err)
	}
	p.Close() // idempotent
}

func TestReadOnlyGroupNotGated(t *testing.T) {
	st := quorumStore(t, 1, 1)
	p := NewPrimary(st, PrimaryConfig{})
	defer p.Close()
	attachStub(p)
	ops := []store.Op{{Kind: store.OpGet, Key: 1}}
	if p.CommittedGroup(ops, []store.OpResult{{}}, []int{0}, nil) {
		t.Fatal("read-only group was gated")
	}
}
