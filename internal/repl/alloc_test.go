package repl

import (
	"testing"
	"time"

	"repro/internal/batcher"
	"repro/internal/store"
)

// countC counts its completions and the ones that carried an error.
type countC struct{ n, errs int }

func (c *countC) Complete(_ store.OpResult, err error) {
	c.n++
	if err != nil {
		c.errs++
	}
}

// TestWaitGroupAllocs pins the WAIT-mode write path at one heap allocation
// per fence group — the batch frame the replication log keeps: withholding
// a group's writes in CommittedGroup and releasing them on the replica's
// ack allocate nothing else.
func TestWaitGroupAllocs(t *testing.T) {
	st := quorumStore(t, 1, 1)
	p := NewPrimary(st, PrimaryConfig{WaitTimeout: time.Hour})
	defer p.Close()
	f := attachStub(p)
	c := &countC{}
	ops := []store.Op{
		{Kind: store.OpPut, Key: 1, Value: 1},
		{Kind: store.OpGet, Key: 2},
		{Kind: store.OpInsert, Key: 3, Value: 3},
	}
	res := []store.OpResult{{OK: true}, {}, {OK: true}}
	idxs := []int{0, 1, 2}
	cs := []batcher.Completer{c, c, c}
	var seq uint64
	group := func() {
		if !p.CommittedGroup(ops, res, idxs, cs) {
			t.Fatal("WAIT-mode group was not gated")
		}
		seq++
		p.onAck(f, 0, seq)
	}
	// Fill the log's ring first: until it holds logGroups frames, an
	// append may grow its slot array.
	for range logGroups {
		group()
	}
	if n := testing.AllocsPerRun(200, group); n > 1 {
		t.Fatalf("%.0f allocations per WAIT group, want at most 1 (the retained frame)", n)
	}
	// Two writes per group, each released once with its result; the read
	// was the pool's to complete.
	if want := 2 * int(seq); c.n != want || c.errs != 0 {
		t.Fatalf("%d completions (%d errors) for %d groups, want %d without errors", c.n, c.errs, seq, want)
	}
}
