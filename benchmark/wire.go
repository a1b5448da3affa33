package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/server"
)

// keyState is the oracle the connections of a wire workload share. Writers
// own disjoint key residues ((key-1) % conns), so each key has one writer
// and its values grow with that writer's sequence numbers.
type keyState struct {
	conns int
	seq0  uint64          // sequence numbers up to here are taken (1 by the prefill)
	sent  []uint64        // last value the key's owner sent; owner-only
	acked []atomic.Uint64 // last acknowledged value; any connection reads it
}

func newKeyState(conns int) *keyState {
	return &keyState{conns: conns, seq0: 1, sent: make([]uint64, keySpace+1), acked: make([]atomic.Uint64, keySpace+1)}
}

// own maps a generated key onto the residue class client ci writes.
func (ks *keyState) own(key uint64, ci int) uint64 {
	k0 := key - 1
	return k0 - k0%uint64(ks.conns) + uint64(ci) + 1
}

// request is one in-flight operation and what its reply must satisfy.
type request struct {
	kind  opKind
	exact bool // get: the reply must be exactly want (the client's own key)
	key   uint64
	want  uint64 // put: the value sent; get: the expected or lowest acceptable value
	sent  int64
}

// connDriver is one closed-loop connection: depth requests in flight, the
// next one sent when a reply arrives.
type connDriver struct {
	cl    *server.Client
	gen   *opGen
	ks    *keyState
	ci    int
	seq   uint64
	ring  []request
	head  int
	count int
	t     *tally
}

func newConnDriver(cl *server.Client, gen *opGen, ks *keyState, ci, depth int) *connDriver {
	return &connDriver{cl: cl, gen: gen, ks: ks, ci: ci, seq: ks.seq0, ring: make([]request, depth), t: new(tally)}
}

func (d *connDriver) send(now int64) error {
	o := d.gen.next()
	r := request{kind: o.kind, key: o.key, sent: now}
	var err error
	if o.kind == opGet {
		if r.exact = d.ks.own(o.key, d.ci) == o.key; r.exact {
			// Replies come in request order and a read waits for the
			// connection's earlier writes, so it sees exactly the last
			// value this connection sent.
			r.want = d.ks.sent[o.key]
		} else {
			r.want = d.ks.acked[o.key].Load()
		}
		err = d.cl.SendGet(o.key)
	} else {
		d.seq++
		r.key = d.ks.own(o.key, d.ci)
		r.want = value(d.seq, r.key)
		d.ks.sent[r.key] = r.want
		err = d.cl.SendPut(r.key, r.want)
	}
	d.ring[(d.head+d.count)%len(d.ring)] = r
	d.count++
	return err
}

func (d *connDriver) receive(w window) error {
	rep, err := d.cl.ReadReply()
	if err != nil {
		return err
	}
	now := w.now()
	r := d.ring[d.head]
	d.head = (d.head + 1) % len(d.ring)
	d.count--
	d.t.attempted++
	measuring := w.in(now)
	switch {
	case rep.IsErr():
		d.t.fail("key %d: error reply %q", r.key, rep.Err)
	case r.kind == opGet:
		checkGet(d.t, r, rep)
		if measuring {
			d.t.reads.record(now - r.sent)
		}
	default:
		if rep.Status != "OK" {
			d.t.fail("put %d: reply %+v", r.key, rep)
		}
		d.ks.acked[r.key].Store(r.want)
		if measuring {
			d.t.writes.record(now - r.sent)
			d.t.acked++
		}
	}
	if measuring {
		d.t.ops++
	}
	return nil
}

// checkGet requires a GET reply to decode to the key asked for, and to be
// no older than what was acknowledged when the request left.
func checkGet(t *tally, r request, rep server.Reply) {
	switch {
	case !rep.Found && r.want != 0:
		t.fail("get %d: missing, want %#x", r.key, r.want)
	case rep.Found && (!valueMatches(rep.Value, r.key) || rep.Value < r.want || r.exact && rep.Value != r.want):
		t.fail("get %d = %#x, want %#x (exact %v)", r.key, rep.Value, r.want, r.exact)
	}
}

// run keeps the window full until the deadline, which it checks on every
// iteration (so it ends at depth 1 too), then collects the outstanding
// replies.
func (d *connDriver) run(w window) error {
	for {
		now := w.now()
		if now >= w.end {
			break
		}
		for d.count < len(d.ring) {
			if err := d.send(now); err != nil {
				return err
			}
		}
		if err := d.cl.Flush(); err != nil {
			return err
		}
		if err := d.receive(w); err != nil {
			return err
		}
	}
	for d.count > 0 {
		if err := d.receive(w); err != nil {
			return err
		}
	}
	return nil
}

// runConns drives one closed-loop connection per client against addr.
func runConns(addr string, bin bool, m mix, seed uint64, ks *keyState, depth int, w window) (*tally, error) {
	total := new(tally)
	errs := make([]error, ks.conns)
	drivers := make([]*connDriver, ks.conns)
	var wg sync.WaitGroup
	for ci := 0; ci < ks.conns; ci++ {
		cl, err := dial(addr, bin)
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		d := newConnDriver(cl, newOpGen(seed, ci, m), ks, ci, depth)
		drivers[ci] = d
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = d.run(w)
		}()
	}
	wg.Wait()
	for ci, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("connection %d: %w", ci, err)
		}
		total.add(drivers[ci].t)
		// A later run against the same server numbers its writes above
		// this one's, so that a key's values keep growing.
		ks.seq0 = max(ks.seq0, drivers[ci].seq)
	}
	return total, nil
}

func dial(addr string, bin bool) (*server.Client, error) {
	if bin {
		return server.Dial(addr, server.WithBinaryProto())
	}
	return server.Dial(addr)
}

// pipelineBatch is how many requests a prefill connection keeps in flight; it
// stays under the server's per-connection reply window.
const pipelineBatch = 64

// prefill writes every other key with sequence number 1, split over the
// workload's connections.
func prefill(addr string, ks *keyState) error {
	var wg sync.WaitGroup
	errs := make([]error, ks.conns)
	for ci := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = prefillShare(addr, ks, ci)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func prefillShare(addr string, ks *keyState, ci int) error {
	cl, err := dial(addr, true)
	if err != nil {
		return err
	}
	defer cl.Close()
	pending := 0
	drain := func() error {
		if err := cl.Flush(); err != nil {
			return err
		}
		for ; pending > 0; pending-- {
			if rep, err := cl.ReadReply(); err != nil {
				return err
			} else if rep.Status != "OK" {
				return fmt.Errorf("prefill: reply %+v", rep)
			}
		}
		return nil
	}
	for k := uint64(1 + 2*ci); k <= keySpace; k += 2 * uint64(ks.conns) {
		if err := cl.SendPut(k, value(1, k)); err != nil {
			return err
		}
		ks.sent[k] = value(1, k)
		ks.acked[k].Store(value(1, k))
		if pending++; pending == pipelineBatch {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	return drain()
}

// readBack reads every key from addr and requires it to hold at least the
// last acknowledged value (every write was acknowledged by now, so a
// healthy store holds exactly it). It serves the live check, the
// post-SIGKILL check and the replica check. MGET, because a lone GET on a
// -sync server pays a commit fence, and 65,536 fsyncs take half a minute.
func readBack(addr string, ks *keyState, t *tally, what string) error {
	cl, err := dial(addr, true)
	if err != nil {
		return err
	}
	defer cl.Close()
	keys := make([]uint64, 256)
	for lo := uint64(1); lo <= keySpace; lo += uint64(len(keys)) {
		for i := range keys {
			keys[i] = lo + uint64(i)
		}
		if err := cl.SendMGet(keys); err != nil {
			return err
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		rep, err := cl.ReadReply()
		if err != nil {
			return fmt.Errorf("%s read-back: %w", what, err)
		}
		t.attempted += uint64(len(keys))
		if rep.IsErr() || len(rep.Array) != len(keys) {
			t.failed += uint64(len(keys)) - 1
			t.fail("%s read-back from %d: reply %+v", what, lo, rep)
			continue
		}
		for i, line := range rep.Array {
			got := server.Reply{Found: line != "$-1"}
			if got.Found {
				if got.Value, err = strconv.ParseUint(strings.TrimPrefix(line, "$"), 10, 64); err != nil {
					return fmt.Errorf("%s read-back: bad entry %q", what, line)
				}
			}
			checkGet(t, request{key: keys[i], want: ks.acked[keys[i]].Load()}, got)
		}
	}
	return nil
}
