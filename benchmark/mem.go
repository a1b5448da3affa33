package main

import (
	"fmt"

	nv "repro"
)

// memInstance is an in-process store driven by one goroutine, with an exact
// model of what every key must hold: a single writer makes every reply
// predictable.
type memInstance struct {
	st   nv.Store
	sess nv.StoreSession
	gen  *opGen
	last []uint64 // last[key] is the value key holds, 0 when absent
	seq  uint64
	scan []kv
}

type kv struct{ k, v uint64 }

// memSample times one in-process operation in this many: reading the clock
// twice costs a few percent of a sub-microsecond operation.
const memSample = 8

func setupMem(kind nv.Kind, m mix, seed uint64, opts ...nv.Option) (*memInstance, error) {
	st, err := nv.Open(kind, opts...)
	if err != nil {
		return nil, err
	}
	in := &memInstance{
		st: st, sess: st.NewSession(), gen: newOpGen(seed, 0, m),
		last: make([]uint64, keySpace+1), seq: 1,
		scan: make([]kv, 0, maxScan),
	}
	for k := uint64(1); k <= keySpace; k += 2 {
		in.last[k] = value(1, k)
		in.sess.Put(k, in.last[k])
	}
	return in, nil
}

func (in *memInstance) close() { in.st.Close() }

func (in *memInstance) diskBytes() int64 { return 0 }

func (in *memInstance) counters() (map[string]float64, error) {
	st := in.st.Stats()
	return map[string]float64{
		"ops": float64(st.Ops), "flushes": float64(st.Flushes),
		"flushes_elided": float64(st.FlushesElided), "fences": float64(st.Fences),
	}, nil
}

// exec runs one operation and checks its result against the model. The
// clock is read only when timed is set; checking happens after the second
// reading so the latency is the store's alone.
func (in *memInstance) exec(o op, t *tally, w window, timed bool) (start, end int64) {
	in.seq++
	v := value(in.seq, o.key)
	t.attempted++
	if timed {
		start = w.now()
	}
	switch o.kind {
	case opGet:
		got, ok := in.sess.Get(o.key)
		if timed {
			end = w.now()
		}
		if want := in.last[o.key]; got != want || ok != (want != 0) {
			t.fail("get %d = %#x,%v, want %#x", o.key, got, ok, want)
		}
	case opPut:
		in.sess.Put(o.key, v)
		if timed {
			end = w.now()
		}
		in.last[o.key] = v
	case opInsert:
		ok := in.sess.Insert(o.key, v)
		if timed {
			end = w.now()
		}
		if absent := in.last[o.key] == 0; ok != absent {
			t.fail("insert %d = %v, want %v", o.key, ok, absent)
		} else if ok {
			in.last[o.key] = v
		}
	case opScan:
		in.scan = in.scan[:0]
		err := in.sess.Scan(o.key, o.scanHi(), func(k, v uint64) bool {
			in.scan = append(in.scan, kv{k, v})
			return len(in.scan) < int(o.n)
		})
		if timed {
			end = w.now()
		}
		if err != nil {
			t.fail("scan %d: %v", o.key, err)
		} else {
			in.checkScan(o, t)
		}
	}
	return start, end
}

// checkScan requires the scan to have returned exactly the first o.n present
// keys of its range, ascending, each with its current value.
func (in *memInstance) checkScan(o op, t *tally) {
	next := o.key
	for _, e := range in.scan {
		for ; next < min(e.k, keySpace+1); next++ {
			if in.last[next] != 0 {
				t.fail("scan from %d skipped key %d", o.key, next)
				return
			}
		}
		if e.k < next || e.k > o.scanHi() || e.v != in.last[e.k] {
			t.fail("scan from %d returned %d=%#x, want ascending and %#x", o.key, e.k, e.v, in.last[min(e.k, keySpace)])
			return
		}
		next = e.k + 1
	}
	if len(in.scan) < int(o.n) {
		for ; next <= o.scanHi(); next++ {
			if in.last[next] != 0 {
				t.fail("scan from %d stopped before key %d", o.key, next)
				return
			}
		}
	}
}

// run drives the closed loop until the window ends. The deadline is checked
// at every timed operation, so at most memSample-1 untimed operations run
// past it.
func (in *memInstance) run(w window) (*tally, error) {
	t := new(tally)
	measuring := false
	for i := 0; ; i++ {
		o := in.gen.next()
		timed := i%memSample == 0
		start, end := in.exec(o, t, w, timed)
		write := o.kind == opPut || o.kind == opInsert
		if timed {
			if end >= w.end {
				return t, nil
			}
			if measuring = w.in(end); measuring && write {
				t.writes.record(end - start)
			} else if measuring {
				t.reads.record(end - start)
			}
		}
		if measuring {
			t.ops++
			if write {
				t.acked++
			}
		}
	}
}

// verify reads every key back and compares it with the model.
func (in *memInstance) verify(t *tally) ([]metric, error) {
	for k := uint64(1); k <= keySpace; k++ {
		t.attempted++
		got, ok := in.sess.Get(k)
		if want := in.last[k]; got != want || ok != (want != 0) {
			t.fail("read-back %d = %#x,%v, want %#x", k, got, ok, want)
		}
	}
	if !in.st.Ordered() {
		return nil, nil
	}
	next := uint64(1)
	t.attempted++
	err := in.sess.Scan(1, keySpace, func(k, v uint64) bool {
		for ; next < min(k, keySpace+1); next++ {
			if in.last[next] != 0 {
				t.fail("full scan skipped key %d", next)
			}
		}
		if k < next || k > keySpace || v != in.last[k] {
			t.fail("full scan returned %d=%#x, want ascending and %#x", k, v, in.last[min(k, keySpace)])
			return false
		}
		next = k + 1
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("full scan: %w", err)
	}
	return nil, nil
}
