package nvtraverse

import (
	"testing"

	"repro/internal/core"
	"repro/internal/store"
)

func TestFacadeSetLifecycle(t *testing.T) {
	for _, kind := range []core.Kind{List, HashMap, EllenBST, NMBST, Skiplist} {
		st, err := Open(kind, WithSizeHint(128))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		h := st.NewSession()
		if !h.Insert(7, 70) {
			t.Fatalf("%s: insert failed", kind)
		}
		if v, ok := h.Get(7); !ok || v != 70 {
			t.Fatalf("%s: Get = %d,%v", kind, v, ok)
		}
		if !h.Delete(7) {
			t.Fatalf("%s: delete failed", kind)
		}
	}
}

func TestFacadeQueue(t *testing.T) {
	mem := NewMemory(DRAM)
	q := NewQueue(mem, PolicyNVTraverse)
	th := mem.NewThread()
	q.Enqueue(th, 1)
	q.Enqueue(th, 2)
	if v, ok := q.Dequeue(th); !ok || v != 1 {
		t.Fatalf("Dequeue = %d,%v", v, ok)
	}
}

// crash simulates a power failure on a tracked store: every shard's memory
// crashes, rolls back to its persisted state and restarts, then the
// store's recovery phase runs.
func crash(st Store, seed int64) {
	eng := st.(*store.Engine)
	eng.Crash()
	eng.FinishCrash(0, seed)
	eng.Restart()
	st.Recover()
}

func TestFacadeCrashRoundTrip(t *testing.T) {
	st, err := Open(Skiplist, WithTracked())
	if err != nil {
		t.Fatal(err)
	}
	h := st.NewSession()
	for k := uint64(1); k <= 64; k++ {
		h.Insert(k, k)
	}
	crash(st, 3)
	rec := st.NewSession()
	for k := uint64(1); k <= 64; k++ {
		if _, ok := rec.Get(k); !ok {
			t.Fatalf("key %d lost across crash", k)
		}
	}
}

func TestFacadeEngine(t *testing.T) {
	st, err := Open(HashMap, WithShards(4), WithTracked())
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	for k := uint64(1); k <= 128; k++ {
		s.Put(k, k*3)
	}
	res := s.Apply([]Op{
		{Kind: OpGet, Key: 64},
		{Kind: OpDelete, Key: 64},
		{Kind: OpInsert, Key: 1000, Value: 1},
	}, nil)
	if !res[0].OK || res[0].Value != 192 || !res[1].OK || !res[2].OK {
		t.Fatalf("batch results wrong: %+v", res)
	}
	crash(st, 11)
	rec := st.NewSession()
	for k := uint64(1); k <= 128; k++ {
		if k == 64 {
			continue
		}
		if v, ok := rec.Get(k); !ok || v != k*3 {
			t.Fatalf("key %d lost across engine crash: %d,%v", k, v, ok)
		}
	}
	if _, ok := rec.Get(64); ok {
		t.Fatal("deleted key resurrected")
	}
	if v, ok := rec.Get(1000); !ok || v != 1 {
		t.Fatal("acknowledged batched insert lost across crash")
	}
}

func TestFacadePolicies(t *testing.T) {
	if PolicyNone.Durable() || !PolicyNVTraverse.Durable() ||
		!PolicyIzraelevitz.Durable() || !PolicyLogFree.Durable() {
		t.Fatalf("policy durability flags wrong")
	}
}
