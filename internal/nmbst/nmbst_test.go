package nmbst

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/persist"
	"repro/internal/pmem"
)

func newTree(pol persist.Policy) (*Tree, *pmem.Thread) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
	tr := New(mem, pol)
	return tr, mem.NewThread()
}

func TestBasicOps(t *testing.T) {
	for _, pol := range persist.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			tr, th := newTree(pol)
			if _, ok := tr.Find(th, 10); ok {
				t.Fatalf("empty tree finds 10")
			}
			if !tr.Insert(th, 10, 100) || tr.Insert(th, 10, 101) {
				t.Fatalf("insert semantics broken")
			}
			if v, ok := tr.Find(th, 10); !ok || v != 100 {
				t.Fatalf("Find(10) = %d,%v", v, ok)
			}
			if !tr.Delete(th, 10) || tr.Delete(th, 10) {
				t.Fatalf("delete semantics broken")
			}
			if _, ok := tr.Find(th, 10); ok {
				t.Fatalf("deleted key found")
			}
			if err := tr.Validate(th); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestInOrderContents(t *testing.T) {
	tr, th := newTree(persist.NVTraverse{})
	rng := rand.New(rand.NewSource(23))
	perm := rng.Perm(1000)
	for _, k := range perm {
		if !tr.Insert(th, uint64(k)+1, uint64(k)) {
			t.Fatalf("insert %d failed", k)
		}
	}
	got := tr.Contents(th)
	if len(got) != 1000 {
		t.Fatalf("size = %d", len(got))
	}
	for i := range got {
		if got[i] != uint64(i)+1 {
			t.Fatalf("contents[%d] = %d", i, got[i])
		}
	}
	if err := tr.Validate(th); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOracle(t *testing.T) {
	for _, pol := range persist.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			tr, th := newTree(pol)
			oracle := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(29))
			for i := 0; i < 6000; i++ {
				k := uint64(rng.Intn(300)) + 1
				switch rng.Intn(3) {
				case 0:
					v := rng.Uint64() & ((1 << 32) - 1)
					_, exp := oracle[k]
					if tr.Insert(th, k, v) == exp {
						t.Fatalf("op %d: Insert(%d) disagreed", i, k)
					}
					if !exp {
						oracle[k] = v
					}
				case 1:
					_, exp := oracle[k]
					if tr.Delete(th, k) != exp {
						t.Fatalf("op %d: Delete(%d) disagreed", i, k)
					}
					delete(oracle, k)
				default:
					ev, exp := oracle[k]
					gv, ok := tr.Find(th, k)
					if ok != exp || (ok && gv != ev) {
						t.Fatalf("op %d: Find(%d) = %d,%v disagreed", i, k, gv, ok)
					}
				}
			}
			if err := tr.Validate(th); err != nil {
				t.Fatal(err)
			}
			if got := tr.Contents(th); len(got) != len(oracle) {
				t.Fatalf("size %d, oracle %d", len(got), len(oracle))
			}
		})
	}
}

func TestQuickOracle(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16
	}
	f := func(ops []op) bool {
		tr, th := newTree(persist.NVTraverse{})
		oracle := map[uint64]bool{}
		for _, o := range ops {
			k := uint64(o.Key%89) + 1
			switch o.Kind % 3 {
			case 0:
				if tr.Insert(th, k, k) == oracle[k] {
					return false
				}
				oracle[k] = true
			case 1:
				if tr.Delete(th, k) != oracle[k] {
					return false
				}
				delete(oracle, k)
			default:
				if _, ok := tr.Find(th, k); ok != oracle[k] {
					return false
				}
			}
		}
		return tr.Validate(th) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStress(t *testing.T) {
	for _, pol := range []persist.Policy{persist.None{}, persist.NVTraverse{}, persist.Izraelevitz{}, persist.LinkAndPersist{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
			tr := New(mem, pol)
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				th := mem.NewThread()
				wg.Add(1)
				go func(th *pmem.Thread) {
					defer wg.Done()
					for j := 0; j < 4000; j++ {
						k := th.Rand()%256 + 1
						switch th.Rand() % 3 {
						case 0:
							tr.Insert(th, k, k)
						case 1:
							tr.Delete(th, k)
						default:
							tr.Find(th, k)
						}
					}
				}(th)
			}
			wg.Wait()
			th := mem.NewThread()
			if err := tr.Validate(th); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentDisjoint(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
	tr := New(mem, persist.NVTraverse{})
	const threads = 6
	var wg sync.WaitGroup
	fail := make(chan string, threads)
	for i := 0; i < threads; i++ {
		th := mem.NewThread()
		base := uint64(i*10000 + 1)
		wg.Add(1)
		go func(th *pmem.Thread, base uint64) {
			defer wg.Done()
			for k := base; k < base+300; k++ {
				if !tr.Insert(th, k, k) {
					fail <- "insert failed"
					return
				}
			}
			for k := base; k < base+300; k += 2 {
				if !tr.Delete(th, k) {
					fail <- "delete failed"
					return
				}
			}
			for k := base; k < base+300; k++ {
				_, ok := tr.Find(th, k)
				if want := (k-base)%2 == 1; ok != want {
					fail <- "find wrong"
					return
				}
			}
		}(th, base)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	th := mem.NewThread()
	if err := tr.Validate(th); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Contents(th)); got != threads*150 {
		t.Fatalf("size %d, want %d", got, threads*150)
	}
}

func TestFlushesConstantPerOp(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	tr := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for k := uint64(1); k <= 8192; k++ {
		tr.Insert(th, k, k)
	}
	before := mem.Stats()
	tr.Find(th, 8000)
	d := mem.Stats().Sub(before)
	if d.Flushes > 6 {
		t.Fatalf("find flushed %d cells, want <= 6", d.Flushes)
	}
}

func TestMemoryReclamation(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	tr := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for i := 0; i < 20000; i++ {
		k := uint64(i%8) + 1
		tr.Insert(th, k, k)
		tr.Delete(th, k)
	}
	if hw := tr.nodes.HighWater(); hw > 8192 {
		t.Fatalf("arena grew to %d handles over an 8-key churn", hw)
	}
}

func TestRecoverCompletesFlaggedDeletes(t *testing.T) {
	mem := pmem.NewTracked()
	tr := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for _, k := range []uint64{20, 40, 60, 80} {
		tr.Insert(th, k, k)
	}
	// Stage a delete of 40 interrupted right after injection: flag the
	// leaf's incoming edge by hand.
	sr := &tr.trs[th.ID].sr
	tr.traverse(th, 40, sr)
	if !th.CAS(sr.intoLeaf, sr.leafEdge, pmem.WithMark(pmem.Dirty(sr.leafEdge))) {
		t.Fatalf("staging flag failed")
	}
	mem.PersistAll()
	if tr.CountFlagged(th) != 1 {
		t.Fatalf("flagged = %d", tr.CountFlagged(th))
	}
	tr.Recover(th)
	if tr.CountFlagged(th) != 0 {
		t.Fatalf("flag survives recovery")
	}
	if _, ok := tr.Find(th, 40); ok {
		t.Fatalf("recovery did not complete the flagged delete")
	}
	for _, k := range []uint64{20, 60, 80} {
		if _, ok := tr.Find(th, k); !ok {
			t.Fatalf("recovery lost key %d", k)
		}
	}
	if err := tr.Validate(th); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverClearsStrayTags(t *testing.T) {
	mem := pmem.NewTracked()
	tr := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for _, k := range []uint64{20, 40} {
		tr.Insert(th, k, k)
	}
	// Stage an interrupted cleanup: tag an edge without any flag.
	sr := &tr.trs[th.ID].sr
	tr.traverse(th, 20, sr)
	parN := tr.node(sr.par)
	sv := th.Load(&parN.Right)
	th.CAS(&parN.Right, sv, pmem.WithTag(pmem.Dirty(sv)))
	mem.PersistAll()
	tr.Recover(th)
	if pmem.Tagged(th.Load(&parN.Right)) {
		t.Fatalf("stray tag survives recovery")
	}
	// The edge must be modifiable again.
	if !tr.Insert(th, 30, 30) {
		t.Fatalf("insert after recovery failed")
	}
	if err := tr.Validate(th); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRangePanics(t *testing.T) {
	tr, th := newTree(persist.None{})
	for _, bad := range []uint64{0, Inf0, Inf1, Inf2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("key %d accepted", bad)
				}
			}()
			tr.Insert(th, bad, 0)
		}()
	}
}

// TestReachableNeverReleased runs Validate's retired ⇒ unreachable audit
// single-threaded after every operation of a churn, under every policy;
// TestConcurrentStress runs it after concurrent traffic.
func TestReachableNeverReleased(t *testing.T) {
	for _, pol := range persist.All() {
		tr, th := newTree(pol)
		rng := rand.New(rand.NewSource(1))
		for op := 0; op < 2000; op++ {
			k := uint64(rng.Intn(32)) + 1
			if rng.Intn(2) == 0 {
				tr.Insert(th, k, k)
			} else {
				tr.Delete(th, k)
			}
			if err := tr.Validate(th); err != nil {
				t.Fatalf("%s, op %d: %v", pol.Name(), op, err)
			}
		}
	}
}

// TestValidateCatchesDamage: Validate fails on a reachable node that is
// free, and on a cycle in a child word, while Contents and CountFlagged
// still return on the cycle.
func TestValidateCatchesDamage(t *testing.T) {
	build := func() (*Tree, *pmem.Thread) {
		tr, th := newTree(persist.NVTraverse{})
		for _, k := range []uint64{40, 20, 60, 10, 30, 50, 70} {
			tr.Insert(th, k, k)
		}
		return tr, th
	}
	tr, th := build()
	tr.nodes.Free(th.ID, pmem.RefIndex(th.Load(&tr.node(tr.rootR).Right)))
	if err := tr.Validate(th); err == nil || !strings.Contains(err.Error(), "free or in limbo") {
		t.Fatalf("Validate with a leaf freed = %v", err)
	}

	// An internal node that is its own left child breaks no key range
	// before the walk's step bound catches it.
	tr, th = build()
	inner := pmem.RefIndex(th.Load(&tr.node(tr.rootS).Left))
	th.Store(&tr.node(inner).Left, pmem.MakeRef(inner))
	if err := tr.Validate(th); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate with a cycle = %v", err)
	}
	if len(tr.Contents(th)) != 0 || tr.CountFlagged(th) != 0 {
		t.Fatalf("Contents %v, CountFlagged %d on a cycle", tr.Contents(th), tr.CountFlagged(th))
	}
}
