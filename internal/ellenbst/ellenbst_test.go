package ellenbst

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
	rng := rand.New(rand.NewSource(5))
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
			rng := rand.New(rand.NewSource(17))
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

func TestFlushesLogarithmicNotLinear(t *testing.T) {
	// NVTraverse on a BST: O(1) flushes per op even though the traversal
	// visits O(log n) nodes; Izraelevitz flushes every step.
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
	if d.Fences > 2 {
		t.Fatalf("find fenced %d times", d.Fences)
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
		t.Fatalf("node arena grew to %d handles over an 8-key churn", hw)
	}
	if hw := tr.infos.HighWater(); hw > 8192 {
		t.Fatalf("info arena grew to %d handles over an 8-key churn", hw)
	}
}

// TestNamedInfoNeverReleased: an update word keeps naming its Info record
// after the unflag, as the expected value of the node's next flag CAS, so
// a named record recycled into another operation lets a stale CAS succeed
// (ABA). Validate's retired ⇒ unreachable audit runs after every
// operation of a single-threaded churn; TestConcurrentStress runs it after
// concurrent traffic.
func TestNamedInfoNeverReleased(t *testing.T) {
	tr, th := newTree(persist.NVTraverse{})
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 2000; op++ {
		k := uint64(rng.Intn(32)) + 1
		if rng.Intn(2) == 0 {
			tr.Insert(th, k, k)
		} else {
			tr.Delete(th, k)
		}
		if err := tr.Validate(th); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
}

// TestValidateCatchesDamage: Validate fails on a reachable node that is
// free, on a named Info record that is free, and on a cycle in a child
// word, while Contents and CountMarked still return on the cycle.
func TestValidateCatchesDamage(t *testing.T) {
	build := func() (*Tree, *pmem.Thread) {
		tr, th := newTree(persist.NVTraverse{})
		for _, k := range []uint64{40, 20, 60, 10, 30, 50, 70} {
			tr.Insert(th, k, k)
		}
		return tr, th
	}
	tr, th := build()
	tr.nodes.Free(th.ID, pmem.RefIndex(th.Load(&tr.node(tr.root).Right)))
	if err := tr.Validate(th); err == nil || !strings.Contains(err.Error(), "free or in limbo") {
		t.Fatalf("Validate with a leaf freed = %v", err)
	}

	// The first insert linked its split leaf under the root, so the
	// root's update word names that insert's Info record.
	tr, th = build()
	info := infoIdx(th.Load(&tr.node(tr.root).Update))
	if info == 0 {
		t.Fatal("root's update word names no Info record")
	}
	tr.infos.Free(th.ID, info)
	if err := tr.Validate(th); err == nil || !strings.Contains(err.Error(), "names info") {
		t.Fatalf("Validate with a named Info freed = %v", err)
	}

	// An internal node that is its own left child breaks no key range
	// before the walk's step bound catches it.
	tr, th = build()
	inner := pmem.RefIndex(th.Load(&tr.node(tr.root).Left))
	th.Store(&tr.node(inner).Left, pmem.MakeRef(inner))
	if err := tr.Validate(th); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate with a cycle = %v", err)
	}
	if len(tr.Contents(th)) != 0 || tr.CountMarked(th) != 0 {
		t.Fatalf("Contents %v, CountMarked %d on a cycle", tr.Contents(th), tr.CountMarked(th))
	}
}

// TestCapturedInfoOutlivesItsHelpers replays, one step at a time, the
// interleaving in which a delete's Info record captures p's update word
// (CLEAN, X) as its mark expectation, an insert replaces that word and
// retires X, and a helper that finds the delete still flagged only after
// the retirement tries the mark late. If X is recycled into p's word before
// that mark, the stale CAS succeeds and splices p out together with a
// completed insert. The helper entered at most one epoch after X was
// retired, so X must stay in limbo for one epoch longer than a record that
// nothing captured.
func TestCapturedInfoOutlivesItsHelpers(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 8})
	tr := New(mem, persist.NVTraverse{})
	setup, thD, thI, thH := mem.NewThread(), mem.NewThread(), mem.NewThread(), mem.NewThread()
	// Shape: root → n1 → n2{n3{10, 15}, leaf 20}, n2's word (CLEAN, X)
	// where X is the Info of the insert of 15.
	for _, k := range []uint64{10, 20, 15} {
		tr.Insert(setup, k, k)
	}

	// D: delete 20 up to its dflag on n1, capturing n2's (CLEAN, X).
	tr.dom.Enter(thD.ID)
	var sr search
	tr.traverse(thD, 20, &sr)
	x := infoIdx(sr.pUpdate)
	if x == 0 {
		t.Fatal("n2's word names no Info record")
	}
	idxD := tr.infos.Alloc(thD.ID)
	inf := tr.info(idxD)
	thD.Store(&inf.Kind, kindDelete)
	thD.Store(&inf.GP, pmem.MakeRef(sr.gp))
	thD.Store(&inf.P, pmem.MakeRef(sr.p))
	thD.Store(&inf.L, pmem.MakeRef(sr.l))
	thD.Store(&inf.PUpdate, pmem.Dirty(sr.pUpdate))
	n1U := &tr.node(sr.gp).Update
	if !thD.CAS(n1U, sr.gpUpdate, mkUpdate(stDFlag, idxD)) {
		t.Fatal("staging the dflag failed")
	}

	// I: insert 25 under n2 replaces (CLEAN, X) and retires X.
	tr.Insert(thI, 25, 25)
	tr.dom.TryAdvance()

	// H enters and finds D flagged on n1; D then backtracks and leaves.
	tr.dom.Enter(thH.ID)
	flagged := thH.Load(n1U)
	if flagged != mkUpdate(stDFlag, idxD) {
		t.Fatalf("n1's word = %#x, want D's dflag", flagged)
	}
	if tr.helpDelete(thD, idxD) {
		t.Fatal("D's mark succeeded against a replaced word")
	}
	tr.dom.Exit(thD.ID)
	for i := 0; i < 4; i++ {
		tr.dom.TryAdvance()
	}

	// E: delete 20 (now under the insert's new internal) flags n2 as its
	// grandparent with a fresh Info from I's thread, leaving n2 CLEAN with
	// it. Were that Info X, H's mark below would match.
	tr.Delete(thI, 20)
	if got := infoIdx(thI.Load(&tr.node(sr.p).Update)); got == x {
		t.Fatalf("Info %d recycled while a helper could still expect it", x)
	}

	// H helps D late: the mark must fail and nothing may be lost.
	tr.help(thH, flagged)
	tr.dom.Exit(thH.ID)
	for _, k := range []uint64{10, 15, 25} {
		if _, ok := tr.Find(setup, k); !ok {
			t.Fatalf("completed insert of %d lost", k)
		}
	}
	if err := tr.Validate(setup); err != nil {
		t.Fatal(err)
	}
}

// TestLateIchildCannotRelink: a helper that read an insert's IFLAG may run
// the insert's ichild long after the insert finished. If the new leaf has
// been deleted since, that delete moved the leaf the insert split back up to
// p. Were that the very leaf the ichild expects (instead of the copy
// PODC'10 links), the late CAS would re-link the removed subtree and the
// deleted key would be back.
func TestLateIchildCannotRelink(t *testing.T) {
	tr, th := newTree(persist.NVTraverse{})
	for _, k := range []uint64{10, 20, 15} {
		tr.Insert(th, k, k)
	}
	var sr search
	tr.traverse(th, 15, &sr)
	idx := infoIdx(sr.gpUpdate) // the insert of 15 flagged 15's grandparent
	if state(sr.gpUpdate) != stClean || idx == 0 {
		t.Fatalf("15's grandparent word = %#x, want the insert's CLEAN word", sr.gpUpdate)
	}
	if !tr.Delete(th, 15) {
		t.Fatal("delete of 15 failed")
	}
	tr.helpInsert(th, idx) // the late helper
	if _, ok := tr.Find(th, 15); ok {
		t.Fatal("deleted key 15 is back after a late ichild")
	}
	if err := tr.Validate(th); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverCompletesInFlightOps(t *testing.T) {
	// Handcraft the three interrupted states (IFLAG, DFLAG, MARK) and check
	// recovery drives each to completion.
	t.Run("iflag", func(t *testing.T) {
		mem := pmem.NewTracked()
		tr := New(mem, persist.NVTraverse{})
		th := mem.NewThread()
		tr.Insert(th, 50, 500)
		// Stage an insert of 30 stopped right after the iflag CAS.
		var sr search
		tr.traverse(th, 30, &sr)
		newLeaf := tr.newLeaf(th, 30, 300)
		ni := tr.nodes.Alloc(th.ID)
		niN := tr.node(ni)
		lKey := th.Load(&tr.node(sr.l).Key)
		th.Store(&niN.Key, lKey)
		th.Store(&niN.Leaf, 0)
		th.Store(&niN.Left, pmem.MakeRef(newLeaf))
		th.Store(&niN.Right, pmem.MakeRef(sr.l))
		th.Store(&niN.Update, mkUpdate(stClean, 0))
		idx := tr.infos.Alloc(th.ID)
		inf := tr.info(idx)
		th.Store(&inf.Kind, kindInsert)
		th.Store(&inf.P, pmem.MakeRef(sr.p))
		th.Store(&inf.L, pmem.MakeRef(sr.l))
		th.Store(&inf.NewInternal, pmem.MakeRef(ni))
		if !th.CAS(&tr.node(sr.p).Update, sr.pUpdate, mkUpdate(stIFlag, idx)) {
			t.Fatalf("staging iflag failed")
		}
		mem.PersistAll() // pretend everything so far persisted
		tr.Recover(th)
		if _, ok := tr.Find(th, 30); !ok {
			t.Fatalf("recovery did not complete the flagged insert")
		}
		if err := tr.Validate(th); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("dflag", func(t *testing.T) {
		mem := pmem.NewTracked()
		tr := New(mem, persist.NVTraverse{})
		th := mem.NewThread()
		for _, k := range []uint64{20, 40, 60} {
			tr.Insert(th, k, k)
		}
		var sr search
		tr.traverse(th, 40, &sr)
		idx := tr.infos.Alloc(th.ID)
		inf := tr.info(idx)
		th.Store(&inf.Kind, kindDelete)
		th.Store(&inf.GP, pmem.MakeRef(sr.gp))
		th.Store(&inf.P, pmem.MakeRef(sr.p))
		th.Store(&inf.L, pmem.MakeRef(sr.l))
		th.Store(&inf.PUpdate, pmem.Dirty(sr.pUpdate))
		if !th.CAS(&tr.node(sr.gp).Update, sr.gpUpdate, mkUpdate(stDFlag, idx)) {
			t.Fatalf("staging dflag failed")
		}
		mem.PersistAll()
		tr.Recover(th)
		if _, ok := tr.Find(th, 40); ok {
			t.Fatalf("recovery did not complete the flagged delete")
		}
		if tr.CountMarked(th) != 0 {
			t.Fatalf("marked nodes survive recovery")
		}
		if err := tr.Validate(th); err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{20, 60} {
			if _, ok := tr.Find(th, k); !ok {
				t.Fatalf("recovery lost key %d", k)
			}
		}
	})
}

func TestKeyRangePanics(t *testing.T) {
	tr, th := newTree(persist.None{})
	for _, bad := range []uint64{0, Inf1, Inf2} {
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
