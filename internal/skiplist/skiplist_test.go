package skiplist

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/persist"
	"repro/internal/pmem"
)

func newSkip(pol persist.Policy) (*List, *pmem.Thread) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
	l := New(mem, pol)
	return l, mem.NewThread()
}

func TestBasicOps(t *testing.T) {
	for _, pol := range persist.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			l, th := newSkip(pol)
			if _, ok := l.Find(th, 10); ok {
				t.Fatalf("empty skiplist finds 10")
			}
			if !l.Insert(th, 10, 100) || l.Insert(th, 10, 101) {
				t.Fatalf("insert semantics broken")
			}
			if v, ok := l.Find(th, 10); !ok || v != 100 {
				t.Fatalf("Find(10) = %d,%v", v, ok)
			}
			if !l.Delete(th, 10) || l.Delete(th, 10) {
				t.Fatalf("delete semantics broken")
			}
			if _, ok := l.Find(th, 10); ok {
				t.Fatalf("deleted key found")
			}
		})
	}
}

func TestManyKeysSorted(t *testing.T) {
	l, th := newSkip(persist.NVTraverse{})
	rng := rand.New(rand.NewSource(11))
	keys := rng.Perm(2000)
	for _, k := range keys {
		if !l.Insert(th, uint64(k)+1, uint64(k)) {
			t.Fatalf("insert %d failed", k)
		}
	}
	got := l.Contents(th)
	if len(got) != 2000 {
		t.Fatalf("size = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("unsorted at %d: %d after %d", i, got[i], got[i-1])
		}
	}
	if err := l.Validate(th); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOracle(t *testing.T) {
	for _, pol := range persist.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			l, th := newSkip(pol)
			oracle := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(13))
			for i := 0; i < 6000; i++ {
				k := uint64(rng.Intn(300)) + 1
				switch rng.Intn(3) {
				case 0:
					v := rng.Uint64()
					_, exp := oracle[k]
					if l.Insert(th, k, v) == exp {
						t.Fatalf("op %d: Insert(%d) disagreed", i, k)
					}
					if !exp {
						oracle[k] = v
					}
				case 1:
					_, exp := oracle[k]
					if l.Delete(th, k) != exp {
						t.Fatalf("op %d: Delete(%d) disagreed", i, k)
					}
					delete(oracle, k)
				default:
					ev, exp := oracle[k]
					gv, ok := l.Find(th, k)
					if ok != exp || (ok && gv != ev) {
						t.Fatalf("op %d: Find(%d) disagreed", i, k)
					}
				}
			}
			if err := l.Validate(th); err != nil {
				t.Fatal(err)
			}
			if got := l.Contents(th); len(got) != len(oracle) {
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
		l, th := newSkip(persist.NVTraverse{})
		oracle := map[uint64]bool{}
		for _, o := range ops {
			k := uint64(o.Key%83) + 1
			switch o.Kind % 3 {
			case 0:
				if l.Insert(th, k, k) == oracle[k] {
					return false
				}
				oracle[k] = true
			case 1:
				if l.Delete(th, k) != oracle[k] {
					return false
				}
				delete(oracle, k)
			default:
				if _, ok := l.Find(th, k); ok != oracle[k] {
					return false
				}
			}
		}
		return l.Validate(th) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStress(t *testing.T) {
	for _, pol := range []persist.Policy{persist.None{}, persist.NVTraverse{}, persist.LinkAndPersist{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
			l := New(mem, pol)
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
							l.Insert(th, k, k)
						case 1:
							l.Delete(th, k)
						default:
							l.Find(th, k)
						}
					}
				}(th)
			}
			wg.Wait()
			th := mem.NewThread()
			if err := l.Validate(th); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConcurrentDisjoint(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
	l := New(mem, persist.NVTraverse{})
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
				if !l.Insert(th, k, k) {
					fail <- "insert failed"
					return
				}
			}
			for k := base; k < base+300; k += 2 {
				if !l.Delete(th, k) {
					fail <- "delete failed"
					return
				}
			}
			for k := base; k < base+300; k++ {
				_, ok := l.Find(th, k)
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
	if err := l.Validate(th); err != nil {
		t.Fatal(err)
	}
	if got := len(l.Contents(th)); got != threads*150 {
		t.Fatalf("size %d, want %d", got, threads*150)
	}
}

func TestOnlyLevelZeroFlushed(t *testing.T) {
	// Property 2 in action: even with 4096 keys (towers ~12 high), an
	// NVTraverse lookup flushes O(1) cells — the index is never persisted.
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	l := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for k := uint64(1); k <= 4096; k++ {
		l.Insert(th, k, k)
	}
	before := mem.Stats()
	l.Find(th, 4000)
	d := mem.Stats().Sub(before)
	if d.Flushes > 5 {
		t.Fatalf("skiplist lookup flushed %d cells", d.Flushes)
	}
	if d.Fences > 2 {
		t.Fatalf("skiplist lookup fenced %d times", d.Fences)
	}
}

func TestRandomLevelDistribution(t *testing.T) {
	mem := pmem.NewFast(pmem.ProfileZero)
	th := mem.NewThread()
	counts := make([]int, MaxLevel+1)
	const draws = 100000
	for i := 0; i < draws; i++ {
		lvl := randomLevel(th)
		if lvl < 1 || lvl > MaxLevel {
			t.Fatalf("level %d out of range", lvl)
		}
		counts[lvl]++
	}
	if counts[1] < draws/3 || counts[1] > 2*draws/3 {
		t.Fatalf("P(level=1) = %f, want ~0.5", float64(counts[1])/draws)
	}
	if counts[2] < draws/8 || counts[2] > draws/2 {
		t.Fatalf("P(level=2) = %f, want ~0.25", float64(counts[2])/draws)
	}
}

func TestRecoverRebuildsTowers(t *testing.T) {
	mem := pmem.NewTracked()
	l := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for k := uint64(1); k <= 200; k++ {
		l.Insert(th, k, k*7)
	}
	// Wreck the auxiliary index the way a crash would (it was volatile):
	// zero out every upper-level link.
	headN := l.node(l.head)
	for i := 1; i < MaxLevel; i++ {
		th.Store(headN.next(i), pmem.NilRef)
	}
	l.Recover(th)
	if err := l.Validate(th); err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 200; k++ {
		if v, ok := l.Find(th, k); !ok || v != k*7 {
			t.Fatalf("post-recovery Find(%d) = %d,%v", k, v, ok)
		}
	}
	// The rebuilt index must actually exist (not everything at level 1).
	if pmem.RefIndex(th.Load(headN.next(1))) == 0 {
		t.Fatalf("towers not rebuilt")
	}
}

func TestRecoverTrimsMarked(t *testing.T) {
	mem := pmem.NewTracked()
	l := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for k := uint64(1); k <= 50; k++ {
		l.Insert(th, k, k)
	}
	// Mark some level-0 nodes by hand (lost physical deletions).
	markedKeys := []uint64{5, 25, 45}
	cur := pmem.RefIndex(th.Load(l.node(l.head).next(0)))
	for cur != 0 {
		n := l.node(cur)
		nx := th.Load(n.next(0))
		k := th.Load(&n.Key)
		for _, mk := range markedKeys {
			if k == mk {
				th.CAS(n.next(0), nx, pmem.WithMark(nx))
			}
		}
		cur = pmem.RefIndex(pmem.ClearTags(th.Load(n.next(0))))
	}
	if l.CountMarked(th) != 3 {
		t.Fatalf("marked = %d", l.CountMarked(th))
	}
	l.Recover(th)
	if l.CountMarked(th) != 0 {
		t.Fatalf("marks survived recovery")
	}
	if got := len(l.Contents(th)); got != 47 {
		t.Fatalf("size = %d, want 47", got)
	}
	if err := l.Validate(th); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryReclamation(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	l := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for i := 0; i < 20000; i++ {
		k := uint64(i%8) + 1
		l.Insert(th, k, k)
		l.Delete(th, k)
	}
	if hw := l.ar.HighWater(); hw > 4096 {
		t.Fatalf("arena grew to %d handles over an 8-key churn", hw)
	}
}

func TestKeyRangePanics(t *testing.T) {
	l, th := newSkip(persist.None{})
	defer func() {
		if recover() == nil {
			t.Fatalf("key 0 accepted")
		}
	}()
	l.Insert(th, 0, 0)
}

// TestReachableNeverReleased runs Validate's retired ⇒ unreachable audit
// single-threaded after every operation of a churn, under every policy;
// TestConcurrentStress runs it after concurrent traffic.
func TestReachableNeverReleased(t *testing.T) {
	for _, pol := range persist.All() {
		l, th := newSkip(pol)
		rng := rand.New(rand.NewSource(1))
		for op := 0; op < 2000; op++ {
			k := uint64(rng.Intn(32)) + 1
			if rng.Intn(2) == 0 {
				l.Insert(th, k, k)
			} else {
				l.Delete(th, k)
			}
			if err := l.Validate(th); err != nil {
				t.Fatalf("%s, op %d: %v", pol.Name(), op, err)
			}
		}
	}
}

// TestValidateCatchesDamage: Validate fails on a reachable node that is
// free, also when it is reachable only above level 0, and on a cycle in a
// next word, while Contents and CountMarked still return on the cycle.
func TestValidateCatchesDamage(t *testing.T) {
	build := func() (*List, *pmem.Thread) {
		l, th := newSkip(persist.NVTraverse{})
		for k := uint64(1); k <= 64; k++ {
			l.Insert(th, k, k)
		}
		return l, th
	}
	l, th := build()
	l.ar.Free(th.ID, pmem.RefIndex(th.Load(l.node(l.head).next(0))))
	if err := l.Validate(th); err == nil || !strings.Contains(err.Error(), "free or in limbo") {
		t.Fatalf("Validate with a level-0 node freed = %v", err)
	}

	// A tower unlinked from level 0 but still indexed above it.
	l, th = build()
	tower := pmem.RefIndex(th.Load(l.node(l.head).next(1)))
	pred := l.head
	for pmem.RefIndex(th.Load(l.node(pred).next(0))) != tower {
		pred = pmem.RefIndex(th.Load(l.node(pred).next(0)))
	}
	th.Store(l.node(pred).next(0), th.Load(l.node(tower).next(0)))
	l.ar.Free(th.ID, tower)
	if err := l.Validate(th); err == nil || !strings.Contains(err.Error(), "free or in limbo") {
		t.Fatalf("Validate with a level-1 tower freed = %v", err)
	}

	// A marked node linked to itself breaks no key order: only the walk's
	// step bound catches it.
	l, th = build()
	first := pmem.RefIndex(th.Load(l.node(l.head).next(0)))
	th.Store(l.node(first).next(0), pmem.WithMark(pmem.MakeRef(first)))
	if err := l.Validate(th); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate with a cycle = %v", err)
	}
	if len(l.Contents(th)) != 0 || l.CountMarked(th) == 0 {
		t.Fatalf("Contents %v, CountMarked %d on a cycle", l.Contents(th), l.CountMarked(th))
	}
}
