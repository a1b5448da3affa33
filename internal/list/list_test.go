package list

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/persist"
	"repro/internal/pmem"
)

func newList(pol persist.Policy) (*List, *pmem.Thread) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
	l := New(mem, pol)
	return l, mem.NewThread()
}

func policies() []persist.Policy { return persist.All() }

func TestInsertFindDelete(t *testing.T) {
	for _, pol := range policies() {
		t.Run(pol.Name(), func(t *testing.T) {
			l, th := newList(pol)
			if _, ok := l.Find(th, 5); ok {
				t.Fatalf("empty list finds 5")
			}
			if !l.Insert(th, 5, 50) {
				t.Fatalf("insert 5 failed")
			}
			if l.Insert(th, 5, 51) {
				t.Fatalf("duplicate insert succeeded")
			}
			if v, ok := l.Find(th, 5); !ok || v != 50 {
				t.Fatalf("Find(5) = %d,%v", v, ok)
			}
			if !l.Delete(th, 5) {
				t.Fatalf("delete 5 failed")
			}
			if l.Delete(th, 5) {
				t.Fatalf("double delete succeeded")
			}
			if _, ok := l.Find(th, 5); ok {
				t.Fatalf("deleted key found")
			}
		})
	}
}

func TestSortedOrder(t *testing.T) {
	l, th := newList(persist.NVTraverse{})
	keys := []uint64{9, 3, 7, 1, 5, 8, 2, 6, 4}
	for _, k := range keys {
		if !l.Insert(th, k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	got := l.Contents(th)
	want := append([]uint64(nil), keys...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("contents = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("contents[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if err := l.Validate(th); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialOracle(t *testing.T) {
	for _, pol := range policies() {
		t.Run(pol.Name(), func(t *testing.T) {
			l, th := newList(pol)
			oracle := map[uint64]uint64{}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 5000; i++ {
				k := uint64(rng.Intn(200)) + 1
				switch rng.Intn(3) {
				case 0:
					v := rng.Uint64()
					_, exp := oracle[k]
					if got := l.Insert(th, k, v); got == exp {
						t.Fatalf("op %d: Insert(%d) = %v, oracle has=%v", i, k, got, exp)
					}
					if !exp {
						oracle[k] = v
					}
				case 1:
					_, exp := oracle[k]
					if got := l.Delete(th, k); got != exp {
						t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, exp)
					}
					delete(oracle, k)
				default:
					ev, exp := oracle[k]
					gv, got := l.Find(th, k)
					if got != exp || (got && gv != ev) {
						t.Fatalf("op %d: Find(%d) = %d,%v want %d,%v", i, k, gv, got, ev, exp)
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

func TestQuickMatchesMapSemantics(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16
	}
	f := func(ops []op) bool {
		l, th := newList(persist.NVTraverse{})
		oracle := map[uint64]bool{}
		for _, o := range ops {
			k := uint64(o.Key%97) + 1
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
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRangePanics(t *testing.T) {
	l, th := newList(persist.None{})
	for _, bad := range []uint64{0, 1 << 61, 1<<61 + 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("key %d accepted", bad)
				}
			}()
			l.Insert(th, bad, 0)
		}()
	}
}

func TestConcurrentStress(t *testing.T) {
	for _, pol := range policies() {
		t.Run(pol.Name(), func(t *testing.T) {
			mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
			l := New(mem, pol)
			const (
				threads = 8
				ops     = 4000
				keys    = 128
			)
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				th := mem.NewThread()
				wg.Add(1)
				go func(th *pmem.Thread) {
					defer wg.Done()
					for j := 0; j < ops; j++ {
						k := th.Rand()%keys + 1
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
			if err := releasedReachable(l, th); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentDisjointKeys: each thread owns a key range, so every op's
// result is predictable even under concurrency.
func TestConcurrentDisjointKeys(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
	l := New(mem, persist.NVTraverse{})
	const threads = 6
	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for i := 0; i < threads; i++ {
		th := mem.NewThread()
		base := uint64(i*1000 + 1)
		wg.Add(1)
		go func(th *pmem.Thread, base uint64) {
			defer wg.Done()
			for k := base; k < base+200; k++ {
				if !l.Insert(th, k, k) {
					errs <- errf("insert %d failed", k)
					return
				}
			}
			for k := base; k < base+200; k += 2 {
				if !l.Delete(th, k) {
					errs <- errf("delete %d failed", k)
					return
				}
			}
			for k := base; k < base+200; k++ {
				_, ok := l.Find(th, k)
				if want := (k-base)%2 == 1; ok != want {
					errs <- errf("find %d = %v, want %v", k, ok, want)
					return
				}
			}
		}(th, base)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	th := mem.NewThread()
	if got, want := len(l.Contents(th)), threads*100; got != want {
		t.Fatalf("final size %d, want %d", got, want)
	}
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

func TestMemoryReclamation(t *testing.T) {
	// Insert/delete churn over a tiny key space must not grow the arena
	// unboundedly: retired nodes must come back.
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	l := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for i := 0; i < 20000; i++ {
		k := uint64(i%8) + 1
		l.Insert(th, k, k)
		l.Delete(th, k)
	}
	if hw := l.Shared().Ar.HighWater(); hw > 4096 {
		t.Fatalf("arena grew to %d handles over an 8-key churn", hw)
	}
}

// --- persistence placement ---

func TestNVTraverseFlushCountsConstantPerFind(t *testing.T) {
	// The headline claim: a lookup flushes O(1) cells no matter how long
	// the traversal is.
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	l := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for k := uint64(1); k <= 2000; k++ {
		l.Insert(th, k, k)
	}
	mem.ResetStats()
	before := mem.Stats()
	l.Find(th, 2000) // traverses 2000 nodes
	d := mem.Stats().Sub(before)
	if d.Flushes > 4 {
		t.Fatalf("NVTraverse find flushed %d cells, want <= 4", d.Flushes)
	}
	if d.Fences > 2 {
		t.Fatalf("NVTraverse find fenced %d times, want <= 2", d.Fences)
	}
}

func TestIzraelevitzFlushCountsLinearPerFind(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	l := New(mem, persist.Izraelevitz{})
	th := mem.NewThread()
	for k := uint64(1); k <= 500; k++ {
		l.Insert(th, k, k)
	}
	mem.ResetStats()
	before := mem.Stats()
	l.Find(th, 500)
	d := mem.Stats().Sub(before)
	if d.Flushes < 400 {
		t.Fatalf("Izraelevitz find flushed only %d cells over a 500-node traversal", d.Flushes)
	}
}

func TestNonePolicyNeverFlushes(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	l := New(mem, persist.None{})
	th := mem.NewThread()
	mem.ResetStats()
	for k := uint64(1); k <= 100; k++ {
		l.Insert(th, k, k)
		l.Find(th, k)
		l.Delete(th, k)
	}
	s := mem.Stats()
	if s.Flushes != 0 || s.Fences != 0 {
		t.Fatalf("None policy persisted: %+v", s)
	}
}

func TestLinkAndPersistSavesRepeatFlushes(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	l := New(mem, persist.LinkAndPersist{})
	th := mem.NewThread()
	for k := uint64(1); k <= 100; k++ {
		l.Insert(th, k, k)
	}
	// First lookup flushes and tags; repeats hit the tag.
	l.Find(th, 100)
	before := mem.Stats()
	for i := 0; i < 10; i++ {
		l.Find(th, 100)
	}
	d := mem.Stats().Sub(before)
	if d.Flushes != 0 {
		t.Fatalf("repeat lookups still flushed %d times", d.Flushes)
	}
}

// --- recovery ---

func TestRecoverTrimsMarkedNodes(t *testing.T) {
	mem := pmem.NewTracked()
	l := New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	for k := uint64(1); k <= 20; k++ {
		l.Insert(th, k, k)
	}
	// Mark a few nodes by hand: simulate deletes whose physical phase was
	// lost in a crash.
	for _, k := range []uint64{3, 7, 11} {
		idx := findHandle(t, l, th, k)
		n := l.node(idx)
		nx := th.Load(&n.Next)
		if !th.CAS(&n.Next, nx, pmem.WithMark(nx)) {
			t.Fatalf("marking %d failed", k)
		}
	}
	if l.CountMarked(th) != 3 {
		t.Fatalf("marked = %d", l.CountMarked(th))
	}
	l.Recover(th)
	if l.CountMarked(th) != 0 {
		t.Fatalf("marked nodes survive recovery: %d", l.CountMarked(th))
	}
	got := l.Contents(th)
	if len(got) != 17 {
		t.Fatalf("size after recovery = %d, want 17", len(got))
	}
	for _, k := range got {
		if k == 3 || k == 7 || k == 11 {
			t.Fatalf("marked key %d survives recovery", k)
		}
	}
}

func findHandle(t *testing.T, l *List, th *pmem.Thread, key uint64) uint64 {
	t.Helper()
	cur := pmem.RefIndex(th.Load(&l.node(l.head).Next))
	for cur != 0 {
		if th.Load(&l.node(cur).Key) == key {
			return cur
		}
		cur = pmem.RefIndex(th.Load(&l.node(cur).Next))
	}
	t.Fatalf("key %d not reachable", key)
	return 0
}

func TestLiveHandles(t *testing.T) {
	l, th := newList(persist.NVTraverse{})
	for k := uint64(1); k <= 5; k++ {
		l.Insert(th, k, k)
	}
	live := map[uint64]bool{}
	l.LiveHandles(th, live)
	if len(live) != 6 { // 5 keys + head sentinel
		t.Fatalf("live = %d, want 6", len(live))
	}
}

// releasedReachable audits "retired ⇒ unreachable": it reports the first
// node reachable from the head — marked ones not yet unlinked included —
// that is free or in limbo (arena.Released). Quiescent use only.
func releasedReachable(l *List, th *pmem.Thread) error {
	for idx := l.head; idx != 0; idx = pmem.RefIndex(th.Load(&l.node(idx).Next)) {
		if l.sh.Ar.Released(idx) {
			return fmt.Errorf("reachable node %d is free or in limbo", idx)
		}
	}
	return nil
}

// TestReachableNeverReleased runs the audit single-threaded after every
// operation of a churn, under every policy; TestConcurrentStress runs it
// after concurrent traffic.
func TestReachableNeverReleased(t *testing.T) {
	for _, pol := range policies() {
		l, th := newList(pol)
		rng := rand.New(rand.NewSource(1))
		for op := 0; op < 2000; op++ {
			k := uint64(rng.Intn(32)) + 1
			if rng.Intn(2) == 0 {
				l.Insert(th, k, k)
			} else {
				l.Delete(th, k)
			}
			if err := releasedReachable(l, th); err != nil {
				t.Fatalf("%s, op %d: %v", pol.Name(), op, err)
			}
		}
	}
}
