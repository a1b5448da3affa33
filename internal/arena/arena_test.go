package arena

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/epoch"
)

type testNode struct {
	a, b uint64
}

func newArena(threads int) (*Arena[testNode], *epoch.Domain) {
	d := epoch.New(threads)
	return New[testNode](d, threads), d
}

func TestAllocDistinctHandles(t *testing.T) {
	a, _ := newArena(1)
	seen := map[uint64]bool{}
	for i := 0; i < 3*ChunkSize; i++ { // cross chunk boundaries
		idx := a.Alloc(0)
		if idx == 0 {
			t.Fatalf("Alloc returned the nil handle")
		}
		if seen[idx] {
			t.Fatalf("handle %d allocated twice", idx)
		}
		seen[idx] = true
	}
}

func TestGetStable(t *testing.T) {
	a, _ := newArena(1)
	idx := a.Alloc(0)
	n := a.Get(idx)
	n.a = 7
	// Allocating more (growing chunks) must not move existing nodes.
	for i := 0; i < 2*ChunkSize; i++ {
		a.Alloc(0)
	}
	if a.Get(idx) != n || n.a != 7 {
		t.Fatalf("node moved or lost its value")
	}
}

func TestFreeReuses(t *testing.T) {
	a, _ := newArena(1)
	idx := a.Alloc(0)
	a.Free(0, idx)
	if got := a.Alloc(0); got != idx {
		t.Fatalf("freed handle not reused: got %d want %d", got, idx)
	}
}

func TestRetireRespectsGracePeriod(t *testing.T) {
	a, d := newArena(2)
	idx := a.Alloc(0)
	d.Enter(1) // a reader pins the current epoch
	a.Retire(0, idx)
	// Drain the allocator's own free list, then force collection attempts:
	// the retired handle must not come back while thread 1 is pinned.
	for i := 0; i < 4*collectInterval; i++ {
		other := a.Alloc(0)
		if other == idx {
			t.Fatalf("retired handle reused during reader's critical section")
		}
		dummy := a.Alloc(0)
		_ = dummy
		a.Retire(0, dummy)
		_ = other
	}
	d.Exit(1)
	for i := 0; i < 3; i++ {
		d.TryAdvance()
	}
	a.collect(0)
	_, free, _ := a.Stats()
	if free == 0 {
		t.Fatalf("nothing reclaimed after quiescence")
	}
}

// TestRetireLateOutlastsLateEntrant: a reader that enters one epoch after
// the retirement (while an older reader still pins the domain) must not see
// a RetireLate handle recycled, though a plain Retire one may be.
func TestRetireLateOutlastsLateEntrant(t *testing.T) {
	a, d := newArena(3)
	late, plain := a.Alloc(0), a.Alloc(0)
	d.Enter(1)
	a.Retire(0, plain)
	a.RetireLate(0, late)
	d.TryAdvance()
	d.Exit(1)
	d.Enter(2) // enters one epoch after the retirement
	d.TryAdvance()
	d.TryAdvance() // blocked by thread 2
	a.collect(0)
	if !a.Released(plain) || !a.Released(late) {
		t.Fatalf("retired handles not released: plain %v late %v", a.Released(plain), a.Released(late))
	}
	if a.ts[0].free[0] != plain || len(a.ts[0].free) != 1 {
		t.Fatalf("free list %v, want only the plain handle %d", a.ts[0].free, plain)
	}
	d.Exit(2)
	d.TryAdvance()
	a.collect(0)
	if len(a.ts[0].free) != 2 || len(a.ts[0].limbo) != 0 {
		t.Fatalf("after the late reader left: free %v limbo %v", a.ts[0].free, a.ts[0].limbo)
	}
	if live := a.Alloc(1); a.Released(live) {
		t.Fatalf("allocated handle %d reported released", live)
	}
}

func TestStats(t *testing.T) {
	a, d := newArena(1)
	i1 := a.Alloc(0)
	i2 := a.Alloc(0)
	a.Free(0, i1)
	a.Retire(0, i2)
	alloc, free, limbo := a.Stats()
	if alloc != 2 || free != 1 || limbo != 1 {
		t.Fatalf("Stats = %d %d %d", alloc, free, limbo)
	}
	_ = d
}

func TestConcurrentAllocRetire(t *testing.T) {
	const threads = 4
	a, d := newArena(threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			var held []uint64
			for i := 0; i < 5000; i++ {
				d.Enter(tid)
				idx := a.Alloc(tid)
				n := a.Get(idx)
				n.a = uint64(tid)
				n.b = uint64(i)
				held = append(held, idx)
				if len(held) > 8 {
					a.Retire(tid, held[0])
					held = held[1:]
				}
				d.Exit(tid)
			}
		}(tid)
	}
	wg.Wait()
	alloc, _, _ := a.Stats()
	if alloc == 0 {
		t.Fatalf("nothing allocated")
	}
}

// Property: alternating alloc/free of arbitrary batch sizes never yields the
// nil handle or a double allocation among simultaneously-held handles.
func TestQuickAllocFree(t *testing.T) {
	f := func(batches []uint8) bool {
		a, _ := newArena(1)
		held := map[uint64]bool{}
		var order []uint64
		for _, b := range batches {
			n := int(b%17) + 1
			for i := 0; i < n; i++ {
				idx := a.Alloc(0)
				if idx == 0 || held[idx] {
					return false
				}
				held[idx] = true
				order = append(order, idx)
			}
			for i := 0; i < n/2 && len(order) > 0; i++ {
				idx := order[len(order)-1]
				order = order[:len(order)-1]
				delete(held, idx)
				a.Free(0, idx)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
