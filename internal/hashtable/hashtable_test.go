package hashtable

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/persist"
	"repro/internal/pmem"
)

func newTable(pol persist.Policy, buckets int) (*Table, *pmem.Thread) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
	h := New(mem, pol, buckets)
	return h, mem.NewThread()
}

func TestBasicOps(t *testing.T) {
	for _, pol := range persist.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			h, th := newTable(pol, 16)
			for k := uint64(1); k <= 100; k++ {
				if !h.Insert(th, k, k*2) {
					t.Fatalf("insert %d failed", k)
				}
			}
			for k := uint64(1); k <= 100; k++ {
				if v, ok := h.Find(th, k); !ok || v != k*2 {
					t.Fatalf("Find(%d) = %d,%v", k, v, ok)
				}
				if h.Insert(th, k, 0) {
					t.Fatalf("duplicate insert %d", k)
				}
			}
			for k := uint64(1); k <= 100; k += 2 {
				if !h.Delete(th, k) {
					t.Fatalf("delete %d failed", k)
				}
			}
			for k := uint64(1); k <= 100; k++ {
				_, ok := h.Find(th, k)
				if want := k%2 == 0; ok != want {
					t.Fatalf("Find(%d) = %v, want %v", k, ok, want)
				}
			}
			if err := h.Validate(th); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCollisionsShareBucket(t *testing.T) {
	h, th := newTable(persist.NVTraverse{}, 4)
	// Keys 1, 5, 9, 13 collide in bucket 1.
	for _, k := range []uint64{1, 5, 9, 13} {
		if !h.Insert(th, k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	for _, k := range []uint64{1, 5, 9, 13} {
		if _, ok := h.Find(th, k); !ok {
			t.Fatalf("collided key %d lost", k)
		}
	}
	if !h.Delete(th, 5) || !h.Delete(th, 13) {
		t.Fatalf("delete of collided keys failed")
	}
	for _, k := range []uint64{1, 9} {
		if _, ok := h.Find(th, k); !ok {
			t.Fatalf("survivor %d lost after collided deletes", k)
		}
	}
}

func TestSequentialOracle(t *testing.T) {
	h, th := newTable(persist.NVTraverse{}, 32)
	oracle := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8000; i++ {
		k := uint64(rng.Intn(500)) + 1
		switch rng.Intn(3) {
		case 0:
			v := rng.Uint64()
			_, exp := oracle[k]
			if h.Insert(th, k, v) == exp {
				t.Fatalf("op %d: Insert(%d) disagreed with oracle", i, k)
			}
			if !exp {
				oracle[k] = v
			}
		case 1:
			_, exp := oracle[k]
			if h.Delete(th, k) != exp {
				t.Fatalf("op %d: Delete(%d) disagreed with oracle", i, k)
			}
			delete(oracle, k)
		default:
			ev, exp := oracle[k]
			gv, ok := h.Find(th, k)
			if ok != exp || (ok && gv != ev) {
				t.Fatalf("op %d: Find(%d) disagreed with oracle", i, k)
			}
		}
	}
	if got := h.Contents(th); len(got) != len(oracle) {
		t.Fatalf("size %d, oracle %d", len(got), len(oracle))
	}
}

func TestQuickOracle(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint16
	}
	f := func(ops []op) bool {
		h, th := newTable(persist.LinkAndPersist{}, 8)
		oracle := map[uint64]bool{}
		for _, o := range ops {
			k := uint64(o.Key%61) + 1
			switch o.Kind % 3 {
			case 0:
				if h.Insert(th, k, k) == oracle[k] {
					return false
				}
				oracle[k] = true
			case 1:
				if h.Delete(th, k) != oracle[k] {
					return false
				}
				delete(oracle, k)
			default:
				if _, ok := h.Find(th, k); ok != oracle[k] {
					return false
				}
			}
		}
		return h.Validate(th) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStress(t *testing.T) {
	for _, pol := range persist.All() {
		t.Run(pol.Name(), func(t *testing.T) {
			mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 16})
			h := New(mem, pol, 64)
			const threads = 8
			var wg sync.WaitGroup
			for i := 0; i < threads; i++ {
				th := mem.NewThread()
				wg.Add(1)
				go func(th *pmem.Thread) {
					defer wg.Done()
					for j := 0; j < 5000; j++ {
						k := th.Rand()%512 + 1
						switch th.Rand() % 3 {
						case 0:
							h.Insert(th, k, k)
						case 1:
							h.Delete(th, k)
						default:
							h.Find(th, k)
						}
					}
				}(th)
			}
			wg.Wait()
			th := mem.NewThread()
			if err := h.Validate(th); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFlushesIndependentOfTableSize(t *testing.T) {
	// With load factor ~1 the traversal is O(1); NVTraverse lookups flush
	// O(1) cells regardless of total keys.
	mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 4})
	h := New(mem, persist.NVTraverse{}, 4096)
	th := mem.NewThread()
	for k := uint64(1); k <= 4096; k++ {
		h.Insert(th, k, k)
	}
	before := mem.Stats()
	h.Find(th, 4000)
	d := mem.Stats().Sub(before)
	if d.Flushes > 5 {
		t.Fatalf("lookup flushed %d cells", d.Flushes)
	}
}

func TestRecoverAllBuckets(t *testing.T) {
	mem := pmem.NewTracked()
	h := New(mem, persist.NVTraverse{}, 8)
	th := mem.NewThread()
	for k := uint64(1); k <= 64; k++ {
		h.Insert(th, k, k)
	}
	// Simulate lost physical deletes in several buckets by marking nodes.
	marked := 0
	for k := uint64(1); k <= 64; k += 9 {
		if h.bucket(k).DebugMark(th, k) {
			marked++
		}
	}
	if h.CountMarked(th) != marked || marked == 0 {
		t.Fatalf("marked %d, counted %d", marked, h.CountMarked(th))
	}
	h.Recover(th)
	if h.CountMarked(th) != 0 {
		t.Fatalf("marks survive recovery")
	}
	if got := len(h.Contents(th)); got != 64-marked {
		t.Fatalf("size %d after recovery, want %d", got, 64-marked)
	}
}

func TestBadBucketCountPanics(t *testing.T) {
	mem := pmem.NewFast(pmem.ProfileZero)
	defer func() {
		if recover() == nil {
			t.Fatalf("nbuckets=0 accepted")
		}
	}()
	New(mem, persist.None{}, 0)
}

// TestReachableNeverReleased runs Validate's retired ⇒ unreachable audit
// single-threaded after every operation of a churn, under every policy;
// TestConcurrentStress runs it after concurrent traffic. Four buckets over
// 32 keys keep the chains several nodes long.
func TestReachableNeverReleased(t *testing.T) {
	for _, pol := range persist.All() {
		h, th := newTable(pol, 4)
		rng := rand.New(rand.NewSource(1))
		for op := 0; op < 2000; op++ {
			k := uint64(rng.Intn(32)) + 1
			if rng.Intn(2) == 0 {
				h.Insert(th, k, k)
			} else {
				h.Delete(th, k)
			}
			if err := h.Validate(th); err != nil {
				t.Fatalf("%s, op %d: %v", pol.Name(), op, err)
			}
		}
	}
}

// TestValidateCatchesDamage: Validate fails on a node reachable from a
// bucket that is free, and on a cycle in a bucket's next word, while
// Contents and CountMarked still return on the cycle.
func TestValidateCatchesDamage(t *testing.T) {
	h, th := newTable(persist.NVTraverse{}, 4)
	for k := uint64(1); k <= 16; k++ {
		h.Insert(th, k, k)
	}
	second := pmem.RefIndex(th.Load(&h.sh.Ar.Get(h.buckets[2].Head()).Next))
	h.sh.Ar.Free(th.ID, second)
	if err := h.Validate(th); err == nil || !strings.Contains(err.Error(), "free or in limbo") {
		t.Fatalf("Validate with a bucket node freed = %v", err)
	}

	h, th = newTable(persist.NVTraverse{}, 4)
	for k := uint64(1); k <= 16; k++ {
		h.Insert(th, k, k)
	}
	// A marked node linked to itself breaks no key order: only the walk's
	// step bound catches it.
	first := pmem.RefIndex(th.Load(&h.sh.Ar.Get(h.buckets[1].Head()).Next))
	th.Store(&h.sh.Ar.Get(first).Next, pmem.WithMark(pmem.MakeRef(first)))
	if err := h.Validate(th); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("Validate with a cycle = %v", err)
	}
	if len(h.Contents(th)) != 12 || h.CountMarked(th) == 0 {
		t.Fatalf("Contents %v, CountMarked %d on a cycle", h.Contents(th), h.CountMarked(th))
	}
}
