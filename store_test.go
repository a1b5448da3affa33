package nvtraverse

import (
	"errors"
	"sync"
	"testing"
)

func TestOpenDefaults(t *testing.T) {
	st, err := Open(Skiplist)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind() != Skiplist || st.Shards() != 1 || !st.Ordered() {
		t.Fatalf("defaults: kind=%s shards=%d ordered=%v", st.Kind(), st.Shards(), st.Ordered())
	}
	h := st.NewSession()
	h.Put(1, 10)
	if v, ok := h.Get(1); !ok || v != 10 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
}

func TestOpenOptions(t *testing.T) {
	st, err := Open(NMBST,
		WithPolicy(PolicyLogFree),
		WithProfile(DRAM),
		WithShards(4),
		WithSizeHint(1<<12),
		WithMaxSessions(8),
	)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 4 {
		t.Fatalf("Shards() = %d", st.Shards())
	}
	h := st.NewSession()
	for k := uint64(1); k <= 200; k++ {
		h.Insert(k, k)
	}
	// The engine scan merges 4 per-shard NM-BST scans into one ordered
	// stream.
	last := uint64(0)
	n := 0
	if err := h.Scan(1, 200, func(k, v uint64) bool {
		if k <= last {
			t.Fatalf("merged scan out of order: %d after %d", k, last)
		}
		last = k
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Fatalf("scan saw %d keys, want 200", n)
	}
}

func TestOpenUnorderedScan(t *testing.T) {
	st, err := Open(HashMap, WithSizeHint(64))
	if err != nil {
		t.Fatal(err)
	}
	if st.Ordered() {
		t.Fatal("hash store claims an order")
	}
	err = st.NewSession().Scan(1, 10, func(uint64, uint64) bool { return true })
	if !errors.Is(err, ErrUnordered) {
		t.Fatalf("Scan err = %v, want ErrUnordered", err)
	}
}

func TestMapTypedFacade(t *testing.T) {
	st, err := Open(Skiplist)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMap[int, uint64](st.NewSession(), IntCodec{}, Uint64Codec{})
	for i := 0; i < 50; i++ {
		m.Put(i, uint64(i)*7)
	}
	if v, ok := m.Get(21); !ok || v != 147 {
		t.Fatalf("Get(21) = %d,%v", v, ok)
	}
	if nv, ok := m.Update(21, func(old uint64) uint64 { return old + 3 }); !ok || nv != 150 {
		t.Fatalf("Update = %d,%v", nv, ok)
	}
	if v, ins := m.GetOrInsert(21, 1); ins || v != 150 {
		t.Fatalf("GetOrInsert present = %d,%v", v, ins)
	}
	if !m.Delete(0) {
		t.Fatal("Delete(0) failed — IntCodec must make int key 0 legal")
	}
	var got []int
	if err := m.Scan(10, 19, func(k int, v uint64) bool {
		got = append(got, k)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("typed Scan = %v", got)
	}
}

// TestMapMissReturnsZeroValue: a miss yields V's zero value, not a decode
// of the store's raw 0 (IntCodec.Decode(0) would be -1).
func TestMapMissReturnsZeroValue(t *testing.T) {
	st, err := Open(Skiplist)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMap[uint64, int](st.NewSession(), Uint64Codec{}, IntCodec{})
	if v, ok := m.Get(9); ok || v != 0 {
		t.Fatalf("Get miss = %d,%v, want 0,false", v, ok)
	}
	if v, ok := m.Update(9, func(old int) int { return old + 1 }); ok || v != 0 {
		t.Fatalf("Update miss = %d,%v, want 0,false", v, ok)
	}
}

// TestMapAtomicAcrossGoroutines: the typed Update composes codecs with the
// structure-level atomicity.
func TestMapAtomicAcrossGoroutines(t *testing.T) {
	st, err := Open(List)
	if err != nil {
		t.Fatal(err)
	}
	seed := st.NewSession()
	seed.Insert(IntCodec{}.Encode(1), 0)
	const workers, rounds = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m := NewMap[int, uint64](st.NewSession(), IntCodec{}, Uint64Codec{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Update(1, func(old uint64) uint64 { return old + 1 })
			}
		}()
	}
	wg.Wait()
	m := NewMap[int, uint64](st.NewSession(), IntCodec{}, Uint64Codec{})
	if v, ok := m.Get(1); !ok || v != workers*rounds {
		t.Fatalf("counter = %d,%v want %d", v, ok, workers*rounds)
	}
}
