package store

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
)

func newScanEngine(t *testing.T, shards int, kind core.Kind) *Engine {
	t.Helper()
	return openEngine(t, Config{Shards: shards, Kind: kind, MaxSessions: 16, SizeHint: 1024})
}

// TestScanMergesShards: the merged engine scan must return the same
// globally ordered sequence a single structure would, with keys scattered
// over shards by the hash — for a few keys per shard, and for several
// cursor chunks per shard (refills across chunk boundaries).
func TestScanMergesShards(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		// 2,048 keys in the second input: at least four chunks per shard.
		for _, last := range []uint64{500, 3 * 32 * scanChunk} {
			eng := newScanEngine(t, shards, core.KindSkiplist)
			s := eng.NewSession()
			var want []uint64
			for k := uint64(1); k <= last; k += 3 {
				s.Insert(k, k*2)
				want = append(want, k)
			}
			var got []uint64
			err := s.Scan(1, 2*last, func(k, v uint64) bool {
				if v != k*2 {
					t.Fatalf("shards=%d: key %d value %d", shards, k, v)
				}
				got = append(got, k)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d last=%d: scan %d keys, want %d", shards, last, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("shards=%d last=%d: scan[%d] = %d, want %d", shards, last, i, got[i], want[i])
				}
			}
			if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
				t.Fatalf("shards=%d: merged scan out of order", shards)
			}
			// Bounded sub-range with early stop.
			count := 0
			s.Scan(100, 200, func(k, v uint64) bool {
				if k < 100 || k > 200 {
					t.Fatalf("key %d outside [100, 200]", k)
				}
				count++
				return count < 5
			})
			if count != 5 {
				t.Fatalf("early stop saw %d keys", count)
			}
		}
	}
}

// TestScanWorkBoundedByReply: a scan that stops after 10 keys of the whole
// key range copies at most one cursor chunk per shard, however many keys
// the shards hold.
func TestScanWorkBoundedByReply(t *testing.T) {
	const shards, keys = 4, 100_000
	eng := openEngine(t, Config{Shards: shards, Kind: core.KindSkiplist, SizeHint: keys})
	s := eng.newSession()
	for k := uint64(1); k <= keys; k++ {
		s.Put(k, k)
	}
	n := 0
	if err := s.Scan(1, 1<<61-1, func(k, v uint64) bool {
		n++
		if k != uint64(n) || v != k {
			t.Fatalf("scan[%d] = (%d,%d)", n, k, v)
		}
		return n < 10
	}); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scan visited %d keys, want 10", n)
	}
	buffered := 0
	for _, buf := range s.bufs {
		buffered += len(buf)
	}
	if buffered > shards*scanChunk {
		t.Fatalf("a 10-key scan buffered %d pairs, want at most %d (shards × chunk)", buffered, shards*scanChunk)
	}
}

// TestScanUnorderedEngine: a hash-sharded hash engine has no key order,
// so it refuses a narrow range; the whole range runs shard after shard and
// stops where fn does.
func TestScanUnorderedEngine(t *testing.T) {
	eng := newScanEngine(t, 4, core.KindHash)
	s := eng.NewSession()
	for k := uint64(1); k <= 10; k++ {
		s.Insert(k, k)
	}
	err := s.Scan(1, 10, func(uint64, uint64) bool { return true })
	if !errors.Is(err, kv.ErrUnordered) {
		t.Fatalf("Scan err = %v, want ErrUnordered", err)
	}
	calls := 0
	if err := s.Scan(kv.MinKey, kv.MaxKey, func(uint64, uint64) bool {
		calls++
		return calls < 3
	}); err != nil || calls != 3 {
		t.Fatalf("whole-range scan stopped after %d calls (err %v), want 3", calls, err)
	}
}

// TestWholeScanUnderChurn: a whole-range Scan on every kind, at 1 and 4
// shards, while two writers churn the odd keys 1..127, returns no key
// twice, ascending on ordered kinds, and every even key 2..128 — present
// for the whole scan — with its value.
func TestWholeScanUnderChurn(t *testing.T) {
	scans := 200
	if testing.Short() {
		scans = 50
	}
	for _, kind := range core.Kinds() {
		for _, shards := range []int{1, 4} {
			eng := newScanEngine(t, shards, kind)
			s := eng.NewSession()
			for k := uint64(2); k <= 128; k += 2 {
				s.Insert(k, k*10)
			}
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				ws := eng.NewSession()
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						k := 2*(ws.Rand()%64) + 1
						switch ws.Rand() % 3 {
						case 0:
							ws.Insert(k, k)
						case 1:
							ws.Delete(k)
						default:
							ws.Put(k, ws.Rand())
						}
					}
				}()
			}
			for i := 0; i < scans; i++ {
				seen := map[uint64]bool{}
				last := uint64(0)
				err := s.Scan(kv.MinKey, kv.MaxKey, func(k, v uint64) bool {
					if seen[k] {
						t.Errorf("%s/%d shards: key %d returned twice", kind, shards, k)
					}
					if core.Ordered(kind) && k <= last {
						t.Errorf("%s/%d shards: key %d after %d", kind, shards, k, last)
					}
					if k%2 == 0 && v != k*10 {
						t.Errorf("%s/%d shards: key %d value %d, want %d", kind, shards, k, v, k*10)
					}
					seen[k], last = true, k
					return true
				})
				if err != nil {
					t.Fatalf("%s/%d shards: %v", kind, shards, err)
				}
				for k := uint64(2); k <= 128; k += 2 {
					if !seen[k] {
						t.Errorf("%s/%d shards: scan %d missed key %d", kind, shards, i, k)
					}
				}
				if t.Failed() {
					break
				}
			}
			stop.Store(true)
			wg.Wait()
		}
	}
}

// TestApplyUpdateAndScan drives the new batched op kinds through Apply.
func TestApplyUpdateAndScan(t *testing.T) {
	eng := newScanEngine(t, 4, core.KindList)
	s := eng.NewSession()
	for k := uint64(10); k <= 20; k++ {
		s.Insert(k, k)
	}
	res := s.Apply([]Op{
		{Kind: OpUpdate, Key: 10, Fn: func(old uint64) uint64 { return old + 5 }},
		{Kind: OpUpdate, Key: 99, Fn: func(old uint64) uint64 { return old + 5 }}, // absent
		{Kind: OpUpdate, Key: 11, Value: 111},                                     // nil Fn: conditional overwrite
		{Kind: OpScan, Key: 10, Hi: 20},
		{Kind: OpGet, Key: 10},
	}, nil)
	if !res[0].OK || res[0].Value != 15 {
		t.Fatalf("OpUpdate = %+v, want value 15", res[0])
	}
	if res[1].OK {
		t.Fatalf("OpUpdate on absent key reported OK")
	}
	if !res[2].OK || res[2].Value != 111 {
		t.Fatalf("OpUpdate overwrite = %+v", res[2])
	}
	if !res[3].OK || res[3].Value != 11 {
		t.Fatalf("OpScan = %+v, want 11 keys", res[3])
	}
	if !res[4].OK || res[4].Value != 15 {
		t.Fatalf("OpGet = %+v, want updated value 15", res[4])
	}
}

// TestPutAtomic: concurrent Puts of one key must leave exactly one racing
// value, and the key must never transiently vanish (the old delete+insert
// upsert violated both).
func TestPutAtomic(t *testing.T) {
	eng := newScanEngine(t, 2, core.KindSkiplist)
	setup := eng.NewSession()
	setup.Put(5, 1)
	const (
		writers = 4
		puts    = 300
	)
	var stop atomic.Bool
	var missed atomic.Bool
	var readers, writersWG sync.WaitGroup
	readers.Add(1)
	go func() { // reader: the key must always be present
		defer readers.Done()
		s := eng.NewSession()
		for !stop.Load() {
			if _, ok := s.Get(5); !ok {
				missed.Store(true)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		s := eng.NewSession()
		w := w
		writersWG.Add(1)
		go func() {
			defer writersWG.Done()
			for i := 0; i < puts; i++ {
				s.Put(5, uint64(w*1000+i))
			}
		}()
	}
	writersWG.Wait()
	stop.Store(true)
	readers.Wait()
	if missed.Load() {
		t.Fatal("key transiently absent during concurrent Put")
	}
	v, ok := setup.Get(5)
	if !ok {
		t.Fatal("key absent after Puts")
	}
	if v >= writers*1000+puts || v%1000 >= puts {
		t.Fatalf("final value %d was never written", v)
	}
}
