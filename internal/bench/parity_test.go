package bench

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
)

// TestStoreSessionParity pins the premise that lets every YCSB run go
// through store.Open: a 1-shard store is the bare structure plus a session,
// and changes none of the structure's flush and fence placement. A seeded
// single-goroutine mix of Insert, Delete, Find and Upsert must issue
// exactly the same Flushes, FlushesElided and Fences (and return the same
// results) on a bare core.Set as through a 1-shard store.Session, for every
// kind under every durable policy.
func TestStoreSessionParity(t *testing.T) {
	const keys = 1024
	ops := 20000
	if testing.Short() {
		ops = 2000 // the race pass runs -short; still enough to catch a shifted RNG
	}
	for _, kind := range core.Kinds() {
		for _, name := range []string{"nvtraverse", "izraelevitz", "logfree"} {
			pol, _ := persist.ByName(name)
			st, err := store.Open(store.Config{
				Kind: kind, Policy: pol, Profile: pmem.ProfileZero, SizeHint: keys, Shards: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			sess := st.NewSession()
			// The same memory the store's shard builds (MaxThreads is the
			// default MaxSessions plus two).
			mem := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, MaxThreads: 64 + 2})
			set, err := core.NewSet(kind, mem, pol, core.Params{SizeHint: keys})
			if err != nil {
				t.Fatal(err)
			}
			// The store's admin session holds the next thread, and skiplist
			// tower heights come from the thread RNG: burn that thread so
			// both sides draw from the same thread index.
			mem.NewThread()
			th := mem.NewThread()
			st.ResetStats()
			mem.ResetStats()

			rng := rand.New(rand.NewSource(int64(len(kind)*31 + len(name))))
			for i := 0; i < ops; i++ {
				k := rng.Uint64()%keys + 1
				v := rng.Uint64()
				var bare, viaStore bool
				switch rng.Intn(4) {
				case 0:
					bare, viaStore = set.Insert(th, k, v), sess.Insert(k, v)
				case 1:
					bare, viaStore = set.Delete(th, k), sess.Delete(k)
				case 2:
					_, bare = set.Find(th, k)
					_, viaStore = sess.Get(k)
				default:
					core.Upsert(set, th, k, v)
					sess.Put(k, v)
				}
				if bare != viaStore {
					t.Fatalf("%s/%s: op %d on key %d: bare %v, store %v", kind, name, i, k, bare, viaStore)
				}
			}
			b, s := mem.Stats(), st.Stats()
			if b.Flushes == 0 || b.Fences == 0 {
				t.Fatalf("%s/%s: the mix issued no flushes or fences", kind, name)
			}
			if b.Flushes != s.Flushes || b.FlushesElided != s.FlushesElided || b.Fences != s.Fences {
				t.Errorf("%s/%s: bare flushes %d elided %d fences %d, 1-shard store %d %d %d",
					kind, name, b.Flushes, b.FlushesElided, b.Fences, s.Flushes, s.FlushesElided, s.Fences)
			}
		}
	}
}
