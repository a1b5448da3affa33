package store

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/persist"
)

// driveStore exercises the whole Session surface against one store; the
// same body runs on one shard (the direct path) and on several (the merged
// path).
func driveStore(t *testing.T, st Store) {
	t.Helper()
	h := st.NewSession()
	for k := uint64(1); k <= 100; k++ {
		if !h.Insert(k, k) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if v, ok := h.Get(50); !ok || v != 50 {
		t.Fatalf("Get(50) = %d,%v", v, ok)
	}
	h.Put(50, 500)
	if v, _ := h.Get(50); v != 500 {
		t.Fatalf("Put: Get(50) = %d", v)
	}
	if nv, ok := h.Update(50, func(old uint64) uint64 { return old + 1 }); !ok || nv != 501 {
		t.Fatalf("Update = %d,%v", nv, ok)
	}
	if v, ins := h.GetOrInsert(50, 9); ins || v != 501 {
		t.Fatalf("GetOrInsert present = %d,%v", v, ins)
	}
	if v, ins := h.GetOrInsert(200, 9); !ins || v != 9 {
		t.Fatalf("GetOrInsert absent = %d,%v", v, ins)
	}
	h.Delete(200)
	if !st.Ordered() {
		if err := h.Scan(1, 100, func(uint64, uint64) bool { return true }); !errors.Is(err, kv.ErrUnordered) {
			t.Fatalf("Scan on unordered = %v", err)
		}
	} else {
		last := uint64(9)
		n := 0
		if err := h.Scan(10, 20, func(k, v uint64) bool {
			if k <= last || k > 20 {
				t.Fatalf("scan key %d after %d", k, last)
			}
			last = k
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if n != 11 {
			t.Fatalf("scan saw %d keys in [10,20], want 11", n)
		}
	}
	res := h.Apply([]Op{
		{Kind: OpGet, Key: 50},
		{Kind: OpUpdate, Key: 50, Fn: func(old uint64) uint64 { return old * 2 }},
		{Kind: OpInsert, Key: 300, Value: 3},
		{Kind: OpDelete, Key: 300},
		{Kind: OpScan, Key: 1, Hi: 100},
	}, nil)
	if !res[0].OK || res[0].Value != 501 {
		t.Fatalf("Apply get = %+v", res[0])
	}
	if !res[1].OK || res[1].Value != 1002 {
		t.Fatalf("Apply update = %+v", res[1])
	}
	if !res[2].OK || !res[3].OK {
		t.Fatalf("Apply insert/delete = %+v %+v", res[2], res[3])
	}
	if st.Ordered() {
		if !res[4].OK || res[4].Value != 100 {
			t.Fatalf("Apply scan = %+v, want 100 keys", res[4])
		}
		// Scans run before the batch's keyed operations on every backend:
		// the insert in the same batch must not be visible to the scan.
		res2 := h.Apply([]Op{
			{Kind: OpInsert, Key: 400, Value: 4},
			{Kind: OpScan, Key: 400, Hi: 400},
		}, nil)
		if !res2[0].OK || res2[1].Value != 0 {
			t.Fatalf("Apply scan ordering: %+v", res2)
		}
		h.Delete(400)
	} else if res[4].OK {
		t.Fatalf("Apply scan on unordered reported OK")
	}
	mg := h.MultiGet([]uint64{1, 2, 999}, nil)
	if !mg[0].OK || !mg[1].OK || mg[2].OK {
		t.Fatalf("MultiGet = %+v", mg)
	}
	if got := len(st.Contents()); got != 100 {
		t.Fatalf("Contents = %d keys, want 100", got)
	}
	if st.Stats().Ops == 0 {
		t.Fatal("stats did not count ops")
	}
	st.ResetStats()
	st.Recover() // quiescent no-crash recovery must be a safe no-op
	if v, ok := h.Get(50); !ok || v != 1002 {
		t.Fatalf("post-recover Get(50) = %d,%v", v, ok)
	}
}

func TestStoreBackends(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single-skiplist", Config{Kind: core.KindSkiplist, Shards: 1}},
		{"single-hash", Config{Kind: core.KindHash, Shards: 1, SizeHint: 256}},
		{"single-list-logfree", Config{Kind: core.KindList, Shards: 1, Policy: persist.LinkAndPersist{}}},
		{"engine-skiplist-4", Config{Kind: core.KindSkiplist, Shards: 4}},
		{"engine-hash-4", Config{Kind: core.KindHash, Shards: 4, SizeHint: 256}},
		{"engine-nmbst-3", Config{Kind: core.KindNMBST, Shards: 3}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			st, err := Open(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Shards() != c.cfg.Shards {
				t.Fatalf("Shards() = %d, want %d", st.Shards(), c.cfg.Shards)
			}
			driveStore(t, st)
		})
	}
}

func TestOpenRejectsUnknownKind(t *testing.T) {
	if _, err := Open(Config{Kind: core.Kind("btree")}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Open(Config{Kind: core.Kind("btree"), Shards: 4}); err == nil {
		t.Fatal("unknown sharded kind accepted")
	}
}
