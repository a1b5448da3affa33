package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/store"
)

// TestStoreDurableReopen round-trips stores of one and of several shards
// through the file backend: open with Dir, write, close, reopen the same directory, and
// require every key back with its value (plus scan agreement on ordered
// kinds).
func TestStoreDurableReopen(t *testing.T) {
	cases := []struct {
		name string
		cfg  store.Config
	}{
		{"single-hash", store.Config{Kind: core.KindHash, SizeHint: 1 << 10}},
		{"single-skiplist", store.Config{Kind: core.KindSkiplist, SizeHint: 1 << 10}},
		{"engine-skiplist", store.Config{Kind: core.KindSkiplist, Shards: 4, SizeHint: 1 << 10}},
		{"engine-hash-tracked", store.Config{Kind: core.KindHash, Shards: 2, Tracked: true, SizeHint: 1 << 10}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := tc.cfg
			cfg.Dir = t.TempDir()
			st, err := store.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Durable() {
				t.Fatal("store not durable with Dir set")
			}
			s := st.NewSession()
			const n = 500
			for k := uint64(1); k <= n; k++ {
				s.Put(k, k*3)
			}
			for k := uint64(1); k <= n; k += 3 {
				s.Delete(k)
			}
			if err := st.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			st2, err := store.Open(cfg)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer st2.Close()
			if rs := st2.ReplayStats(); rs.Records == 0 && rs.CheckpointBytes == 0 {
				t.Fatalf("reopen replayed nothing: %+v", rs)
			}
			s2 := st2.NewSession()
			for k := uint64(1); k <= n; k++ {
				v, ok := s2.Get(k)
				if k%3 == 1 {
					if ok {
						t.Fatalf("deleted key %d present after reopen", k)
					}
					continue
				}
				if !ok || v != k*3 {
					t.Fatalf("key %d: got (%d,%v), want (%d,true)", k, v, ok, k*3)
				}
			}
			if st2.Ordered() {
				var count int
				if err := s2.Scan(1, n, func(k, v uint64) bool {
					if k%3 == 1 || v != k*3 {
						t.Fatalf("scan saw (%d,%d)", k, v)
					}
					count++
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if want := int(n) - (int(n)+2)/3; count != want {
					t.Fatalf("scan found %d keys, want %d", count, want)
				}
			}
		})
	}
}

// TestStoreDurableCheckpointReopen checkpoints mid-stream and verifies the
// post-checkpoint writes land on top of the snapshot after reopen.
func TestStoreDurableCheckpointReopen(t *testing.T) {
	cfg := store.Config{Kind: core.KindHash, Shards: 2, SizeHint: 1 << 10, Dir: t.TempDir()}
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	for k := uint64(1); k <= 200; k++ {
		s.Put(k, k)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	for k := uint64(201); k <= 400; k++ {
		s.Put(k, k)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	if rs := st2.ReplayStats(); rs.CheckpointBytes == 0 {
		t.Fatalf("no checkpoint loaded: %+v", rs)
	}
	s2 := st2.NewSession()
	for k := uint64(1); k <= 400; k++ {
		if v, ok := s2.Get(k); !ok || v != k {
			t.Fatalf("key %d: got (%d,%v)", k, v, ok)
		}
	}
}

// TestStoreManifestMismatch pins the layout guard: reopening a directory
// with different layout-determining parameters must fail loudly, not
// corrupt the replay.
func TestStoreManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Kind: core.KindHash, Shards: 2, SizeHint: 512, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st.NewSession().Put(1, 1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []store.Config{
		{Kind: core.KindSkiplist, Shards: 2, SizeHint: 512, Dir: dir},
		{Kind: core.KindHash, Shards: 4, SizeHint: 512, Dir: dir},
		{Kind: core.KindHash, Shards: 2, SizeHint: 1024, Dir: dir},
		{Kind: core.KindHash, Shards: 2, SizeHint: 512, Dir: dir, Policy: persist.Izraelevitz{}},
	} {
		if _, err := store.Open(bad); err == nil || !strings.Contains(err.Error(), "refusing to open") {
			t.Fatalf("config %+v: want manifest mismatch, got %v", bad, err)
		}
	}
	// The matching config still opens.
	st2, err := store.Open(store.Config{Kind: core.KindHash, Shards: 2, SizeHint: 512, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := st2.NewSession().Get(1); !ok || v != 1 {
		t.Fatalf("key 1 lost: (%d,%v)", v, ok)
	}
	st2.Close()
}

// TestStoreManifestRecordsShardsUsed pins the normalisation of Shards ≤ 0:
// the manifest records the one shard actually opened, so the directory
// reopens with Shards: 1, while a directory whose manifest says "shards": 0
// (the layout of the removed bare-structure backend, journalled in the
// top-level directory) is refused rather than misread.
func TestStoreManifestRecordsShardsUsed(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Config{Kind: core.KindSkiplist, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", st.Shards())
	}
	st.NewSession().Put(7, 70)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(store.Config{Kind: core.KindSkiplist, Shards: 1, Dir: dir})
	if err != nil {
		t.Fatalf("reopen with Shards: 1: %v", err)
	}
	if v, ok := st2.NewSession().Get(7); !ok || v != 70 {
		t.Fatalf("key 7: got (%d,%v)", v, ok)
	}
	st2.Close()

	bare := t.TempDir()
	manifest := fmt.Sprintf(`{"version": 1, "kind": "skiplist", "policy": %q, "shards": 0, "size_hint": 0, "buckets": 0}`,
		persist.NVTraverse{}.Name())
	if err := os.WriteFile(filepath.Join(bare, "MANIFEST.json"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(store.Config{Kind: core.KindSkiplist, Dir: bare}); err == nil || !strings.Contains(err.Error(), "refusing to open") {
		t.Fatalf("bare-structure directory: want manifest mismatch, got %v", err)
	}
}
