package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/pmem/vfs"
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

// TestFailedOpenLeavesNoManifest: a configuration Open refuses must not
// leave a manifest naming it, or the directory refuses every valid open
// after it.
func TestFailedOpenLeavesNoManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := store.Open(store.Config{Kind: core.Kind("bogus"), Dir: dir}); err == nil {
		t.Fatal("bogus kind accepted")
	}
	st, err := store.Open(store.Config{Dir: dir})
	if err != nil {
		t.Fatalf("valid open after a refused one: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// openCounter is a vfs.FS that counts the files it has open.
type openCounter struct {
	vfs.FS
	open atomic.Int64
}

func (c *openCounter) track(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedFile{File: f, c: c}, nil
}

func (c *openCounter) Create(name string) (vfs.File, error) { return c.track(c.FS.Create(name)) }
func (c *openCounter) Open(name string) (vfs.File, error)   { return c.track(c.FS.Open(name)) }
func (c *openCounter) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return c.track(c.FS.OpenFile(name, flag, perm))
}

type countedFile struct {
	vfs.File
	c      *openCounter
	closed bool
}

func (f *countedFile) Close() error {
	if !f.closed {
		f.closed = true
		f.c.open.Add(-1)
	}
	return f.File.Close()
}

// TestFailedOpenClosesFiles: shards replay in parallel, so when one shard's
// log is refused the others are already live with their logs open. Open
// must close them before it returns the error.
func TestFailedOpenClosesFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := store.Config{Kind: core.KindHash, Shards: 2, SizeHint: 256, Dir: dir}
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	for k := uint64(1); k <= 64; k++ {
		s.Put(k, k)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	logs, _ := filepath.Glob(filepath.Join(dir, "shard-1", "wal-*.log"))
	if len(logs) != 1 {
		t.Fatalf("shard-1 logs: %v", logs)
	}
	f, err := os.OpenFile(logs[0], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte("NVTWAL1\n"), 0) // the previous log format's magic
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	fs := &openCounter{FS: vfs.OS}
	cfg.FS = fs
	if _, err := store.Open(cfg); !errors.Is(err, pmem.ErrWALVersion) {
		t.Fatalf("Open = %v, want ErrWALVersion", err)
	}
	if n := fs.open.Load(); n != 0 {
		t.Fatalf("a failed Open left %d files open", n)
	}
}

// TestRecoveryDeterminacy: recovery is a function of the files. A 4-shard
// store of every kind takes concurrent churn and is abandoned without
// Close; three copies of its directory are each reopened and checkpointed,
// and all three must then hold byte-identical files. The copies reopen at
// the same boot, so even the boot counter in each record agrees.
func TestRecoveryDeterminacy(t *testing.T) {
	const writers, keys = 4, 4096
	ops := 10000 // each writer's; fewer leave the Ellen BST one chunk per arena, in an order a boot rarely changes
	if testing.Short() {
		ops = 2000
	}
	for _, kind := range core.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := store.Config{Kind: kind, Shards: 4, SizeHint: keys, Dir: t.TempDir()}
			st, err := store.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(s store.Session) {
					defer wg.Done()
					for i := 0; i < ops; i++ {
						r := s.Rand()
						if k := r%keys + 1; r>>32%4 == 0 {
							s.Delete(k)
						} else {
							s.Put(k, r>>8)
						}
					}
				}(st.NewSession())
			}
			wg.Wait()
			// The kill: st is abandoned without Close.
			var files [3]map[string][]byte
			for i := range files {
				c := cfg
				c.Dir = t.TempDir()
				copyTree(t, cfg.Dir, c.Dir)
				st2, err := store.Open(c)
				if err != nil {
					t.Fatalf("reopen copy %d: %v", i, err)
				}
				if err := st2.Checkpoint(); err != nil {
					t.Fatalf("checkpoint copy %d: %v", i, err)
				}
				if err := st2.Close(); err != nil {
					t.Fatalf("close copy %d: %v", i, err)
				}
				files[i] = readTree(t, c.Dir)
			}
			ckpts := 0
			for name := range files[0] {
				if strings.HasPrefix(filepath.Base(name), "ckpt-") {
					ckpts++
				}
			}
			for i := 1; i < len(files); i++ {
				for name, b := range files[0] {
					if o, ok := files[i][name]; !ok || !bytes.Equal(b, o) {
						t.Errorf("%s differs between recoveries 0 and %d of the same files (%d and %d bytes)", name, i, len(b), len(o))
					}
				}
				if len(files[0]) != len(files[i]) {
					t.Errorf("recoveries 0 and %d left %d and %d files", i, len(files[0]), len(files[i]))
				}
			}
			if ckpts != cfg.Shards {
				t.Errorf("%d checkpoint files compared, want one per shard (%d)", ckpts, cfg.Shards)
			}
		})
	}
}

// copyTree copies the regular files under directory src into dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	for name, b := range readTree(t, src) {
		p := filepath.Join(dst, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readTree returns the contents of every regular file under dir, by path
// relative to dir.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || !de.Type().IsRegular() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		files[rel] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
