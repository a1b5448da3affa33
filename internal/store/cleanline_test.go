package store_test

// Store-level tests of the file backend's clean-line rule (internal/pmem):
// through a real structure, reads of data the log already holds cost no
// I/O — live, and after a kill and recovery — and the tracked and the fast
// write path log the same lines.

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem/vfs"
	"repro/internal/store"
)

// walCounter counts what reaches the WAL files under it.
type walCounter struct {
	vfs.FS
	bytes, syncs atomic.Int64
}

func (c *walCounter) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	return c.wrap(name, f), err
}

func (c *walCounter) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(name, f), err
}

func (c *walCounter) wrap(name string, f vfs.File) vfs.File {
	if f == nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f
	}
	return &walFile{File: f, c: c}
}

func (c *walCounter) snapshot() (bytes, syncs int64) { return c.bytes.Load(), c.syncs.Load() }

type walFile struct {
	vfs.File
	c *walCounter
}

func (f *walFile) Write(p []byte) (int, error) {
	f.c.bytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *walFile) Sync() error {
	f.c.syncs.Add(1)
	return f.File.Sync()
}

const cleanKeys = 1024

// readPass issues gets Gets over [1, cleanKeys] (present keys) and just
// above it (absent ones), then one 256-key MultiGet.
func readPass(t *testing.T, s store.Session, gets int, want func(k uint64) uint64) {
	t.Helper()
	for i := 0; i < gets; i++ {
		k := uint64(i%(cleanKeys+cleanKeys/4)) + 1
		v, ok := s.Get(k)
		if present := k <= cleanKeys; ok != present || (ok && v != want(k)) {
			t.Fatalf("Get(%d) = (%d, %v), want (%d, %v)", k, v, ok, want(k), present)
		}
	}
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i*4 + 1)
	}
	for i, r := range s.MultiGet(keys, nil) {
		if !r.OK || r.Value != want(keys[i]) {
			t.Fatalf("MultiGet key %d = (%d, %v), want (%d, true)", keys[i], r.Value, r.OK, want(keys[i]))
		}
	}
}

// TestZeroIOReads: on a quiescent SyncFence store, reads append nothing to
// the WAL and never call Sync; a Put dirties its own lines and no more.
func TestZeroIOReads(t *testing.T) {
	fs := &walCounter{FS: vfs.OS}
	st, err := store.Open(store.Config{
		Kind: core.KindHash, Shards: 4, SizeHint: 1 << 12,
		Dir: t.TempDir(), SyncFence: true, FS: fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := st.NewSession()
	vals := map[uint64]uint64{}
	want := func(k uint64) uint64 { return vals[k] }
	for k := uint64(1); k <= cleanKeys; k++ {
		vals[k] = k * 7
		s.Put(k, k*7)
	}
	// One pass first: a line that shares a hashed version slot with a line
	// the Puts wrote looks dirty once, is logged again unchanged, and is
	// clean from then on. Quiescent means after that.
	readPass(t, s, 2*cleanKeys, want)

	b0, s0 := fs.snapshot()
	readPass(t, s, 10000, want)
	if b, sy := fs.snapshot(); b != b0 || sy != s0 {
		t.Fatalf("10,000 Gets and a 256-key MultiGet cost %d WAL bytes and %d syncs, want 0 and 0", b-b0, sy-s0)
	}

	const k = 5
	vals[k] = 99
	s.Put(k, 99)
	b1, s1 := fs.snapshot()
	if b1 == b0 || s1 == s0 {
		t.Fatalf("Put cost %d WAL bytes and %d syncs, want some of each", b1-b0, s1-s0)
	}
	if v, ok := s.Get(k); !ok || v != 99 {
		t.Fatalf("Get(%d) = (%d, %v) after Put", k, v, ok)
	}
	if b, sy := fs.snapshot(); b != b1 || sy != s1 {
		t.Fatalf("reading the key just put cost %d WAL bytes and %d syncs, want 0 and 0", b-b1, sy-s1)
	}
	// Everything else is as clean as before, give or take the slot-mates of
	// the two or three lines the Put wrote (each 96 bytes framed alone).
	readPass(t, s, 2*cleanKeys, want)
	if b, _ := fs.snapshot(); b-b1 > 16*96 {
		t.Fatalf("one Put made %d bytes' worth of other lines dirty", b-b1)
	}
}

// TestRestartReadsAppendNothing: after a kill and recovery the store is
// clean as a whole — the first reads re-log nothing — and every
// acknowledged key is there, including across a live checkpoint.
func TestRestartReadsAppendNothing(t *testing.T) {
	cfg := store.Config{Kind: core.KindHash, Shards: 2, SizeHint: 1 << 12, Dir: t.TempDir()}
	st, err := store.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	for k := uint64(1); k <= cleanKeys; k++ {
		s.Put(k, k)
		if k == cleanKeys/2 {
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The kill: st is abandoned without Close; the files hold what the
	// commit points put there.
	fs := &walCounter{FS: vfs.OS}
	cfg.FS = fs
	cfg.SyncFence = true
	st2, err := store.Open(cfg)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	b0, s0 := fs.snapshot()
	readPass(t, st2.NewSession(), 10000, func(k uint64) uint64 { return k })
	if b, sy := fs.snapshot(); b != b0 || sy != s0 {
		t.Fatalf("first reads after recovery cost %d WAL bytes and %d syncs, want 0 and 0", b-b0, sy-s0)
	}
}

// loggedLines parses every WAL file in dir and returns the set of (tag,
// line index) coordinates that appear in an intact record.
func loggedLines(t *testing.T, dir string) map[[2]uint64]bool {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL in %s (%v)", dir, err)
	}
	const magicLen, frameHeader, entryBytes = 8, 8, 88 // see pmem/wal.go
	set := map[[2]uint64]bool{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for pos := magicLen; pos+frameHeader <= len(b); {
			plen := int(binary.LittleEndian.Uint32(b[pos:]))
			end := pos + frameHeader + plen
			if plen < 12 || end > len(b) || crc32.ChecksumIEEE(b[pos+frameHeader:end]) != binary.LittleEndian.Uint32(b[pos+4:]) {
				t.Fatalf("%s: bad frame at offset %d", name, pos)
			}
			payload := b[pos+frameHeader : end]
			for i := 0; i < int(binary.LittleEndian.Uint32(payload[8:])); i++ {
				e := payload[12+i*entryBytes:]
				set[[2]uint64{binary.LittleEndian.Uint64(e), uint64(binary.LittleEndian.Uint32(e[8:]))}] = true
			}
			pos = end
		}
	}
	return set
}

// TestTrackedAndFastLogSameLines runs one seeded single-threaded op
// sequence against a tracked and a fast file-backed store and requires the
// same set of logged lines. Every key is written before it is read, so each
// line a read flushes has been logged in both modes whatever version-slot
// collisions the fast mode's allocator produced (they re-log a line, never
// add one).
func TestTrackedAndFastLogSameLines(t *testing.T) {
	run := func(tracked bool) map[[2]uint64]bool {
		cfg := store.Config{Kind: core.KindHash, Shards: 1, SizeHint: 1 << 10, Tracked: tracked, Dir: t.TempDir()}
		st, err := store.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s := st.NewSession()
		rng := uint64(42)
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 33
		}
		const keys = 300
		for k := uint64(1); k <= keys; k++ {
			s.Put(k, k)
		}
		for i := 0; i < 3000; i++ {
			k := next()%keys + 1
			switch next() % 4 {
			case 0:
				s.Put(k, next())
			case 1:
				s.Delete(k)
			default:
				s.Get(k)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return loggedLines(t, filepath.Join(cfg.Dir, "shard-0"))
	}
	fast, tracked := run(false), run(true)
	for l := range fast {
		if !tracked[l] {
			t.Errorf("line (tag %#x, idx %d) logged in fast mode only", l[0], l[1])
		}
	}
	for l := range tracked {
		if !fast[l] {
			t.Errorf("line (tag %#x, idx %d) logged in tracked mode only", l[0], l[1])
		}
	}
	if len(fast) == 0 {
		t.Fatal("nothing was logged")
	}
}
