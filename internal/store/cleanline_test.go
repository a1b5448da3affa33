package store_test

// Store-level tests of the file backend's clean-line rule (internal/pmem):
// through a real structure, reads of data the log already holds cost no
// I/O — live, and after a kill and recovery — and the tracked and the fast
// write path log the same lines.

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kv"
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
	// Every line's version is its own, so the store is quiescent as soon as
	// the last Put returns: the very first read pass appends nothing.
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
	// Everything else is as clean as before: the Put dirtied only the lines
	// it wrote, and its own commit logged them.
	readPass(t, s, 2*cleanKeys, want)
	if b, _ := fs.snapshot(); b != b1 {
		t.Fatalf("one Put made %d bytes' worth of other lines dirty", b-b1)
	}
}

// TestReadsAppendNoWAL: on every kind, a 4-shard SyncFence store that has
// just taken a write phase — every key put, every 7th put again — appends
// nothing to its WAL for a Get of every key, nor for a whole-range Scan. A
// read flushes the lines it traversed, and each of those lines is clean
// unless it changed since its last capture; no write to any other line
// makes it look changed. -short (the race pass) keeps the two quick kinds.
func TestReadsAppendNoWAL(t *testing.T) {
	const keys = 8192
	kinds := core.Kinds()
	if testing.Short() {
		kinds = []core.Kind{core.KindHash, core.KindSkiplist}
	}
	for _, kind := range kinds {
		t.Run(string(kind), func(t *testing.T) {
			st, err := store.Open(store.Config{Kind: kind, Shards: 4, Dir: t.TempDir(), SyncFence: true})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			s := st.NewSession()
			for k := uint64(1); k <= keys; k++ {
				s.Put(k, k)
			}
			for k := uint64(7); k <= keys; k += 7 {
				s.Put(k, k+1)
			}
			want := func(k uint64) uint64 {
				if k%7 == 0 {
					return k + 1
				}
				return k
			}
			b0 := st.Stats().WALBytes
			for k := uint64(1); k <= keys; k++ {
				if v, ok := s.Get(k); !ok || v != want(k) {
					t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", k, v, ok, want(k))
				}
			}
			if b := st.Stats().WALBytes - b0; b != 0 {
				t.Fatalf("a Get of each of %d keys appended %d WAL bytes, want 0", keys, b)
			}
			n := 0
			if err := s.Scan(kv.MinKey, kv.MaxKey, func(k, v uint64) bool {
				if v != want(k) {
					t.Fatalf("Scan: key %d = %d, want %d", k, v, want(k))
				}
				n++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if n != keys {
				t.Fatalf("Scan saw %d keys, want %d", n, keys)
			}
			if b := st.Stats().WALBytes - b0; b != 0 {
				t.Fatalf("a whole-range Scan appended %d WAL bytes, want 0", b)
			}
		})
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
// line index) coordinates that appear in an intact record, and the number
// of line entries, repeats included.
func loggedLines(t *testing.T, dir string) (set map[[2]uint64]bool, entries int) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL in %s (%v)", dir, err)
	}
	// The record layout of pmem/wal.go: magic, then frames of u32 len |
	// u32 crc32 | payload; the payload is uvarint boot | uvarint count, and
	// each entry uvarint space | sub | idx | ver, u8 mask, u8 nz, then one
	// u64 per bit of nz.
	const magicLen, frameHeader = 8, 8
	set = map[[2]uint64]bool{}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for pos := magicLen; pos+frameHeader <= len(b); {
			plen := int(binary.LittleEndian.Uint32(b[pos:]))
			end := pos + frameHeader + plen
			if end > len(b) || crc32.ChecksumIEEE(b[pos+frameHeader:end]) != binary.LittleEndian.Uint32(b[pos+4:]) {
				t.Fatalf("%s: bad frame at offset %d", name, pos)
			}
			p := b[pos+frameHeader : end]
			uvarint := func() uint64 {
				v, n := binary.Uvarint(p)
				if n <= 0 {
					t.Fatalf("%s: bad uvarint in the frame at offset %d", name, pos)
				}
				p = p[n:]
				return v
			}
			uvarint() // boot
			for n := uvarint(); n > 0; n-- {
				space, sub, idx := uvarint(), uvarint(), uvarint()
				uvarint() // ver
				if len(p) < 2 {
					t.Fatalf("%s: short entry in the frame at offset %d", name, pos)
				}
				p = p[2+8*bits.OnesCount8(p[1]):]
				set[[2]uint64{space<<32 | sub, idx}] = true
				entries++
			}
			pos = end
		}
	}
	return set, entries
}

// TestTrackedAndFastLogSameLines runs one seeded single-threaded op
// sequence against a tracked and a fast file-backed store and requires the
// same set of logged lines, each logged as often: both modes version every
// registered line exactly, so a line is re-logged exactly when it changed.
func TestTrackedAndFastLogSameLines(t *testing.T) {
	type logged struct {
		set     map[[2]uint64]bool
		entries int
	}
	run := func(tracked bool) logged {
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
		set, entries := loggedLines(t, filepath.Join(cfg.Dir, "shard-0"))
		return logged{set, entries}
	}
	fast, tracked := run(false), run(true)
	for l := range fast.set {
		if !tracked.set[l] {
			t.Errorf("line (tag %#x, idx %d) logged in fast mode only", l[0], l[1])
		}
	}
	for l := range tracked.set {
		if !fast.set[l] {
			t.Errorf("line (tag %#x, idx %d) logged in tracked mode only", l[0], l[1])
		}
	}
	if len(fast.set) == 0 {
		t.Fatal("nothing was logged")
	}
	if fast.entries != tracked.entries {
		t.Errorf("fast mode logged %d line entries, tracked mode %d", fast.entries, tracked.entries)
	}
}

// TestApplyUpdatesShareOneWALRecord: on a file-backed 1-shard store, one
// Apply of 8 puts to distinct present keys appends exactly 1 WAL record. A
// put to a present key is an in-place value CAS, and no fence precedes a
// value CAS, so nothing closes a record between the updates: the batch's
// one commit fence logs every updated line in one record.
func TestApplyUpdatesShareOneWALRecord(t *testing.T) {
	for _, kind := range []core.Kind{core.KindList, core.KindHash, core.KindSkiplist, core.KindNMBST} {
		t.Run(string(kind), func(t *testing.T) {
			st, err := store.Open(store.Config{Kind: kind, Shards: 1, SizeHint: 256, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			s := st.NewSession()
			for k := uint64(1); k <= 64; k++ {
				s.Put(k, k)
			}
			ops := make([]store.Op, 8)
			for i := range ops {
				k := uint64(i*8 + 1)
				ops[i] = store.Op{Kind: store.OpPut, Key: k, Value: k + 1000}
			}
			r0 := st.Stats().WALRecords
			for i, r := range s.Apply(ops, nil) {
				if !r.OK {
					t.Fatalf("put %d of the batch failed", i)
				}
			}
			if n := st.Stats().WALRecords - r0; n != 1 {
				t.Fatalf("an Apply of 8 puts to present keys appended %d WAL records, want 1", n)
			}
			for _, op := range ops {
				if v, ok := s.Get(op.Key); !ok || v != op.Value {
					t.Fatalf("Get(%d) = (%d, %v), want (%d, true)", op.Key, v, ok, op.Value)
				}
			}
		})
	}
}
