package pmem_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hashtable"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// TestWALRecordBytes pins the size of the compact WAL encoding and its
// round trip, without the benchmark.
func TestWALRecordBytes(t *testing.T) {
	t.Run("hash upsert of an existing key", func(t *testing.T) {
		dir := t.TempDir()
		m := pmem.New(pmem.Config{Mode: pmem.ModeFast, Profile: pmem.ProfileZero, Dir: dir})
		tab := hashtable.New(m, persist.NVTraverse{}, 4)
		if _, err := m.RecoverFiles(); err != nil {
			t.Fatal(err)
		}
		th := m.NewThread()
		core.Upsert(tab, th, 5, 1)
		th.CommitFence()
		before := m.WALStats()
		core.Upsert(tab, th, 5, 2)
		th.CommitFence()
		d := m.WALStats()
		d.Records -= before.Records
		d.Lines -= before.Lines
		d.Bytes -= before.Bytes
		// One record of one line: the node's whole line (mask 0xff), of
		// which only Key and Value are nonzero. 8 frame header + 1 boot + 1
		// count + 1 space + 1 sub + 1 idx + 1 ver + 1 mask + 1 nz + 2×8
		// values = 32 bytes (the fixed 88-byte entry made it 108).
		if d.Records != 1 || d.Lines != 1 || d.Bytes != 32 {
			t.Fatalf("upsert appended %d records, %d lines, %d bytes; want 1, 1, 32", d.Records, d.Lines, d.Bytes)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "wal-1.log"))
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(b)) != 8+before.Bytes+d.Bytes {
			t.Fatalf("log is %d bytes, the counters say magic + %d", len(b), before.Bytes+d.Bytes)
		}
		_, lines, ok := pmem.DecodeWALRecord(b[len(b)-32:])
		if !ok || len(lines) != 1 {
			t.Fatalf("last frame does not decode to one line: ok=%v %+v", ok, lines)
		}
		if l := lines[0]; l.Mask != 0xff || l.Vals != [pmem.CellsPerLine]uint64{5, 2} {
			t.Fatalf("upsert logged mask %#x vals %v, want 0xff and {5, 2, 0...}", l.Mask, l.Vals)
		}
	})

	t.Run("all-zero line is header only", func(t *testing.T) {
		f := pmem.EncodeWALRecord(1, []pmem.WALLine{{Idx: 9, Ver: 3, Mask: 0xff}})
		// 8 frame + boot + count + space + sub + idx + ver + mask + nz.
		if len(f) != 16 {
			t.Fatalf("all-zero line encodes in %d bytes, want 16", len(f))
		}
		_, lines, ok := pmem.DecodeWALRecord(f)
		if !ok || len(lines) != 1 || lines[0].Mask != 0xff || lines[0].Vals != [pmem.CellsPerLine]uint64{} {
			t.Fatalf("decode: ok=%v %+v", ok, lines)
		}
	})

	t.Run("random round trip", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		u64 := func() uint64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return math.MaxUint64
			case 2:
				return uint64(rng.Intn(300))
			}
			return rng.Uint64() >> rng.Intn(64)
		}
		for iter := 0; iter < 2000; iter++ {
			boot := u64()
			want := make([]pmem.WALLine, rng.Intn(5))
			for i := range want {
				l := &want[i]
				l.Space, l.Sub, l.Idx = uint32(u64()), uint32(u64()), uint32(u64())
				l.Ver, l.Mask = u64(), uint8(rng.Intn(256))
				for s := range l.Vals {
					l.Vals[s] = u64()
				}
			}
			if iter == 0 {
				want = append(want, pmem.WALLine{Space: math.MaxUint32, Sub: math.MaxUint32, Idx: math.MaxUint32,
					Ver: math.MaxUint64, Mask: 0xff, Vals: [pmem.CellsPerLine]uint64{math.MaxUint64, 1}})
			}
			gotBoot, got, ok := pmem.DecodeWALRecord(pmem.EncodeWALRecord(boot, want))
			if !ok || gotBoot != boot || len(got) != len(want) {
				t.Fatalf("iter %d: ok=%v boot %d (want %d), %d lines (want %d)", iter, ok, gotBoot, boot, len(got), len(want))
			}
			for i, w := range want {
				g := got[i]
				if g.Space != w.Space || g.Sub != w.Sub || g.Idx != w.Idx || g.Ver != w.Ver || g.Mask != w.Mask {
					t.Fatalf("iter %d line %d: header %+v, want %+v", iter, i, g, w)
				}
				// The replayed image: the fixed-width entry stored every
				// covered cell's captured value and left the rest alone.
				prior := [pmem.CellsPerLine]uint64{11, 12, 13, 14, 15, 16, 17, 18}
				v1, v2 := prior, prior
				for s := 0; s < pmem.CellsPerLine; s++ {
					if w.Mask&(1<<s) != 0 {
						v1[s], v2[s] = w.Vals[s], g.Vals[s]
					}
				}
				if v1 != v2 {
					t.Fatalf("iter %d line %d: replay stores %v, the fixed-width entry stored %v", iter, i, v2, v1)
				}
			}
		}
	})
}
