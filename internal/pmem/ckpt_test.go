package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"repro/internal/pmem/vfs"
)

// ckptFile assembles a checkpoint from records of the given lines: the
// magic, one frame per record, then the seal.
func ckptFile(boot uint64, records ...[]WALLine) []byte {
	b := []byte(ckptMagic)
	for _, rec := range records {
		b = append(b, EncodeWALRecord(boot, rec)...)
	}
	return append(b, EncodeWALRecord(boot, nil)...)
}

// wholeLines returns whole-line entries of region (space, sub), one per
// index, each line holding its index + 1 in cell 0.
func wholeLines(space, sub uint32, idx ...uint32) []WALLine {
	ls := make([]WALLine, len(idx))
	for i, x := range idx {
		ls[i] = WALLine{Space: space, Sub: sub, Idx: x, Ver: 1, Mask: 0xff, Vals: [CellsPerLine]uint64{uint64(x) + 1}}
	}
	return ls
}

// v2Checkpoint renders the previous format of one region of n lines:
// magic | u32 regionCount | u64 boot | (u64 tag | u64 size | n × (u64 ver |
// 64 content bytes)) | u32 crc32(everything after the magic).
func v2Checkpoint(n int) []byte {
	body := binary.LittleEndian.AppendUint32(nil, 1)
	body = binary.LittleEndian.AppendUint64(body, 1)
	body = binary.LittleEndian.AppendUint64(body, spaceTag(0, 0))
	body = binary.LittleEndian.AppendUint64(body, uint64(n)*LineSize)
	for i := 0; i < n; i++ {
		body = binary.LittleEndian.AppendUint64(body, 1)
		body = binary.LittleEndian.AppendUint64(body, uint64(i+1))
		body = append(body, make([]byte, LineSize-8)...)
	}
	b := append([]byte("NVTCKP2\n"), body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
}

// openTwoRegions opens a fast-mode memory on dir with two registered
// regions, (0, 0) of 4 lines and (0, 1) of 2, and returns their six lines
// in that order.
func openTwoRegions(dir string) (*Memory, [][]Cell, error) {
	m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir})
	sp := m.NewSpace()
	lines := append(sp.Lines(0, 4), sp.Lines(1, 2)...)
	_, err := m.RecoverFiles()
	return m, lines, err
}

// TestCheckpointDamageRefused: a damaged checkpoint or CURRENT makes
// RecoverFiles return an error, never panic, never load it and leave both
// files as they were. The damage covers another format's magic (the
// previous checkpoint format whole, with ErrWALVersion), a flipped frame
// byte, truncation mid-frame and at a frame boundary (the seal missing),
// records that break line coverage under good checksums, and CURRENT
// contents that only a lenient parse would accept.
func TestCheckpointDamageRefused(t *testing.T) {
	base := t.TempDir()
	m, lines, err := openTwoRegions(base)
	if err != nil {
		t.Fatal(err)
	}
	th := m.NewThread()
	for i := range lines {
		commitCell(th, &lines[i][0], uint64(i%4+1))
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	gen, _, ok, err := readCurrent(vfs.OS, base)
	if err != nil || !ok {
		t.Fatalf("readCurrent: gen=%d ok=%v err=%v", gen, ok, err)
	}
	good, err := os.ReadFile(ckptPath(base, gen))
	if err != nil {
		t.Fatal(err)
	}
	goodCurrent, err := os.ReadFile(currentPath(base))
	if err != nil {
		t.Fatal(err)
	}
	seal := EncodeWALRecord(1, nil)
	sub1 := wholeLines(0, 1, 0, 1)          // all of region (0, 1)
	body := len(ckptMagic) + walFrameHeader // first frame's payload
	for _, tc := range []struct {
		name    string
		ckpt    func(b []byte) []byte // nil keeps the good checkpoint
		current string                // "" keeps the good CURRENT
		version bool                  // refused as another format's
		ok      bool                  // a well-formed hand-built file
	}{
		{name: "magic-v2", ckpt: func([]byte) []byte { return v2Checkpoint(4) }, version: true},
		{name: "magic-v1", ckpt: func(b []byte) []byte { copy(b, "NVTCKP1\n"); return b }, version: true},
		{name: "magic-wal", ckpt: func(b []byte) []byte { copy(b, walMagic); return b }, version: true},
		{name: "flipped-body-byte", ckpt: func(b []byte) []byte { b[body+20] ^= 0x10; return b }},
		{name: "flipped-checksum-byte", ckpt: func(b []byte) []byte { b[len(ckptMagic)+5] ^= 0x01; return b }},
		{name: "truncated-tail", ckpt: func(b []byte) []byte { return b[:len(b)-len(seal)-3] }},
		{name: "truncated-before-seal", ckpt: func(b []byte) []byte { return b[:len(b)-len(seal)] }},
		{name: "truncated-to-magic", ckpt: func(b []byte) []byte { return b[:len(ckptMagic)] }},
		{name: "empty", ckpt: func(b []byte) []byte { return b[:0] }},
		{name: "bytes-after-seal", ckpt: func(b []byte) []byte { return append(b, 0) }},
		{name: "record-after-seal", ckpt: func(b []byte) []byte { return append(b, seal...) }},

		{name: "hand-built", ckpt: func([]byte) []byte { return ckptFile(1, sub1, wholeLines(0, 0, 0, 1, 2, 3)) }, ok: true},
		{name: "unregistered-space", ckpt: func([]byte) []byte {
			return ckptFile(1, wholeLines(0, 0, 0, 1, 2, 3), sub1, wholeLines(1, 0, 0))
		}},
		{name: "line-past-region-end", ckpt: func([]byte) []byte {
			return ckptFile(1, wholeLines(0, 0, 0, 1, 2, 3, 4), sub1)
		}},
		{name: "skipped-line", ckpt: func([]byte) []byte { return ckptFile(1, wholeLines(0, 0, 0, 1, 3), sub1) }},
		{name: "duplicated-line", ckpt: func([]byte) []byte { return ckptFile(1, wholeLines(0, 0, 0, 1, 1, 2, 3), sub1) }},
		{name: "lines-out-of-order", ckpt: func([]byte) []byte { return ckptFile(1, wholeLines(0, 0, 0, 2, 1, 3), sub1) }},
		// Six lines, as many as are registered, but region (0, 0) is read
		// in two runs (the second at newer versions, which the replay guard
		// alone would apply) and its lines 2 and 3 never.
		{name: "region-reentered", ckpt: func([]byte) []byte {
			again := wholeLines(0, 0, 0, 1)
			for i := range again {
				again[i].Ver = 2
			}
			return ckptFile(1, wholeLines(0, 0, 0, 1), sub1, again)
		}},
		{name: "region-missing", ckpt: func([]byte) []byte { return ckptFile(1, wholeLines(0, 0, 0, 1, 2, 3)) }},
		{name: "partial-line", ckpt: func([]byte) []byte {
			ls := wholeLines(0, 0, 0, 1, 2, 3)
			ls[2].Mask = 0x7f
			return ckptFile(1, ls, sub1)
		}},

		{name: "current-trailing-junk", current: "v1 5 7junk"},
		{name: "current-extra-fields", current: "v1 5 7 8 9"},
		{name: "current-leading-zero", current: "v01 5 7"},
		{name: "current-no-newline", current: strings.TrimSuffix(string(goodCurrent), "\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDurableDir(t, base, dir)
			if tc.ckpt != nil {
				if err := os.WriteFile(ckptPath(dir, gen), tc.ckpt(append([]byte(nil), good...)), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.current != "" {
				if err := os.WriteFile(currentPath(dir), []byte(tc.current), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			snap, _ := os.ReadFile(ckptPath(dir, gen))
			current, _ := os.ReadFile(currentPath(dir))
			m, lines, err := openTwoRegions(dir)
			if tc.ok {
				if err != nil {
					t.Fatalf("RecoverFiles refused a well-formed checkpoint: %v", err)
				}
				defer m.Close()
				for i := range lines {
					if got := lines[i][0].raw(); got != uint64(i%4+1) {
						t.Fatalf("line %d = %d, want %d", i, got, i%4+1)
					}
				}
				return
			}
			switch {
			case err == nil:
				t.Fatal("RecoverFiles accepted a damaged checkpoint")
			case tc.version && (!errors.Is(err, ErrWALVersion) || !strings.Contains(err.Error(), ckptPath(dir, gen))):
				t.Fatalf("RecoverFiles = %v, want ErrWALVersion naming %s", err, ckptPath(dir, gen))
			case tc.current != "" && !strings.Contains(err.Error(), "malformed CURRENT"):
				t.Fatalf("RecoverFiles = %v, want a malformed CURRENT", err)
			}
			if b, _ := os.ReadFile(ckptPath(dir, gen)); !bytes.Equal(b, snap) {
				t.Fatal("checkpoint changed by the refused recovery")
			}
			if b, _ := os.ReadFile(currentPath(dir)); !bytes.Equal(b, current) {
				t.Fatalf("CURRENT changed by the refused recovery: %q -> %q", current, b)
			}
		})
	}
	// Control: the untouched copy loads.
	dir := t.TempDir()
	copyDurableDir(t, base, dir)
	m2, lines2, err := openTwoRegions(dir)
	if err != nil {
		t.Fatalf("control: %v", err)
	}
	defer m2.Close()
	if m2.ReplayStats().CheckpointBytes != uint64(len(good)) {
		t.Fatalf("control: loaded %d checkpoint bytes, want %d", m2.ReplayStats().CheckpointBytes, len(good))
	}
	for i := range lines2 {
		if got := lines2[i][0].raw(); got != uint64(i%4+1) {
			t.Fatalf("control: line %d = %d, want %d", i, got, i%4+1)
		}
	}
}
