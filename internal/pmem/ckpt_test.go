package pmem

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/pmem/vfs"
)

// TestCheckpointDamageRefused: a damaged checkpoint makes RecoverFiles
// return an error, never panic and never load it. The damage covers a
// wrong magic (the unshipped v1 one included), one flipped body byte, a
// truncated tail, and region tables that lie under a matching checksum.
func TestCheckpointDamageRefused(t *testing.T) {
	base := t.TempDir()
	m, th, lines := openDurable(t, base, ModeFast, 4)
	for i := range lines {
		commitCell(th, &lines[i][0], uint64(i+1))
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
	// resum recomputes the checksum, so only the structure is wrong.
	resum := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[len(ckptMagic):len(b)-4]))
		return b
	}
	regionHdr := len(ckptMagic) + 12 // magic | u32 regionCount | u64 boot
	for _, tc := range []struct {
		name   string
		damage func(b []byte) []byte
	}{
		{"magic-v1", func(b []byte) []byte { copy(b, "NVTCKP1\n"); return b }},
		{"magic-wal", func(b []byte) []byte { copy(b, walMagic); return b }},
		{"flipped-body-byte", func(b []byte) []byte { b[regionHdr+20] ^= 0x10; return b }},
		{"flipped-checksum-byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }},
		{"truncated-tail", func(b []byte) []byte { return b[:len(b)-10] }},
		{"truncated-to-magic", func(b []byte) []byte { return b[:len(ckptMagic)] }},
		{"empty", func(b []byte) []byte { return b[:0] }},
		{"region-count-past-end", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(ckptMagic):], 1<<20)
			return resum(b)
		}},
		{"region-size-past-end", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[regionHdr+8:], 1<<40)
			return resum(b)
		}},
		{"region-size-unaligned", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[regionHdr+8:], LineSize+1)
			return resum(b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDurableDir(t, base, dir)
			bad := tc.damage(append([]byte(nil), good...))
			if err := os.WriteFile(ckptPath(dir, gen), bad, 0o644); err != nil {
				t.Fatal(err)
			}
			m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir})
			m.NewSpace().Lines(0, 4)
			if _, err := m.RecoverFiles(); err == nil {
				t.Fatal("RecoverFiles accepted a damaged checkpoint")
			}
		})
	}
	// Control: the untouched copy loads.
	dir := t.TempDir()
	copyDurableDir(t, base, dir)
	m2, th2, lines2 := openDurable(t, dir, ModeFast, 4)
	defer m2.Close()
	if m2.ReplayStats().CheckpointBytes == 0 {
		t.Fatal("control: no checkpoint loaded")
	}
	for i := range lines2 {
		if got := th2.Load(&lines2[i][0]); got != uint64(i+1) {
			t.Fatalf("control: line %d = %d, want %d", i, got, i+1)
		}
	}
}
