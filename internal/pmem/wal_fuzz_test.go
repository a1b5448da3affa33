package pmem

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

const fuzzLines = 4

// walSeed builds a real log with the clean-line rule in force: four
// single-line commits, one three-line commit, and — between them — reads
// (flush + commit fence of unchanged lines) that must leave no record.
func walSeed(f *testing.F) []byte {
	dir := f.TempDir()
	m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir})
	lines := m.NewSpace().Lines(0, fuzzLines)
	if _, err := m.RecoverFiles(); err != nil {
		f.Fatal(err)
	}
	th := m.NewThread()
	read := func() {
		for i := range lines {
			th.Load(&lines[i][0])
			th.Flush(&lines[i][0])
			th.CommitFence()
		}
	}
	for i := range lines {
		commitCell(th, &lines[i][i], uint64(10+i))
		read()
	}
	for i := 0; i < 3; i++ {
		th.Store(&lines[i][7], uint64(20+i))
		th.Flush(&lines[i][7])
	}
	th.CommitFence()
	read()
	if st := m.WALStats(); st.Records != fuzzLines+1 || st.Lines != fuzzLines+3 {
		f.Fatalf("seed log has %d records / %d lines, want %d / %d: reads must log nothing", st.Records, st.Lines, fuzzLines+1, fuzzLines+3)
	}
	if err := m.Close(); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		f.Fatal(err)
	}
	return b
}

// frameOK reports whether a well-formed frame (sane length fields, matching
// checksum) starts at b[off:], and where it ends.
func frameOK(b []byte, off int) (end int, ok bool) {
	if off+walFrameHeader > len(b) {
		return 0, false
	}
	plen := binary.LittleEndian.Uint32(b[off:])
	if plen < 12 || plen > maxFrameLen || (plen-12)%walEntryBytes != 0 {
		return 0, false
	}
	end = off + walFrameHeader + int(plen)
	if end > len(b) {
		return 0, false
	}
	return end, crc32.ChecksumIEEE(b[off+walFrameHeader:end]) == binary.LittleEndian.Uint32(b[off+4:])
}

// walOracle is the reference reading of a log, written from replayWAL's
// documentation rather than its code: apply intact frames in order under
// the (boot, version) guard until the first bad one; a bad frame with an
// intact frame anywhere after it is corruption, otherwise a torn tail.
type walOracle struct {
	image    [fuzzLines][CellsPerLine]uint64
	records  uint64
	lastGood int64
	torn     bool
	corrupt  bool
}

func readWALOracle(b []byte) walOracle {
	var o walOracle
	bad := func(off int) walOracle {
		o.lastGood = int64(off)
		o.torn = true
		for s := off + 1; s < len(b); s++ {
			if _, ok := frameOK(b, s); ok {
				o.torn, o.corrupt = false, true
				break
			}
		}
		return o
	}
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
		return bad(0)
	}
	type verKey struct{ boot, ver uint64 }
	guard := map[uint32]verKey{}
	off := len(walMagic)
	for off < len(b) {
		end, ok := frameOK(b, off)
		if !ok {
			return bad(off)
		}
		payload := b[off+walFrameHeader : end]
		boot := binary.LittleEndian.Uint64(payload)
		n := binary.LittleEndian.Uint32(payload[8:])
		if uint64(len(payload)) != 12+uint64(n)*walEntryBytes {
			return bad(off)
		}
		for i := 0; i < int(n); i++ {
			e := payload[12+i*walEntryBytes:]
			tag, idx := binary.LittleEndian.Uint64(e), binary.LittleEndian.Uint32(e[8:])
			mask, ver := uint8(binary.LittleEndian.Uint32(e[12:])), binary.LittleEndian.Uint64(e[16:])
			if tag != 0 || idx >= fuzzLines {
				continue
			}
			if g, seen := guard[idx]; seen && (g.boot > boot || (g.boot == boot && g.ver >= ver)) {
				continue
			}
			guard[idx] = verKey{boot, ver}
			for s := 0; s < CellsPerLine; s++ {
				if mask&(1<<s) != 0 {
					o.image[idx][s] = binary.LittleEndian.Uint64(e[24+8*s:])
				}
			}
		}
		o.records++
		off = end
	}
	o.lastGood = int64(off)
	return o
}

// FuzzReplayWAL feeds replayWAL arbitrary bytes as the live log. It must
// never panic, never apply a frame whose checksum fails (the region ends up
// exactly as the oracle's, which applies intact frames only), and classify
// the first bad frame as replayWAL documents: torn tail (stop, report
// Truncated, offer the offset to cut at) or mid-log corruption (refuse with
// ErrWALCorrupt).
func FuzzReplayWAL(f *testing.F) {
	seed := walSeed(f)
	const frame = walFrameHeader + 12 + walEntryBytes // a single-line record
	flip := func(at int) []byte {
		b := append([]byte(nil), seed...)
		b[at] ^= 0x40
		return b
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-frame/2])      // torn tail
	f.Add(flip(len(seed) - 5))           // bad checksum in the last frame
	f.Add(flip(len(walMagic) + frame/2)) // corruption in the first frame, intact frames after
	f.Add(flip(3))                       // damaged magic, intact frames after
	f.Add(seed[:len(walMagic)])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir, 1), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir, LineTableBits: 8})
		lines := m.NewSpace().Lines(0, fuzzLines)
		var st ReplayStats
		lastGood, err := m.durable.replayWAL(1, map[lineGuard][2]uint64{}, map[uint64]bool{}, &st)

		want := readWALOracle(wal)
		if want.corrupt {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("bad frame at %d with an intact frame after it: err = %v, want ErrWALCorrupt", want.lastGood, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("replay refused a log with nothing intact after offset %d: %v", want.lastGood, err)
		}
		if lastGood != want.lastGood || st.Truncated != want.torn || st.Records != want.records {
			t.Fatalf("replay: lastGood %d truncated %v records %d; want %d %v %d",
				lastGood, st.Truncated, st.Records, want.lastGood, want.torn, want.records)
		}
		for i := range lines {
			for s := range lines[i] {
				if got := lines[i][s].raw(); got != want.image[i][s] {
					t.Fatalf("line %d slot %d = %#x, intact frames give %#x", i, s, got, want.image[i][s])
				}
			}
		}
	})
}
