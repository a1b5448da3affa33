package pmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/pmem/vfs"
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

// The oracle below is a second reading of the record layout documented in
// wal.go, written from that comment and not from decodeRecord or replayWAL:
// its own LEB128 reader, its own field checks, its own apply rule.

// oracleUvarint reads one uvarint: 7-bit groups, least significant first,
// the high bit of a byte set when another follows; at most 10 bytes, the
// last byte of a multi-byte encoding nonzero (minimal), and the value no
// wider than bits.
func oracleUvarint(b []byte, bits uint) (v uint64, rest []byte, ok bool) {
	for i := 0; i < len(b) && i < 10; i++ {
		if i == 9 && b[i] > 1 {
			return 0, nil, false // past bit 63
		}
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i]&0x80 == 0 {
			if i > 0 && b[i] == 0 {
				return 0, nil, false // zero high group: not minimal
			}
			if bits < 64 && v>>bits != 0 {
				return 0, nil, false
			}
			return v, b[i+1:], true
		}
	}
	return 0, nil, false
}

// oracleEntry is one entry as the layout comment describes it.
type oracleEntry struct {
	space, sub, idx uint32
	ver             uint64
	mask, nz        uint8
	vals            [CellsPerLine]uint64 // the listed values, by slot
}

// oracleRecord decodes a payload, ok only if it decodes exactly.
func oracleRecord(p []byte) (boot uint64, es []oracleEntry, ok bool) {
	var count, v uint64
	if boot, p, ok = oracleUvarint(p, 64); !ok {
		return 0, nil, false
	}
	if count, p, ok = oracleUvarint(p, 64); !ok {
		return 0, nil, false
	}
	for n := uint64(0); n < count; n++ {
		var e oracleEntry
		for _, field := range []*uint32{&e.space, &e.sub, &e.idx} {
			if v, p, ok = oracleUvarint(p, 32); !ok {
				return 0, nil, false
			}
			*field = uint32(v)
		}
		if e.ver, p, ok = oracleUvarint(p, 64); !ok || len(p) < 2 {
			return 0, nil, false
		}
		e.mask, e.nz, p = p[0], p[1], p[2:]
		if e.nz&e.mask != e.nz {
			return 0, nil, false
		}
		for s := 0; s < CellsPerLine; s++ {
			if e.nz>>s&1 == 0 {
				continue
			}
			if len(p) < 8 {
				return 0, nil, false
			}
			if e.vals[s], p = binary.LittleEndian.Uint64(p), p[8:]; e.vals[s] == 0 {
				return 0, nil, false // listed cells are the nonzero ones
			}
		}
		es = append(es, e)
	}
	return boot, es, len(p) == 0
}

// frameOK reports whether an intact frame (length within maxFrameLen,
// matching checksum, payload that decodes exactly) starts at b[off:], and
// where it ends.
func frameOK(b []byte, off int) (end int, ok bool) {
	if off+walFrameHeader > len(b) {
		return 0, false
	}
	plen := binary.LittleEndian.Uint32(b[off:])
	if plen > maxFrameLen || int64(plen) > int64(len(b)-off-walFrameHeader) {
		return 0, false
	}
	end = off + walFrameHeader + int(plen)
	if crc32.ChecksumIEEE(b[off+walFrameHeader:end]) != binary.LittleEndian.Uint32(b[off+4:]) {
		return 0, false
	}
	_, _, ok = oracleRecord(b[off+walFrameHeader : end])
	return end, ok
}

// walOracle is the reference reading of a log, written from replayWAL's
// documentation rather than its code: a log with bytes after a header that
// is not walMagic is another version's; a shorter one is a torn magic
// (empty log). Otherwise apply intact frames in order under the (boot,
// version) guard until the first bad one; a bad frame with an intact frame
// anywhere after it is corruption, otherwise a torn tail.
type walOracle struct {
	image    [fuzzLines][CellsPerLine]uint64
	records  uint64
	lastGood int64
	torn     bool
	corrupt  bool
	version  bool
}

func readWALOracle(b []byte) walOracle {
	var o walOracle
	if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
		o.version = len(b) > len(walMagic)
		o.torn = !o.version
		return o
	}
	type verKey struct{ boot, ver uint64 }
	guard := map[uint32]verKey{}
	off := len(walMagic)
	for off < len(b) {
		end, ok := frameOK(b, off)
		if !ok {
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
		boot, es, _ := oracleRecord(b[off+walFrameHeader : end])
		for _, e := range es {
			if e.space != 0 || e.sub != 0 || e.idx >= fuzzLines {
				continue
			}
			if g, seen := guard[e.idx]; seen && (g.boot > boot || (g.boot == boot && g.ver >= e.ver)) {
				continue
			}
			guard[e.idx] = verKey{boot, e.ver}
			for s := 0; s < CellsPerLine; s++ {
				if e.mask>>s&1 == 1 {
					o.image[e.idx][s] = e.vals[s] // 0 unless listed in nz
				}
			}
		}
		o.records++
		off = end
	}
	o.lastGood = int64(off)
	return o
}

// walFrame frames payload with a correct length and checksum.
func walFrame(payload []byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return append(b, payload...)
}

// FuzzReplayWAL feeds replayWAL arbitrary bytes as the live log. It must
// never panic, never apply a frame that is not intact (the region ends up
// exactly as the oracle's, which applies intact frames only), and classify
// the first bad frame as replayWAL documents: torn tail (stop, report
// Truncated, offer the offset to cut at), mid-log corruption (refuse with
// ErrWALCorrupt) or another version's log (refuse with ErrWALVersion).
func FuzzReplayWAL(f *testing.F) {
	seed := walSeed(f)
	first, ok := frameOK(seed, len(walMagic))
	if !ok {
		f.Fatal("seed log's first frame is not intact")
	}
	frame := first - len(walMagic) // a single-line record
	flip := func(at int) []byte {
		b := append([]byte(nil), seed...)
		b[at] ^= 0x40
		return b
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-frame/2])      // torn tail
	f.Add(flip(len(seed) - 5))           // bad checksum in the last frame
	f.Add(flip(len(walMagic) + frame/2)) // corruption in the first frame, intact frames after
	f.Add(flip(3))                       // damaged magic, frames after: another version
	f.Add(seed[:len(walMagic)])
	f.Add(seed[:len(walMagic)-3]) // torn magic
	f.Add([]byte{})

	// Entries the fast-mode seed never writes: a partial mask with a zero
	// covered cell (tracked mode captures only written cells), an all-zero
	// line (header only), and a ten-byte uvarint.
	rg := &region{tag: 0}
	f.Add(append(append([]byte(nil), seed...), appendRecordBytes(nil, 7, []walEntry{
		{r: rg, idx: 1, mask: 0x0f, ver: 3, vals: [CellsPerLine]uint64{5, 0, 7, 0, 9}},
		{r: rg, idx: 2, mask: 0xff, ver: 3},
		{r: rg, idx: 3, mask: 0x81, ver: math.MaxUint64, vals: [CellsPerLine]uint64{1, 2, 3, 4, 5, 6, 7, 8}},
	})...))

	// Frames whose checksum is good but whose body does not decode
	// exactly: each must be a torn tail at the end of the seed, never
	// applied. (1, 1) is boot 1, one entry; the entry (0, 0, 1, 9, 0x01,
	// 0x01, u64 5) is a one-cell capture of line 1.
	entry := append([]byte{0, 0, 1, 9, 0x01, 0x01}, binary.LittleEndian.AppendUint64(nil, 5)...)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"truncated varint", append([]byte{1, 1}, 0x80)},
		{"trailing bytes", append(append([]byte{1, 1}, entry...), 0)},
		{"count too high", append([]byte{1, 2}, entry...)},
		{"count too low", append([]byte{1, 0}, entry...)},
		{"nz outside mask", append(append([]byte{1, 1, 0, 0, 1, 9, 0x01, 0x03}, entry[6:]...), entry[6:]...)},
		{"listed zero cell", append([]byte{1, 1, 0, 0, 1, 9, 0x01, 0x01}, make([]byte, 8)...)},
		{"overlong varint", append([]byte{1, 1, 0x80, 0x00}, entry[1:]...)},
		{"space over 32 bits", append([]byte{1, 1, 0x80, 0x80, 0x80, 0x80, 0x10}, entry[1:]...)},
	} {
		log := append(append([]byte(nil), seed...), walFrame(tc.payload)...)
		if o := readWALOracle(log); !o.torn || o.lastGood != int64(len(seed)) {
			f.Fatalf("%s: oracle reads torn=%v lastGood=%d, want a torn tail at %d", tc.name, o.torn, o.lastGood, len(seed))
		}
		if _, _, ok := decodeRecord(nil, tc.payload); ok {
			f.Fatalf("%s: decodeRecord accepted it", tc.name)
		}
		f.Add(log)
	}

	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(walPath(dir, 1), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir})
		lines := m.NewSpace().Lines(0, fuzzLines)
		var st ReplayStats
		lastGood, err := m.durable.replayWAL(1, map[lineGuard][2]uint64{}, map[uint64]bool{}, &st)

		want := readWALOracle(wal)
		if want.version {
			if !errors.Is(err, ErrWALVersion) {
				t.Fatalf("header %q with bytes after it: err = %v, want ErrWALVersion", wal[:len(walMagic)], err)
			}
			return
		}
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

// FuzzWALRecord feeds decodeRecord arbitrary payloads. It must never
// panic, must accept exactly what the oracle reading of the layout
// accepts, and the encoding must be canonical: whatever decodes re-encodes
// to the same bytes.
func FuzzWALRecord(f *testing.F) {
	rg := &region{tag: spaceTag(3, 1)}
	for _, es := range [][]walEntry{
		nil,
		{{r: rg, idx: 1, mask: 0xff, ver: 1}},
		{{r: rg, idx: 7, mask: 0x0f, ver: 300, vals: [CellsPerLine]uint64{5, 0, 1 << 40}}},
		{{r: &region{tag: math.MaxUint64}, idx: math.MaxUint32, mask: 0xff, ver: math.MaxUint64,
			vals: [CellsPerLine]uint64{1, 2, 3, 4, 5, 6, 7, math.MaxUint64}}},
	} {
		f.Add(appendRecordBytes(nil, 2, es)[walFrameHeader:])
	}
	f.Add([]byte{0x80, 0x00, 0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, p []byte) {
		boot, lines, ok := decodeRecord(nil, p)
		oBoot, oEntries, oOK := oracleRecord(p)
		if ok != oOK {
			t.Fatalf("decodeRecord ok=%v, the oracle reading ok=%v", ok, oOK)
		}
		if !ok {
			return
		}
		if boot != oBoot || len(lines) != len(oEntries) {
			t.Fatalf("boot %d / %d entries, oracle %d / %d", boot, len(lines), oBoot, len(oEntries))
		}
		es := make([]walEntry, len(lines))
		for i, l := range lines {
			o := oEntries[i]
			if l.tag != spaceTag(o.space, o.sub) || l.idx != o.idx || l.ver != o.ver || l.mask != o.mask || l.vals != o.vals {
				t.Fatalf("entry %d: %+v, oracle %+v", i, l, o)
			}
			es[i] = walEntry{r: &region{tag: l.tag}, idx: l.idx, mask: l.mask, ver: l.ver, vals: l.vals}
		}
		if re := appendRecordBytes(nil, boot, es)[walFrameHeader:]; !bytes.Equal(re, p) {
			t.Fatalf("not canonical: %x re-encodes as %x", p, re)
		}
	})
}

// readCkptOracle is the reference reading of a checkpoint for the memory
// openTwoRegions opens, written from the layout comment: the magic, then
// intact frames only, the first empty record the last frame, and the
// entries before it, in file order, one run per registered region — each
// region exactly once, its lines from 0 to the last in order, each whole
// (mask 0xff). image lists the lines as openTwoRegions does. ok is false if
// any of that fails; version reports a wrong header with bytes after it.
func readCkptOracle(b []byte) (image [6][CellsPerLine]uint64, ok, version bool) {
	if len(b) < len(ckptMagic) || string(b[:len(ckptMagic)]) != ckptMagic {
		return image, false, len(b) > len(ckptMagic)
	}
	var es []oracleEntry
	sealed := false
	for off := len(ckptMagic); off < len(b) && !sealed; {
		end, ok := frameOK(b, off)
		if !ok {
			return image, false, false
		}
		_, rec, _ := oracleRecord(b[off+walFrameHeader : end])
		es = append(es, rec...)
		sealed = len(rec) == 0 && end == len(b)
		if len(rec) == 0 && !sealed {
			return image, false, false // bytes after the seal
		}
		off = end
	}
	if !sealed {
		return image, false, false
	}
	size, first := [2]int{4, 2}, [2]int{0, 4} // regions (0, 0) and (0, 1)
	var done [2]bool
	for len(es) > 0 {
		sub := es[0].sub
		if es[0].space != 0 || sub >= 2 || done[sub] || len(es) < size[sub] {
			return image, false, false
		}
		done[sub] = true
		for x := 0; x < size[sub]; x++ {
			if e := es[x]; e.space != 0 || e.sub != sub || int(e.idx) != x || e.mask != 0xff {
				return image, false, false
			}
			image[first[sub]+x] = es[x].vals
		}
		es = es[size[sub]:]
	}
	return image, done[0] && done[1], false
}

// FuzzLoadCheckpoint feeds RecoverFiles arbitrary bytes as the live
// generation's checkpoint behind a valid CURRENT. It must never panic, must
// accept exactly what the oracle reading accepts (refusing another format's
// header with ErrWALVersion), and an accepted checkpoint must leave every
// registered line holding the oracle's image.
func FuzzLoadCheckpoint(f *testing.F) {
	dir := f.TempDir()
	m, lines, err := openTwoRegions(dir)
	if err != nil {
		f.Fatal(err)
	}
	th := m.NewThread()
	for i := range lines {
		commitCell(th, &lines[i][i], uint64(10+i))
	}
	commitCell(th, &lines[1][7], 1<<40)
	if err := m.Checkpoint(); err != nil {
		f.Fatal(err)
	}
	if err := m.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(ckptPath(dir, 2))
	if err != nil {
		f.Fatal(err)
	}
	if _, ok, _ := readCkptOracle(seed); !ok {
		f.Fatal("the oracle refuses a checkpoint Checkpoint wrote")
	}
	seal := EncodeWALRecord(1, nil)
	sub1 := wholeLines(0, 1, 0, 1)
	flip := func(at int) []byte {
		b := append([]byte(nil), seed...)
		b[at] ^= 0x40
		return b
	}
	again := wholeLines(0, 0, 0, 1)
	for i := range again {
		again[i].Ver = 2 // newer, so only the coverage rule refuses it
	}
	f.Add(seed)
	f.Add(ckptFile(3, wholeLines(0, 0, 0, 1), append(wholeLines(0, 0, 2, 3), sub1...))) // lines split across records
	f.Add(seed[:len(seed)-len(seal)])                                                   // no seal
	f.Add(seed[:len(seed)-len(seal)-3])                                                 // torn mid-frame
	f.Add(append(append([]byte(nil), seed...), seal...))
	f.Add(append(append([]byte(nil), seed...), 0))
	f.Add(flip(len(ckptMagic) + walFrameHeader + 4))
	f.Add(flip(3))
	f.Add(seed[:len(ckptMagic)])
	f.Add([]byte{})
	f.Add(ckptFile(1, wholeLines(0, 0, 0, 1, 3), sub1))
	f.Add(ckptFile(1, wholeLines(0, 0, 0, 2, 1, 3), sub1))
	f.Add(ckptFile(1, wholeLines(0, 0, 0, 1, 1, 2, 3), sub1))
	f.Add(ckptFile(1, wholeLines(0, 0, 0, 1, 2, 3, 4), sub1))
	f.Add(ckptFile(1, wholeLines(0, 0, 0, 1), sub1, again)) // as many lines as registered
	f.Add(ckptFile(1, wholeLines(0, 0, 0, 1, 2, 3), sub1, wholeLines(1, 0, 0)))
	f.Add(ckptFile(1, wholeLines(0, 0, 0, 1, 2, 3)))
	f.Add(ckptFile(1))

	f.Fuzz(func(t *testing.T, ckpt []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(currentPath(dir), []byte(currentLine(1, 0)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ckptPath(dir, 1), ckpt, 0o644); err != nil {
			t.Fatal(err)
		}
		m, lines, err := openTwoRegions(dir)
		image, ok, version := readCkptOracle(ckpt)
		if !ok {
			if err == nil {
				t.Fatal("RecoverFiles accepted a checkpoint the oracle refuses")
			}
			if version && !errors.Is(err, ErrWALVersion) {
				t.Fatalf("header %q with bytes after it: err = %v, want ErrWALVersion", ckpt[:len(ckptMagic)], err)
			}
			return
		}
		if err != nil {
			t.Fatalf("RecoverFiles refused a checkpoint the oracle accepts: %v", err)
		}
		defer m.Close()
		for i := range lines {
			for s := range lines[i] {
				if got := lines[i][s].raw(); got != image[i][s] {
					t.Fatalf("line %d slot %d = %#x, the checkpoint holds %#x", i, s, got, image[i][s])
				}
			}
		}
	})
}

// FuzzReadCurrent feeds readCurrent arbitrary CURRENT contents: it must
// accept exactly the contents writeCurrent renders — "v1 ", two decimal
// uint64s without sign or leading zeros separated by one space, and a
// newline — and return the rendered numbers.
func FuzzReadCurrent(f *testing.F) {
	for _, s := range []string{
		"v1 1 0\n", "v1 18446744073709551615 1\n", "v1 18446744073709551616 1\n",
		"v1 5 7junk", "v1 5 7 8 9", "v01 5 7", "v1 5 7", "v1 +5 7\n", "v1 05 7\n",
		"v1 5  7\n", "v2 5 7\n", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		dir := t.TempDir()
		if err := os.WriteFile(currentPath(dir), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
		gen, boot, ok, err := readCurrent(vfs.OS, dir)
		want := oracleCurrent(s)
		if (err == nil) != want || (err == nil && !ok) {
			t.Fatalf("readCurrent(%q) = ok %v err %v, canonical %v", s, ok, err, want)
		}
		if want && currentLine(gen, boot) != s {
			t.Fatalf("readCurrent(%q) = gen %d boot %d, which renders %q", s, gen, boot, currentLine(gen, boot))
		}
	})
}

// oracleCurrent reports whether s is a CURRENT that writeCurrent renders.
func oracleCurrent(s string) bool {
	rest, ok := strings.CutPrefix(s, "v1 ")
	if !ok {
		return false
	}
	if rest, ok = strings.CutSuffix(rest, "\n"); !ok {
		return false
	}
	fields := strings.Split(rest, " ")
	if len(fields) != 2 {
		return false
	}
	for _, fd := range fields {
		if v, err := strconv.ParseUint(fd, 10, 64); err != nil || strconv.FormatUint(v, 10) != fd {
			return false
		}
	}
	return true
}
