package pmem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/pmem/vfs"
)

// ErrWALCorrupt reports a bad WAL frame with intact frames after it:
// in-place corruption of committed history, as opposed to a torn tail
// (nothing valid after the tear), which is truncated silently. Recovery
// refuses to open rather than drop acknowledged records.
var ErrWALCorrupt = errors.New("pmem: WAL corrupted mid-log")

// ErrWALVersion reports a log whose header is not this build's walMagic
// but which holds bytes after it: a log written by another format version
// (or not a log at all). No crash mid-append produces that shape — a fresh
// log's magic is its first write, and a torn magic has nothing after it —
// so recovery refuses, naming the file and leaving it untouched, rather
// than misreading it as corruption or truncating it to empty.
var ErrWALVersion = errors.New("pmem: WAL format version not supported")

// On-disk layout of a durable Memory's directory:
//
//	CURRENT            "v1 <gen> <boot>\n" — names the live generation and
//	                   the boot counter; replaced atomically (tmp + rename)
//	wal-<gen>.log      walMagic, then framed records appended at fences
//	ckpt-<gen>.snap    ckptMagic + full region dump, written at Checkpoint
//
// A WAL record frame is
//
//	u32 payloadLen | u32 crc32(payload) | payload
//
// little-endian, and the payload is
//
//	uvarint boot | uvarint count | count × entry
//	entry: uvarint space | uvarint sub | uvarint idx | uvarint ver |
//	       u8 mask | u8 nz | popcount(nz) × u64 cell value (little-endian)
//
// where (space, sub) is the region's tag, idx the line within it, ver the
// line's write version at capture, mask the covered cells (0xff for a
// fast-mode whole-line capture) and nz ⊆ mask the covered cells that are
// nonzero, their values in ascending slot order. Replay stores every
// covered cell: the listed value if its bit is in nz, 0 otherwise. A uvarint
// is the unsigned LEB128 of encoding/binary, at most 10 bytes.
//
// A frame is intact only if its length is at most maxFrameLen, its checksum
// matches AND its payload decodes exactly, which is also what makes the
// encoding canonical (one payload per record): every uvarint is complete
// and minimal (a multi-byte uvarint does not end in a zero byte) and fits
// its field — 32 bits for space, sub and idx, 64 for boot and ver;
// nz ⊆ mask; every value listed in nz is nonzero; exactly count entries are
// present; and no bytes follow the last one.
//
// The length/checksum framing is the torn-write defense: a crash mid-append
// leaves a frame that is short or fails its checksum, and replay stops
// cleanly at the first frame that is not intact, truncating it away — every
// acknowledged record necessarily lies before it (acknowledgement waits for
// the flush of its record). A log that is not walMagic followed by frames
// is another format's if it holds bytes past the magic's length
// (ErrWALVersion), and a torn first write — an empty log — if it does not.
//
// A checkpoint is
//
//	ckptMagic | u32 regionCount | u64 boot | regionCount × (u64 tag |
//	u64 size | (size/64) × (u64 ver | 64 content bytes)) |
//	u32 crc32(everything after the magic)
//
// written to a temp file, fsynced and renamed, then a fresh empty WAL for
// the next generation is created before CURRENT flips — so a crash anywhere
// in the sequence leaves either the old generation fully live or the new
// one, never a mix. The per-line versions (read before the line content,
// the same ordering captureFast relies on) let recovery seed the replay
// guard: a WAL record that captured a line at a version the checkpoint
// already covers is skipped, which is what makes checkpointing safe under
// live traffic — a thread that captured a line before the checkpoint but
// fenced after it cannot roll the line back (see Checkpoint).

const (
	walMagic  = "NVTWAL2\n"
	ckptMagic = "NVTCKP2\n"

	walFrameHeader = 8
	// maxFrameLen bounds a frame's declared payload length during replay, so
	// a corrupt length field cannot provoke a giant allocation. One record
	// holds one thread's between-fences line set; an entry is at most 91
	// bytes (five-byte space, sub and idx, ten-byte ver, mask, nz and eight
	// values), so 1<<24 is at least ~184k lines.
	maxFrameLen = 1 << 24
)

// appendRecordBytes serializes one record (frame header + payload) into buf.
// It appends in place, so a buf with room to spare allocates nothing.
func appendRecordBytes(buf []byte, boot uint64, entries []walEntry) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header, filled below
	buf = binary.AppendUvarint(buf, boot)
	buf = binary.AppendUvarint(buf, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		buf = binary.AppendUvarint(buf, e.r.tag>>32)
		buf = binary.AppendUvarint(buf, uint64(uint32(e.r.tag)))
		buf = binary.AppendUvarint(buf, uint64(e.idx))
		buf = binary.AppendUvarint(buf, e.ver)
		var nz uint8
		for s := 0; s < CellsPerLine; s++ {
			if e.mask&(1<<s) != 0 && e.vals[s] != 0 {
				nz |= 1 << s
			}
		}
		buf = append(buf, e.mask, nz)
		for s := 0; s < CellsPerLine; s++ {
			if nz&(1<<s) != 0 {
				buf = binary.LittleEndian.AppendUint64(buf, e.vals[s])
			}
		}
	}
	payload := buf[start+walFrameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// walLine is one decoded WAL entry: the region tag, the line index, the
// capture version, the covered-cell mask, and the values of the covered
// cells (zero outside nz, and outside mask).
type walLine struct {
	tag  uint64
	idx  uint32
	mask uint8
	ver  uint64
	vals [CellsPerLine]uint64
}

// walDecoder reads the fields of one payload in order. A failed read
// leaves ok false and every later read returns zero.
type walDecoder struct {
	b  []byte
	ok bool
}

// uvarint reads one minimal uvarint no wider than max.
func (r *walDecoder) uvarint(max uint64) uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > max || (n > 1 && r.b[n-1] == 0) {
		r.ok = false
	}
	if !r.ok {
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *walDecoder) byte() uint8 {
	if !r.ok || len(r.b) < 1 {
		r.ok, r.b = false, nil
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *walDecoder) u64() uint64 {
	if !r.ok || len(r.b) < 8 {
		r.ok, r.b = false, nil
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// decodeRecord decodes one frame payload, appending its entries to dst
// (reused by the caller across frames). ok is false unless the payload
// decodes exactly as the layout comment above requires; out then holds
// nothing the caller may apply.
func decodeRecord(dst []walLine, payload []byte) (boot uint64, out []walLine, ok bool) {
	r := walDecoder{b: payload, ok: true}
	boot = r.uvarint(math.MaxUint64)
	count := r.uvarint(math.MaxUint64)
	out = dst[:0]
	for i := uint64(0); i < count && r.ok; i++ {
		var l walLine
		space := r.uvarint(math.MaxUint32)
		sub := r.uvarint(math.MaxUint32)
		l.tag = spaceTag(uint32(space), uint32(sub))
		l.idx = uint32(r.uvarint(math.MaxUint32))
		l.ver = r.uvarint(math.MaxUint64)
		l.mask = r.byte()
		nz := r.byte()
		if nz&^l.mask != 0 {
			r.ok = false
		}
		for s := 0; s < CellsPerLine && r.ok; s++ {
			if nz&(1<<s) != 0 {
				if l.vals[s] = r.u64(); l.vals[s] == 0 {
					r.ok = false
				}
			}
		}
		out = append(out, l)
	}
	if !r.ok || len(r.b) != 0 {
		return 0, out[:0], false
	}
	return boot, out, true
}

// frameIntact reports whether an intact frame — a sane length, a matching
// checksum and a payload that decodes exactly — starts at b[off:], and
// where it ends.
func frameIntact(b []byte, off int) (end int, ok bool) {
	if off+walFrameHeader > len(b) {
		return 0, false
	}
	plen := binary.LittleEndian.Uint32(b[off:])
	if plen > maxFrameLen || int64(plen) > int64(len(b)-off-walFrameHeader) {
		return 0, false
	}
	end = off + walFrameHeader + int(plen)
	payload := b[off+walFrameHeader : end]
	// Decode before the checksum: on garbage the decode fails within a few
	// bytes, where the checksum would read the whole declared length.
	if _, _, ok = decodeRecord(nil, payload); !ok {
		return 0, false
	}
	return end, crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(b[off+4:])
}

func currentPath(dir string) string { return filepath.Join(dir, "CURRENT") }
func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%d.log", gen))
}
func ckptPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%d.snap", gen))
}

// readCurrent parses CURRENT; ok=false when the file does not exist (fresh
// directory).
func readCurrent(fs vfs.FS, dir string) (gen, boot uint64, ok bool, err error) {
	b, err := fs.ReadFile(currentPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	var v int
	if _, err := fmt.Sscanf(strings.TrimSpace(string(b)), "v%d %d %d", &v, &gen, &boot); err != nil || v != 1 {
		return 0, 0, false, fmt.Errorf("pmem: malformed CURRENT %q", string(b))
	}
	return gen, boot, true, nil
}

// writeCurrent atomically replaces CURRENT (tmp + rename + dir sync).
func writeCurrent(fs vfs.FS, dir string, gen, boot uint64) error {
	tmp := currentPath(dir) + ".tmp"
	if err := fs.WriteFile(tmp, []byte(fmt.Sprintf("v1 %d %d\n", gen, boot)), 0o644); err != nil {
		return err
	}
	if err := fs.Rename(tmp, currentPath(dir)); err != nil {
		return err
	}
	return fs.SyncDir(dir)
}

// lineGuard keys the replay version guard: one entry per replayed line.
type lineGuard struct {
	tag uint64
	idx uint32
}

// storeLine writes one replayed line image into its registered region
// (masked slots only), via atomic stores so tracked-mode construction state
// and concurrent readers (there are none during recovery, but the cells are
// atomics) stay well-defined.
func (d *durableMem) storeLine(r *region, idx uint32, mask uint8, vals *[CellsPerLine]uint64) bool {
	off := uintptr(idx) << lineShift
	if off+LineSize > r.size {
		return false
	}
	p := unsafe.Add(r.ptr, off)
	for s := 0; s < CellsPerLine; s++ {
		if mask&(1<<s) != 0 {
			(*atomic.Uint64)(unsafe.Add(p, s*8)).Store(vals[s])
		}
	}
	return true
}

// loadCheckpoint reads and applies ckpt-<gen>.snap; missing file is fine
// (no checkpoint taken yet in this generation). The checkpoint seeds the
// replay guard with its per-line versions, so WAL records that captured a
// line the checkpoint already covers are skipped — the other half of the
// live-checkpoint safety argument (see Checkpoint).
func (d *durableMem) loadCheckpoint(gen uint64, guard map[lineGuard][2]uint64, seen map[uint64]bool, st *ReplayStats) error {
	b, err := d.fs.ReadFile(ckptPath(d.dir, gen))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(b) < len(ckptMagic)+8 || string(b[:len(ckptMagic)]) != ckptMagic {
		return fmt.Errorf("pmem: checkpoint %s: bad magic", ckptPath(d.dir, gen))
	}
	body, sum := b[len(ckptMagic):len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return fmt.Errorf("pmem: checkpoint %s: checksum mismatch", ckptPath(d.dir, gen))
	}
	if len(body) < 12 {
		return fmt.Errorf("pmem: checkpoint %s: short header", ckptPath(d.dir, gen))
	}
	n := binary.LittleEndian.Uint32(body)
	ckptBoot := binary.LittleEndian.Uint64(body[4:])
	body = body[12:]
	var full [CellsPerLine]uint64
	for i := uint32(0); i < n; i++ {
		if len(body) < 16 {
			return fmt.Errorf("pmem: checkpoint %s: short region header", ckptPath(d.dir, gen))
		}
		tag := binary.LittleEndian.Uint64(body)
		size := binary.LittleEndian.Uint64(body[8:])
		body = body[16:]
		const stride = 8 + LineSize // u64 version prefix per line
		if size%LineSize != 0 || uint64(len(body)) < size/LineSize*stride {
			return fmt.Errorf("pmem: checkpoint %s: bad region size %d", ckptPath(d.dir, gen), size)
		}
		raw := body[:size/LineSize*stride]
		body = body[size/LineSize*stride:]
		d.provided(tag, seen)
		d.regMu.Lock()
		r := d.byTag[tag]
		d.regMu.Unlock()
		if r == nil {
			return fmt.Errorf("pmem: checkpoint region (space %d, sub %d) has no registration — structure layout mismatch",
				uint32(tag>>32), uint32(tag))
		}
		if uintptr(size) != r.size {
			return fmt.Errorf("pmem: checkpoint region (space %d, sub %d) size %d != registered %d",
				uint32(tag>>32), uint32(tag), size, r.size)
		}
		for line := uintptr(0); line < r.size/LineSize; line++ {
			off := line * stride
			ver := binary.LittleEndian.Uint64(raw[off:])
			// Seed every line, version 0 included: the checkpoint content
			// was read after the version, so a record at a version the seed
			// covers carries nothing the content lacks — while applying it
			// could roll the line back below the snapshot.
			guard[lineGuard{tag: tag, idx: uint32(line)}] = [2]uint64{ckptBoot, ver}
			off += 8
			for s := 0; s < CellsPerLine; s++ {
				full[s] = binary.LittleEndian.Uint64(raw[off+uintptr(s)*8:])
			}
			d.storeLine(r, uint32(line), 0xff, &full)
		}
	}
	st.CheckpointBytes += uint64(len(b))
	return nil
}

// replayWAL streams wal-<gen>.log, applying each intact record under the
// boot-scoped monotonic-version guard, and returns the offset just past the
// last good frame. A torn TAIL — a bad frame with nothing valid after it,
// the signature of a crash mid-append — stops replay cleanly and is
// reported via st.Truncated for the caller to truncate away. A bad frame
// with intact frames AFTER it is in-place corruption of committed history:
// replay refuses with ErrWALCorrupt instead of silently truncating
// acknowledged records (truncate is the caller's copy of the log, not the
// operator's decision to take).
func (d *durableMem) replayWAL(gen uint64, guard map[lineGuard][2]uint64, seen map[uint64]bool, st *ReplayStats) (lastGood int64, err error) {
	f, err := d.fs.Open(walPath(d.dir, gen))
	if errors.Is(err, os.ErrNotExist) {
		return -1, nil
	}
	if err != nil {
		return 0, err
	}
	defer f.Close()
	// torn marks a bad frame at lastGood: torn tail if nothing intact
	// follows, ErrWALCorrupt otherwise.
	torn := func(lastGood int64) (int64, error) {
		if err := d.scanPastBadFrame(f, lastGood); err != nil {
			return 0, err
		}
		st.Truncated = true
		return lastGood, nil
	}
	br := bufio.NewReaderSize(f, 1<<16)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != walMagic {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return 0, err // real read failure, not a short file
		}
		// A torn magic (crash during the very first write to a fresh log)
		// has nothing after it: recover to an empty log. Anything longer
		// was written under another header.
		if _, err := br.Peek(1); err == nil {
			return 0, fmt.Errorf("%w: %s starts with %q, want %q", ErrWALVersion, f.Name(), magic, walMagic)
		} else if err != io.EOF {
			return 0, err
		}
		st.Truncated = true
		return 0, nil
	}
	lastGood = int64(len(walMagic))
	var hdr [walFrameHeader]byte
	var payload []byte
	var lines []walLine
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return lastGood, nil // clean end on a frame boundary
			}
			if err != io.ErrUnexpectedEOF {
				return 0, err
			}
			return torn(lastGood)
		}
		plen := binary.LittleEndian.Uint32(hdr[:])
		sum := binary.LittleEndian.Uint32(hdr[4:])
		if plen > maxFrameLen {
			return torn(lastGood)
		}
		if uint32(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				return 0, err
			}
			return torn(lastGood)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return torn(lastGood)
		}
		boot, decoded, ok := decodeRecord(lines, payload)
		lines = decoded
		if !ok {
			return torn(lastGood)
		}
		for i := range lines {
			l := &lines[i]
			d.provided(l.tag, seen)
			key := lineGuard{tag: l.tag, idx: l.idx}
			if g, ok := guard[key]; ok && (g[0] > boot || (g[0] == boot && g[1] >= l.ver)) {
				continue // an already-applied image is at least as new
			}
			d.regMu.Lock()
			r := d.byTag[l.tag]
			d.regMu.Unlock()
			if r == nil {
				continue // region gone from this build's layout: skip
			}
			if d.storeLine(r, l.idx, l.mask, &l.vals) {
				guard[key] = [2]uint64{boot, l.ver}
				st.Lines++
			}
		}
		st.Records++
		lastGood += int64(walFrameHeader) + int64(plen)
		st.Bytes += uint64(walFrameHeader) + uint64(plen)
	}
}

// scanPastBadFrame distinguishes a torn tail from mid-log corruption: the
// frame at offset bad is not intact; if any intact frame (sane length, a
// matching checksum and an exact decode) exists at a LATER offset, the log
// was not torn there — appends are strictly sequential, so bytes after a
// crash point cannot exist. That is in-place damage to committed history,
// and the scan returns ErrWALCorrupt. The re-read goes through ReadAt on
// the same file handle; a transient read fault that corrupted the
// streaming pass therefore also lands here rather than silently truncating
// a healthy log.
func (d *durableMem) scanPastBadFrame(f vfs.File, bad int64) error {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil || end <= bad+walFrameHeader {
		return nil
	}
	n := end - bad
	const scanCap = 64 << 20 // bound the diagnostic scan
	if n > scanCap {
		n = scanCap
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, bad, n), buf); err != nil {
		return nil // cannot re-read: treat as torn, the conservative default
	}
	// Offset 0 is the known-bad frame itself; every later byte offset is a
	// candidate start (a torn length field misaligns all that follows).
	for off := 1; off+walFrameHeader <= len(buf); off++ {
		if _, ok := frameIntact(buf, off); ok {
			return fmt.Errorf("%w: bad frame at offset %d, intact frame at offset %d in %s — refusing to truncate committed history",
				ErrWALCorrupt, bad, bad+int64(off), f.Name())
		}
	}
	return nil
}

// RecoverFiles brings the file backend online: it loads the current
// generation's checkpoint, replays its WAL under the boot-scoped
// monotonic-version guard (truncating a torn tail at the first bad frame),
// bumps the boot counter, and opens the log for appending. Until this runs,
// WAL appends are dropped — structure construction is deterministic and is
// re-executed before every recovery, so its writes need no log records and
// must not shadow recovered state. Call it exactly once, after constructing
// the memory's structures and registering their regions, while the memory
// is quiescent; repeat calls return the first call's stats.
//
// On a tracked memory, the recovered content is declared persisted
// (PersistAll) so the crash simulation and the file agree on the baseline.
func (m *Memory) RecoverFiles() (ReplayStats, error) {
	d := m.durable
	if d == nil {
		return ReplayStats{}, errors.New("pmem: RecoverFiles without Config.Dir")
	}
	d.mu.Lock()
	if d.live {
		st := d.replay
		d.mu.Unlock()
		return st, nil
	}
	start := time.Now()
	var st ReplayStats
	err := func() error {
		if err := d.fs.MkdirAll(d.dir, 0o755); err != nil {
			return err
		}
		gen, boot, ok, err := readCurrent(d.fs, d.dir)
		if err != nil {
			return err
		}
		if !ok {
			gen, boot = 1, 0
		}
		seen := make(map[uint64]bool)
		guard := make(map[lineGuard][2]uint64)
		if err := d.loadCheckpoint(gen, guard, seen, &st); err != nil {
			return err
		}
		lastGood, err := d.replayWAL(gen, guard, seen, &st)
		if err != nil {
			return err
		}
		d.boot = boot + 1
		d.gen = gen
		if err := writeCurrent(d.fs, d.dir, gen, d.boot); err != nil {
			return err
		}
		f, err := d.fs.OpenFile(walPath(d.dir, gen), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		end := lastGood
		if end < 0 { // log did not exist: fresh generation
			end = 0
		}
		if err := f.Truncate(end); err != nil {
			f.Close()
			return err
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return err
		}
		d.f = f
		d.bw = bufio.NewWriterSize(f, 1<<16)
		if end == 0 {
			d.bw.WriteString(walMagic)
			d.dirty.Store(true)
			end = int64(len(walMagic))
		}
		d.walLen.Store(end)
		d.removeStaleGenerations()
		d.markAllClean(m)
		return nil
	}()
	if err != nil {
		d.mu.Unlock()
		return ReplayStats{}, err
	}
	st.Elapsed = time.Since(start)
	d.replay = st
	d.live = true
	d.mu.Unlock()
	if err := d.flush(); err != nil {
		return ReplayStats{}, err
	}
	if m.model != nil {
		m.PersistAll()
	}
	return st, nil
}

// markAllClean declares every line of every registered region clean at its
// current write version: what the regions hold now is construction state
// (re-executed before every recovery) overlaid with the checkpoint and the
// replayed log, which is exactly what the next recovery would rebuild from
// the same files. Without it a restart would re-log the whole store once,
// line by line, as reads flush it. Regions registered later (an arena
// growing) start with no line logged. Caller holds d.mu; the memory is
// quiescent.
func (d *durableMem) markAllClean(m *Memory) {
	p := d.regions.Load()
	if p == nil {
		return
	}
	for _, r := range *p {
		first := r.base >> lineShift
		for i := range r.logged {
			r.logged[i].Store(m.lineVersion(first+uintptr(i)) + 1)
		}
	}
}

// removeStaleGenerations best-effort deletes wal/ckpt files of generations
// other than the live one (orphans of an interrupted Checkpoint). Caller
// holds d.mu.
func (d *durableMem) removeStaleGenerations() {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, de := range names {
		var g uint64
		n := de.Name()
		if _, err := fmt.Sscanf(n, "wal-%d.log", &g); err == nil && g != d.gen {
			d.fs.Remove(filepath.Join(d.dir, n))
			continue
		}
		if _, err := fmt.Sscanf(n, "ckpt-%d.snap", &g); err == nil && g != d.gen {
			d.fs.Remove(filepath.Join(d.dir, n))
		}
	}
}

// Checkpoint dumps every registered region to a new-generation snapshot,
// switches the WAL to a fresh (empty) log, and retires the old generation —
// bounding replay work at the next open. It is safe under live traffic:
// holding d.mu for the duration excludes WAL appends (so every record of
// the retired log was appended by a fence that synchronized-before this
// checkpoint, and its content is therefore visible to the region scan),
// and the snapshot records each line's write version — read before the
// line content, exactly like captureFast — so recovery seeds the replay
// guard and skips any record a thread captured before the scan but fenced
// into the NEW log after it. A write the seed masks is either already in
// the snapshot content (its version bump preceded the scan's version read)
// or re-captured at a newer version by its own thread's later fence. The
// threads pay one stalled fence while the dump runs; nothing needs to
// quiesce. The per-line logged versions stay valid across the generation
// switch for the same reason: a line stamped clean at version v had its
// record appended before this checkpoint took d.mu, so the scan reads a
// version >= v and content at least as new — the snapshot covers it.
// No-op without a file backend.
func (m *Memory) Checkpoint() error {
	d := m.durable
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.live || d.f == nil {
		return errors.New("pmem: Checkpoint before RecoverFiles")
	}
	// A damaged backend cannot checkpoint: the region scan would snapshot
	// in-memory state that includes writes whose acknowledgements were
	// withheld, promoting them to durable behind the caller's back.
	if err := d.damageErr(); err != nil {
		return err
	}
	if err := d.bw.Flush(); err != nil {
		return d.latch(err) // live-WAL flush failure: fail-stop
	}
	// dirty stays set until the flip below: the drained records are in the
	// OS but not synced, so a commit point racing this checkpoint must wait
	// on d.mu for the snapshot that covers them (or, if the checkpoint
	// fails before the flip, sync the old log itself).
	newGen := d.gen + 1

	// 1. Snapshot all regions into ckpt-<newGen> (tmp + fsync + rename).
	// The regions snapshot is loaded after d.mu: a region referenced by any
	// record in the retired log was registered before the fence that wrote
	// the record, which took d.mu before we did.
	var regs []*region
	if p := d.regions.Load(); p != nil {
		regs = *p
	}
	tmp := ckptPath(d.dir, newGen) + ".tmp"
	cf, err := d.fs.Create(tmp)
	if err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(cf, crc), 1<<16)
	// The magic is outside the checksum; split the writer accordingly.
	if _, err := io.WriteString(cf, ckptMagic); err != nil {
		cf.Close()
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(regs)))
	bw.Write(hdr[:4])
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], d.boot)
	bw.Write(word[:])
	for _, r := range regs {
		binary.LittleEndian.PutUint64(hdr[:8], r.tag)
		binary.LittleEndian.PutUint64(hdr[8:], uint64(r.size))
		bw.Write(hdr[:])
		for off := uintptr(0); off < r.size; off += LineSize {
			// Per line: version first, then content — the capture ordering
			// the replay-guard seeding depends on.
			binary.LittleEndian.PutUint64(word[:], m.lineVersion((r.base+off)>>lineShift))
			bw.Write(word[:])
			for s := uintptr(0); s < LineSize; s += 8 {
				binary.LittleEndian.PutUint64(word[:], (*atomic.Uint64)(unsafe.Add(r.ptr, off+s)).Load())
				bw.Write(word[:])
			}
		}
	}
	if err := bw.Flush(); err != nil {
		cf.Close()
		return err
	}
	binary.LittleEndian.PutUint32(word[:4], crc.Sum32())
	if _, err := cf.Write(word[:4]); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Sync(); err != nil {
		cf.Close()
		return err
	}
	if err := cf.Close(); err != nil {
		return err
	}
	if err := d.fs.Rename(tmp, ckptPath(d.dir, newGen)); err != nil {
		return err
	}

	// 2. Fresh WAL for the new generation.
	nf, err := d.fs.Create(walPath(d.dir, newGen))
	if err != nil {
		return err
	}
	if _, err := io.WriteString(nf, walMagic); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		nf.Close()
		return err
	}

	// 3. Flip CURRENT — the commit point — then swap writers and retire the
	// old generation. Failures BEFORE the flip (everything above) leave the
	// old generation fully live and do NOT latch: serving continues, only
	// the checkpoint attempt failed. Failures on the retired log below no
	// longer threaten any acknowledged data — the new checkpoint covers it
	// — but a WAL file refusing to sync or close is a sick disk, and
	// fail-stop beats finding out on the next commit.
	if err := writeCurrent(d.fs, d.dir, newGen, d.boot); err != nil {
		nf.Close()
		return err
	}
	retireErr := d.f.Sync()
	if cerr := d.f.Close(); retireErr == nil {
		retireErr = cerr
	}
	d.f = nf
	d.bw = bufio.NewWriterSize(nf, 1<<16)
	d.dirty.Store(false) // everything appended so far is in the synced snapshot
	d.walLen.Store(int64(len(walMagic)))
	d.wstats.Checkpoints++
	oldGen := d.gen
	d.gen = newGen
	d.fs.Remove(walPath(d.dir, oldGen))
	d.fs.Remove(ckptPath(d.dir, oldGen))
	if retireErr != nil {
		return d.latch(retireErr)
	}
	return nil
}

// lineVersion reads a line's current write version the same way the flush
// path does: the exact tracked counter under its stripe lock, or the
// hashed fast-mode slot (collisions only inflate the version, which at
// worst makes a replay-guard seed skip a record whose content the
// checkpoint covers anyway — the slot counter is shared and monotone).
func (m *Memory) lineVersion(key uintptr) uint64 {
	if mo := m.model; mo != nil {
		st := mo.stripeOf(key)
		st.mu.Lock()
		var ver uint64
		if ls := st.lines[key]; ls != nil {
			ver = ls.curVer
		}
		st.mu.Unlock()
		return ver
	}
	h := uint64(key) * 0x9e3779b97f4a7c15
	return m.lineVer[h>>(64-uint(m.cfg.LineTableBits))].v.Load()
}
