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

// ErrWALVersion reports a log or checkpoint whose header is not this
// build's magic but which holds bytes after it: a file of another format
// version (or not one of ours). No crash mid-append produces that shape — a
// fresh file's magic is its first write, and a torn magic has nothing after
// it — so recovery refuses, naming the file and leaving it untouched, rather
// than misreading it as corruption or truncating it to empty.
var ErrWALVersion = errors.New("pmem: WAL format version not supported")

// On-disk layout of a durable Memory's directory:
//
//	CURRENT            "v1 <gen> <boot>\n" exactly — names the live generation
//	                   and the boot counter; replaced atomically (tmp + rename)
//	wal-<gen>.log      walMagic, then records appended at fences
//	ckpt-<gen>.snap    ckptMagic, then records of every registered line, then
//	                   a seal; written at Checkpoint
//
// Both files hold the same records. A record frame is
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
// In the log, the length/checksum framing is the torn-write defense: a crash
// mid-append leaves a frame that is short or fails its checksum, and replay
// stops cleanly at the first frame that is not intact, truncating it away —
// every acknowledged record necessarily lies before it (acknowledgement
// waits for the flush of its record). A log that is not walMagic followed by
// frames is another format's if it holds bytes past the magic's length
// (ErrWALVersion), and a torn first write — an empty log — if it does not.
//
// A checkpoint holds one entry per registered line (mask 0xff, the version
// read before the content, as captureFast reads them), region by region and
// each region's lines in order, ckptRecordLines to a record, sealed by an
// empty record (count 0). It is written to a temp file, fsynced and renamed,
// then a fresh empty WAL for the next generation is created before CURRENT
// flips — so a crash anywhere in the sequence leaves either the old
// generation fully live or the new one, never a mix, and never a damaged
// checkpoint: its reader is strict where the log's is tolerant (see
// loadCheckpoint). The per-line versions seed the replay guard: a WAL record
// that captured a line at a version the checkpoint already covers is
// skipped, which is what makes checkpointing safe under live traffic — a
// thread that captured a line before the checkpoint but fenced after it
// cannot roll the line back (see Checkpoint).

const (
	walMagic  = "NVTWAL2\n"
	ckptMagic = "NVTCKP3\n"

	walFrameHeader = 8
	// maxFrameLen bounds a frame's declared payload length during replay, so
	// a corrupt length field cannot provoke a giant allocation. One record
	// holds one thread's between-fences line set; an entry is at most 91
	// bytes (five-byte space, sub and idx, ten-byte ver, mask, nz and eight
	// values), so 1<<24 is at least ~184k lines.
	maxFrameLen     = 1 << 24
	ckptRecordLines = 1024 // lines per checkpoint record: a frame of at most ~93 KB
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

// currentLine renders CURRENT's content.
func currentLine(gen, boot uint64) string { return fmt.Sprintf("v1 %d %d\n", gen, boot) }

// readCurrent parses CURRENT, which must be exactly what writeCurrent wrote;
// ok=false when the file does not exist (fresh directory).
func readCurrent(fs vfs.FS, dir string) (gen, boot uint64, ok bool, err error) {
	b, err := fs.ReadFile(currentPath(dir))
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, err
	}
	// Sscanf stops at the end of its format: the re-render catches the rest.
	if _, err := fmt.Sscanf(string(b), "v1 %d %d", &gen, &boot); err != nil || currentLine(gen, boot) != string(b) {
		return 0, 0, false, fmt.Errorf("pmem: malformed CURRENT %q", string(b))
	}
	return gen, boot, true, nil
}

// writeCurrent atomically replaces CURRENT (tmp + rename + dir sync).
func writeCurrent(fs vfs.FS, dir string, gen, boot uint64) error {
	tmp := currentPath(dir) + ".tmp"
	if err := fs.WriteFile(tmp, []byte(currentLine(gen, boot)), 0o644); err != nil {
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

// applyLine writes one replayed line image (its masked slots) into r under
// the boot-scoped monotonic-version guard, reporting whether it did: only a
// capture newer than the line's newest applied image advances it. The
// stores are atomic so that tracked-mode construction state stays
// well-defined.
func applyLine(r *region, boot uint64, l *walLine, guard map[lineGuard][2]uint64) bool {
	key := lineGuard{tag: l.tag, idx: l.idx}
	if g, ok := guard[key]; ok && (g[0] > boot || (g[0] == boot && g[1] >= l.ver)) {
		return false // an already-applied image is at least as new
	}
	off := uintptr(l.idx) << lineShift
	if off+LineSize > r.size {
		return false
	}
	p := unsafe.Add(r.ptr, off)
	for s := 0; s < CellsPerLine; s++ {
		if l.mask&(1<<s) != 0 {
			(*atomic.Uint64)(unsafe.Add(p, s*8)).Store(l.vals[s])
		}
	}
	guard[key] = [2]uint64{boot, l.ver}
	return true
}

// readLog streams a log or checkpoint — magic, then frames — calling apply
// on each intact record in order, up to the end of the file or the first
// frame that is not intact (bad; a torn magic is one at end 0). end is the
// offset just past the last intact frame. A wrong magic with bytes after it
// is ErrWALVersion, naming the file; read errors and apply's end the read.
func readLog(f vfs.File, magic string, apply func(boot uint64, lines []walLine) error) (end int64, bad bool, err error) {
	// stop ends the read at a frame that is not intact, unless err is real.
	stop := func(err error) (int64, bool, error) {
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return 0, false, err
		}
		return end, true, nil
	}
	br := bufio.NewReaderSize(f, 1<<16)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil || string(head) != magic {
		// A torn magic (a crash during a fresh file's first write) has
		// nothing after it; anything longer was written under another header.
		if err == nil {
			if _, err = br.Peek(1); err == nil {
				return 0, false, fmt.Errorf("%w: %s starts with %q, want %q", ErrWALVersion, f.Name(), head, magic)
			}
		}
		return stop(err)
	}
	end = int64(len(magic))
	var hdr [walFrameHeader]byte
	var payload []byte
	var lines []walLine
	for {
		_, err := io.ReadFull(br, hdr[:])
		if err == io.EOF {
			return end, false, nil // clean end on a frame boundary
		}
		plen := binary.LittleEndian.Uint32(hdr[:])
		if err != nil || plen > maxFrameLen {
			return stop(err)
		}
		if uint32(cap(payload)) < plen {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return stop(err)
		}
		boot, decoded, ok := decodeRecord(lines, payload)
		if lines = decoded; !ok || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			return stop(nil)
		}
		if err := apply(boot, lines); err != nil {
			return 0, false, err
		}
		end += int64(walFrameHeader) + int64(plen)
	}
}

// loadCheckpoint applies ckpt-<gen>.snap; a missing file is fine (no
// checkpoint taken yet in this generation). It refuses a header other than
// ckptMagic, a frame that is not intact, a missing seal or anything after
// it, a region without a registration, and entries that do not cover every
// registered line exactly once, whole and in order. Every line seeds the
// replay guard, version 0 included: a record at a version the seed covers
// carries nothing the content (read after the version) lacks, while
// applying it could roll the line back below the snapshot.
func (d *durableMem) loadCheckpoint(gen uint64, guard map[lineGuard][2]uint64, seen map[uint64]bool, st *ReplayStats) error {
	name := ckptPath(d.dir, gen)
	f, err := d.fs.Open(name)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	refuse := func(format string, a ...any) error {
		return fmt.Errorf("pmem: checkpoint %s: %s", name, fmt.Sprintf(format, a...))
	}
	var r *region   // the region being read
	var next uint32 // its next line
	var lines uintptr
	var sealed bool
	end, bad, err := readLog(f, ckptMagic, func(boot uint64, ls []walLine) error {
		if sealed {
			return refuse("a record after the seal")
		}
		sealed = len(ls) == 0
		for i := range ls {
			l := &ls[i]
			if r == nil || l.tag != r.tag {
				if r = d.regionOf(l.tag, seen); r == nil {
					return refuse("region (space %d, sub %d) has no registration — structure layout mismatch",
						uint32(l.tag>>32), uint32(l.tag))
				}
				next = 0
			}
			// A line already seeded is a region read twice.
			_, again := guard[lineGuard{tag: l.tag, idx: l.idx}]
			if again || l.idx != next || l.mask != 0xff || !applyLine(r, boot, l, guard) {
				return refuse("entry for line %d (mask %#x) of region (space %d, sub %d), want whole line %d of %d once",
					l.idx, l.mask, uint32(l.tag>>32), uint32(l.tag), next, r.size/LineSize)
			}
			next++
			lines++
		}
		return nil
	})
	switch {
	case err != nil:
		return err
	case bad:
		return refuse("not intact at offset %d", end)
	case !sealed:
		return refuse("no seal: truncated at offset %d", end)
	}
	var want uintptr
	if p := d.regions.Load(); p != nil {
		for _, rg := range *p {
			want += rg.size / LineSize
		}
	}
	if lines != want {
		return refuse("covers %d of the %d registered lines", lines, want)
	}
	st.CheckpointBytes += uint64(end)
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
	lastGood, bad, err := readLog(f, walMagic, func(boot uint64, lines []walLine) error {
		for i := range lines {
			// A region gone from this build's layout is skipped.
			if r := d.regionOf(lines[i].tag, seen); r != nil && applyLine(r, boot, &lines[i], guard) {
				st.Lines++
			}
		}
		st.Records++
		return nil
	})
	if err != nil {
		return 0, err
	}
	if bad {
		if err := d.scanPastBadFrame(f, lastGood); err != nil {
			return 0, err
		}
		st.Truncated = true
	}
	if lastGood > 0 {
		st.Bytes += uint64(lastGood) - uint64(len(walMagic))
	}
	return lastGood, nil
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
	bw := bufio.NewWriterSize(cf, 1<<16) // keeps its first write error for Flush
	bw.WriteString(ckptMagic)
	es := make([]walEntry, 0, ckptRecordLines)
	var rec []byte
	put := func() {
		rec = appendRecordBytes(rec[:0], d.boot, es)
		bw.Write(rec)
		es = es[:0]
	}
	for _, r := range regs {
		for off := uintptr(0); off < r.size; off += LineSize {
			// Version first, then content — the capture ordering the
			// replay-guard seeding depends on.
			e := walEntry{r: r, idx: uint32(off >> lineShift), mask: 0xff, ver: m.lineVersion((r.base + off) >> lineShift)}
			p := unsafe.Add(r.ptr, off)
			for s := range e.vals {
				e.vals[s] = (*atomic.Uint64)(unsafe.Add(p, s*8)).Load()
			}
			if es = append(es, e); len(es) == ckptRecordLines {
				put()
			}
		}
	}
	if len(es) > 0 {
		put()
	}
	put() // the seal: an empty record
	err = bw.Flush()
	if err == nil {
		err = cf.Sync()
	}
	if cerr := cf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
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
