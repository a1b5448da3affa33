package pmem

// Tests of the clean-line rule of the file backend: a flush of a line whose
// current content the log (or a checkpoint) already holds does no I/O, and
// neither of the two ways that rule could lose data — lines sharing a
// version, and a load that sees a store before the store's version bump —
// does.

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pmem/vfs"
)

// countFS counts what reaches the WAL files under it: bytes written and
// Sync calls. syncDelay, when set, makes every WAL Sync take that long.
type countFS struct {
	vfs.FS
	bytes, syncs atomic.Int64
	syncDelay    time.Duration
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	return c.wrap(name, f), err
}

func (c *countFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(name, f), err
}

func (c *countFS) wrap(name string, f vfs.File) vfs.File {
	if f == nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f
	}
	return &countFile{File: f, fs: c}
}

type countFile struct {
	vfs.File
	fs *countFS
}

func (f *countFile) Write(p []byte) (int, error) {
	f.fs.bytes.Add(int64(len(p)))
	return f.File.Write(p)
}

func (f *countFile) Sync() error {
	f.fs.syncs.Add(1)
	time.Sleep(f.fs.syncDelay)
	return f.File.Sync()
}

// walRec is one line entry of a parsed WAL file (the tests use one region,
// so the tag is not kept).
type walRec struct {
	boot, ver uint64
	idx       uint32
	vals      [CellsPerLine]uint64
}

// parseWAL reads the intact frames of a WAL file from offset off (0 = the
// start, magic included) and returns their entries in log order plus the
// offset just past the last intact frame. A short or bad frame ends the
// parse: the file may be read while it is being appended to.
func parseWAL(t testing.TB, path string, off int64) ([]walRec, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Error(err) // not Fatal: readers parse from their own goroutines
		return nil, off
	}
	defer f.Close()
	b, err := io.ReadAll(io.NewSectionReader(f, off, 1<<40))
	if err != nil {
		t.Error(err)
		return nil, off
	}
	pos := 0
	if off == 0 {
		if len(b) < len(walMagic) || string(b[:len(walMagic)]) != walMagic {
			return nil, 0
		}
		pos = len(walMagic)
	}
	var out []walRec
	var lines []walLine
	for {
		end, ok := frameIntact(b, pos)
		if !ok {
			break
		}
		var boot uint64
		boot, lines, _ = decodeRecord(lines, b[pos+walFrameHeader:end])
		for _, l := range lines {
			out = append(out, walRec{boot: boot, idx: l.idx, ver: l.ver, vals: l.vals})
		}
		pos = end
	}
	return out, off + int64(pos)
}

// replayWinner folds recs into cur the way replay's version guard does: a
// record replaces the image only at a strictly newer (boot, version).
func replayWinner(cur walRec, have bool, recs []walRec, idx uint32) (walRec, bool) {
	for _, r := range recs {
		if r.idx != idx {
			continue
		}
		if have && (cur.boot > r.boot || (cur.boot == r.boot && cur.ver >= r.ver)) {
			continue
		}
		cur, have = r, true
	}
	return cur, have
}

func flushesOf(th *Thread) (issued, elided uint64) {
	th.PublishStats()
	s := th.StatsSnapshot()
	return s.Flushes, s.FlushesElided
}

// TestCleanFlushNoIO: once a line's content is logged, flushing and
// commit-fencing it again writes nothing and syncs nothing, however often;
// a store makes exactly that line dirty, once.
func TestCleanFlushNoIO(t *testing.T) {
	cfs := &countFS{FS: vfs.OS}
	m, th, lines := openDurableFS(t, t.TempDir(), cfs, true, 4)
	defer m.Close()
	for i := range lines {
		commitCell(th, &lines[i][0], uint64(i+1))
	}
	bytes0, syncs0 := cfs.bytes.Load(), cfs.syncs.Load()
	issued0, elided0 := flushesOf(th)

	const rounds = 1000
	for r := 0; r < rounds; r++ {
		for i := range lines {
			th.Load(&lines[i][0])
			th.Flush(&lines[i][CellsPerLine-1]) // any cell of the line
			th.CommitFence()
		}
	}
	if b, s := cfs.bytes.Load()-bytes0, cfs.syncs.Load()-syncs0; b != 0 || s != 0 {
		t.Fatalf("clean flushes cost %d WAL bytes and %d syncs, want 0 and 0", b, s)
	}
	issued, elided := flushesOf(th)
	if issued != issued0 || elided-elided0 != rounds*uint64(len(lines)) {
		t.Fatalf("flushes issued +%d elided +%d, want +0 and +%d", issued-issued0, elided-elided0, rounds*len(lines))
	}

	lines0 := m.WALStats().Lines
	commitCell(th, &lines[0][3], 77)
	for i := range lines {
		th.Flush(&lines[i][0])
	}
	th.CommitFence()
	if got := m.WALStats().Lines - lines0; got != 1 {
		t.Fatalf("one store logged %d lines, want 1", got)
	}
	if s := cfs.syncs.Load() - syncs0; s != 1 {
		t.Fatalf("one store cost %d syncs, want 1", s)
	}
}

// TestCleanFlushTracked: the tracked path skips the log append for a clean
// line too, while the flush still counts and still feeds the crash model.
func TestCleanFlushTracked(t *testing.T) {
	dir := t.TempDir()
	m, th, lines := openDurable(t, dir, ModeTracked, 2)
	commitCell(th, &lines[0][0], 5)
	commitCell(th, &lines[1][0], 6)
	before := m.WALStats()
	issued0, _ := flushesOf(th)
	for r := 0; r < 100; r++ {
		th.Flush(&lines[0][0])
		th.Flush(&lines[1][0])
		th.CommitFence()
	}
	if after := m.WALStats(); after != before {
		t.Fatalf("clean tracked flushes appended: %+v -> %+v", before, after)
	}
	if issued, _ := flushesOf(th); issued-issued0 != 200 {
		t.Fatalf("tracked flushes issued +%d, want +200", issued-issued0)
	}
	commitCell(th, &lines[0][0], 7)
	if got := m.WALStats().Lines - before.Lines; got != 1 {
		t.Fatalf("store logged %d lines, want 1", got)
	}
	m.Close()
	m2, th2, lines2 := openDurable(t, dir, ModeTracked, 2)
	defer m2.Close()
	if a, b := th2.Load(&lines2[0][0]), th2.Load(&lines2[1][0]); a != 7 || b != 6 {
		t.Fatalf("reopen: got %d, %d want 7, 6", a, b)
	}
}

// TestFlushSyncsOnce: committers that queue on the log mutex behind another
// committer's flush+sync find the buffer drained and must not sync again.
func TestFlushSyncsOnce(t *testing.T) {
	// The delay holds the first committer inside Sync long enough for the
	// others to pass the lock-free dirty check and queue on the mutex,
	// which is the case under test; if they are late they return on the
	// lock-free check and the count is one either way.
	cfs := &countFS{FS: vfs.OS, syncDelay: 50 * time.Millisecond}
	m, th, lines := openDurableFS(t, t.TempDir(), cfs, true, 1)
	defer m.Close()
	const committers = 8
	ths := make([]*Thread, committers)
	for i := range ths {
		ths[i] = m.NewThread()
	}
	th.Store(&lines[0][0], 1)
	th.Flush(&lines[0][0])
	th.Fence() // one record appended, nothing drained yet
	syncs0 := cfs.syncs.Load()

	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, c := range ths {
		wg.Add(1)
		go func(c *Thread) {
			defer wg.Done()
			<-start
			c.DurableSync()
		}(c)
	}
	close(start)
	wg.Wait()
	if got := cfs.syncs.Load() - syncs0; got != 1 {
		t.Fatalf("%d commit points over one record synced %d times, want 1", committers, got)
	}
}

// TestCleanLineOwnVersion: two registered lines of one region, written in
// every order. A changed line is always captured, and an unchanged one never
// is: each line's version is its own, so neither vouches for, nor dirties,
// the other.
func TestCleanLineOwnVersion(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Memory, *Thread, [][]Cell) {
		m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir})
		lines := m.NewSpace().Lines(0, 2)
		if _, err := m.RecoverFiles(); err != nil {
			t.Fatal(err)
		}
		return m, m.NewThread(), lines
	}
	m, th, lines := open()
	const a, b = 0, 1
	ca, cb := &lines[a][0], &lines[b][0]

	logged := func() uint64 { return m.WALStats().Lines }
	for i := uint64(1); i <= 50; i++ {
		// Alternate plain commits: each is one changed line, one capture.
		l0 := logged()
		commitCell(th, ca, i)
		commitCell(th, cb, i+1000)
		if got := logged() - l0; got != 2 {
			t.Fatalf("round %d: alternating commits logged %d lines, want 2", i, got)
		}
		// A changes, then B changes and is logged. A's flush must still
		// capture — a version shared with B would call it clean here.
		th.Store(ca, i+2000)
		commitCell(th, cb, i+3000)
		l0 = logged()
		th.Flush(ca)
		th.CommitFence()
		if got := logged() - l0; got != 1 {
			t.Fatalf("round %d: flush of changed line A logged %d lines, want 1", i, got)
		}
		// And the converse: A changes, B does not. B's flush must not
		// capture — a version shared with A would call it dirty here.
		commitCell(th, ca, i+2000)
		l0 = logged()
		th.Flush(cb)
		th.CommitFence()
		if got := logged() - l0; got != 0 {
			t.Fatalf("round %d: flush of unchanged line B logged %d lines, want 0", i, got)
		}
	}
	// The kill: no Close, recovery sees what the commit points left.
	m2, th2, lines2 := open()
	defer m2.Close()
	if ga, gb := th2.Load(&lines2[a][0]), th2.Load(&lines2[b][0]); ga != 2050 || gb != 3050 {
		t.Fatalf("reopen: A=%d B=%d, want 2050 and 3050", ga, gb)
	}
}

// parkWriter arms m's write-window hook to park the next write between its
// cell store and its version bump. entered is closed when the writer is
// parked; closing release lets it finish. Call while m is quiescent.
func parkWriter(m *Memory) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	m.durable.writeWindow = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}
	return entered, release
}

// TestReadDurableInStoreWindow parks a writer inside the store-then-bump
// window — new value visible, version still the logged one — and lets a
// reader load, flush, commit and "reply". The value it read must then be in
// the file. Both elisions are exercised: the clean-line check (the line's
// logged version equals its write version) and the pending-set check (the
// reader already captured the line at that version in this fence window).
// In both the test first shows that the version alone calls the line
// unchanged, i.e. that without the in-flight check the reader would have
// elided.
func TestReadDurableInStoreWindow(t *testing.T) {
	for _, pending := range []bool{false, true} {
		name := "clean-line"
		if pending {
			name = "pending-set"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m, w, lines := openDurable(t, dir, ModeFast, 1)
			defer m.Close()
			r := m.NewThread()
			c := &lines[0][0]
			reg := m.durable.lookup(uintptr(lineOf(c)) << lineShift)
			sl := &reg.lines[0]

			commitCell(w, c, 1)
			if pending {
				w.Store(c, 5)
				r.Flush(c) // the reader's capture, pending until its fence
			}
			ver := sl.v.Load()

			entered, release := parkWriter(m)
			done := make(chan struct{})
			go func() {
				defer close(done)
				commitCell(w, c, 9)
			}()
			<-entered

			if got := r.Load(c); got != 9 {
				t.Fatalf("reader loaded %d, want the in-flight 9", got)
			}
			// The window is open: by the version alone nothing has changed
			// since the capture both elisions would rely on.
			if sl.v.Load() != ver {
				t.Fatalf("version moved to %d inside the window, want %d", sl.v.Load(), ver)
			}
			if !pending && !reg.clean(0, ver) {
				t.Fatal("line not clean at the pre-store version: the window is not the one under test")
			}
			_, elided0 := flushesOf(r)
			r.Flush(c)
			r.CommitFence()
			if _, elided := flushesOf(r); elided != elided0 {
				t.Fatal("reader elided its flush while a write to the line was in flight")
			}
			// The reader may reply now; the file must hold what it read.
			recs, _ := parseWAL(t, filepath.Join(dir, "wal-1.log"), 0)
			win, ok := replayWinner(walRec{}, false, recs, 0)
			if !ok || win.vals[0] != 9 {
				t.Fatalf("replay would restore %d (found=%v), reader replied 9", win.vals[0], ok)
			}
			close(release)
			<-done
		})
	}
}

// TestReadDurableRacingWriter is the same property under a real race: one
// writer commits increasing values into one line while readers load, flush,
// commit and then look in the file for a value at least as new as the one
// they read. (The deterministic version is TestReadDurableInStoreWindow;
// this one is here for -race and for interleavings nobody scripted.)
func TestReadDurableRacingWriter(t *testing.T) {
	dir := t.TempDir()
	m, w, lines := openDurable(t, dir, ModeFast, 1)
	defer m.Close()
	c := &lines[0][0]
	commitCell(w, c, 1)

	const readers, reads = 3, 150
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(2); !stop.Load(); v++ {
			commitCell(w, c, v)
		}
	}()
	path := filepath.Join(dir, "wal-1.log")
	var rg sync.WaitGroup
	for i := 0; i < readers; i++ {
		r := m.NewThread()
		rg.Add(1)
		go func() {
			defer rg.Done()
			var win walRec
			var have bool
			var off int64
			for n := 0; n < reads; n++ {
				v := r.Load(c)
				r.Flush(c)
				r.CommitFence()
				var recs []walRec
				recs, off = parseWAL(t, path, off)
				win, have = replayWinner(win, have, recs, 0)
				if !have || win.vals[0] < v {
					t.Errorf("read %d, but replay of the file would restore %d", v, win.vals[0])
					return
				}
			}
		}()
	}
	rg.Wait()
	stop.Store(true)
	wg.Wait()
}

// TestCleanAcrossCheckpointAndRestart: lines logged before a checkpoint
// stay clean after it (the snapshot covers them) while another thread keeps
// committing, and after a kill and recovery every line is clean at once —
// reading the store back does not re-log it.
func TestCleanAcrossCheckpointAndRestart(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	m, th, lines := openDurable(t, dir, ModeFast, n)
	for i := 1; i < n; i++ {
		commitCell(th, &lines[i][0], uint64(100+i))
	}
	w := m.NewThread()
	var stop atomic.Bool
	var last atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := uint64(1); !stop.Load(); v++ {
			commitCell(w, &lines[0][0], v)
			last.Store(v)
		}
	}()
	issued0, _ := flushesOf(th)
	for round := 0; round < 20; round++ {
		if err := m.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
		for i := 1; i < n; i++ {
			th.Flush(&lines[i][0])
		}
		th.CommitFence()
	}
	stop.Store(true)
	wg.Wait()
	if issued, _ := flushesOf(th); issued != issued0 {
		t.Fatalf("%d flushes of checkpointed, unchanged lines were not elided", issued-issued0)
	}

	// The kill: m is abandoned without Close.
	cfs := &countFS{FS: vfs.OS}
	m2, th2, lines2 := openDurableFS(t, dir, cfs, true, n)
	defer m2.Close()
	bytes0, syncs0 := cfs.bytes.Load(), cfs.syncs.Load()
	for r := 0; r < 100; r++ {
		for i := 0; i < n; i++ {
			th2.Load(&lines2[i][0])
			th2.Flush(&lines2[i][0])
			th2.CommitFence()
		}
	}
	if b, s := cfs.bytes.Load()-bytes0, cfs.syncs.Load()-syncs0; b != 0 || s != 0 {
		t.Fatalf("reading a recovered store cost %d WAL bytes and %d syncs, want 0 and 0", b, s)
	}
	if got := th2.Load(&lines2[0][0]); got != last.Load() {
		t.Fatalf("line 0: got %d want %d", got, last.Load())
	}
	for i := 1; i < n; i++ {
		if got := th2.Load(&lines2[i][0]); got != uint64(100+i) {
			t.Fatalf("line %d: got %d want %d", i, got, 100+i)
		}
	}
}
