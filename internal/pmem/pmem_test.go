package pmem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRefTagging(t *testing.T) {
	r := MakeRef(42)
	if RefIndex(r) != 42 {
		t.Fatalf("RefIndex(MakeRef(42)) = %d", RefIndex(r))
	}
	if Marked(r) || Tagged(r) || IsNil(r) {
		t.Fatalf("fresh ref has unexpected bits: %x", r)
	}
	m := WithMark(r)
	if !Marked(m) || RefIndex(m) != 42 {
		t.Fatalf("WithMark broken: %x", m)
	}
	if Marked(ClearMark(m)) {
		t.Fatalf("ClearMark broken")
	}
	g := WithTag(m)
	if !Tagged(g) || !Marked(g) || RefIndex(g) != 42 {
		t.Fatalf("WithTag broken: %x", g)
	}
	p := g | PersistBit
	if RefIndex(p) != 42 {
		t.Fatalf("persist bit leaks into index: %d", RefIndex(p))
	}
	if ClearTags(p) != MakeRef(42) {
		t.Fatalf("ClearTags broken: %x", ClearTags(p))
	}
	if Dirty(p)&PersistBit != 0 {
		t.Fatalf("Dirty keeps persist bit")
	}
	if !SameNode(p, r) || SameNode(r, MakeRef(43)) {
		t.Fatalf("SameNode broken")
	}
	if !IsNil(NilRef) || !IsNil(WithMark(NilRef)) {
		t.Fatalf("IsNil broken")
	}
}

func TestRefRoundTripQuick(t *testing.T) {
	f := func(idx uint64, mark, tag, persisted bool) bool {
		idx &= (1 << 60) - 1 // stay inside the index space
		r := MakeRef(idx)
		if mark {
			r = WithMark(r)
		}
		if tag {
			r = WithTag(r)
		}
		if persisted {
			r |= PersistBit
		}
		return RefIndex(r) == idx && Marked(r) == mark && Tagged(r) == tag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFastModeBasics(t *testing.T) {
	m := NewFast(ProfileZero)
	th := m.NewThread()
	var c Cell
	if v := th.Load(&c); v != 0 {
		t.Fatalf("zero cell = %d", v)
	}
	th.Store(&c, 7)
	if v := th.Load(&c); v != 7 {
		t.Fatalf("store/load = %d", v)
	}
	if !th.CAS(&c, 7, 9) {
		t.Fatalf("CAS(7,9) failed")
	}
	if th.CAS(&c, 7, 11) {
		t.Fatalf("CAS with stale expected succeeded")
	}
	th.Flush(&c)
	th.Fence()
	th.PublishStats()
	s := m.Stats()
	if s.Reads != 2 || s.Writes != 1 || s.CASes != 2 || s.CASFail != 1 ||
		s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestStatsPerThreadAndReset(t *testing.T) {
	m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: t.TempDir(), SyncFence: true})
	line := m.NewSpace().Lines(0, 1)
	if _, err := m.RecoverFiles(); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a, b := m.NewThread(), m.NewThread()
	var c Cell
	a.Flush(&c)
	a.Fence()
	b.Flush(&c)
	a.PublishStats()
	b.PublishStats()
	if a.StatsSnapshot().Flushes != 1 || b.StatsSnapshot().Flushes != 1 {
		t.Fatalf("per-thread stats wrong")
	}
	if m.Stats().Flushes != 2 {
		t.Fatalf("aggregate stats wrong: %+v", m.Stats())
	}
	// The WAL counters are the memory's: one committed write adds a record
	// and a commit-point fsync to what opening the log cost.
	before := m.WALStats()
	commitCell(a, &line[0][0], 1)
	w := m.WALStats()
	if w.Records != before.Records+1 || w.Syncs != before.Syncs+1 {
		t.Fatalf("a commit moved the WAL counters %+v -> %+v, want one record and one fsync", before, w)
	}
	if s := m.Stats(); s.WALRecords != w.Records || s.WALBytes != w.Bytes || s.WALSyncs != w.Syncs {
		t.Fatalf("Stats %+v does not carry WALStats %+v", s, w)
	}
	m.ResetStats()
	if m.Stats() != (Stats{}) || m.WALStats() != (WALStats{}) {
		t.Fatalf("reset failed: %+v %+v", m.Stats(), m.WALStats())
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Flushes: 5, Fences: 3, Ops: 2}
	b := Stats{Reads: 4, Flushes: 1, Fences: 1, Ops: 1}
	d := a.Sub(b)
	if d.Reads != 6 || d.Flushes != 4 || d.Fences != 2 || d.Ops != 1 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestThreadIDsDense(t *testing.T) {
	m := NewFast(ProfileZero)
	for i := 0; i < 5; i++ {
		if th := m.NewThread(); th.ID != i {
			t.Fatalf("thread %d got ID %d", i, th.ID)
		}
	}
	if len(m.Threads()) != 5 {
		t.Fatalf("Threads() = %d", len(m.Threads()))
	}
}

func TestThreadLimit(t *testing.T) {
	m := New(Config{Mode: ModeFast, Profile: ProfileZero, MaxThreads: 1})
	m.NewThread()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on thread limit")
		}
	}()
	m.NewThread()
}

func TestRandDistinctPerThread(t *testing.T) {
	m := NewFast(ProfileZero)
	a, b := m.NewThread(), m.NewThread()
	if a.Rand() == b.Rand() {
		t.Fatalf("thread RNGs collide on first draw")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[a.Rand()] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("rng repeats within 1000 draws: %d distinct", len(seen))
	}
}

// --- tracked mode ---

func TestTrackedCrashRollsBackUnflushed(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	th.Store(&c, 1)
	th.Flush(&c)
	th.Fence() // 1 is persistent
	th.Store(&c, 2)
	// 2 was never flushed+fenced.
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if v := th.Load(&c); v != 1 {
		t.Fatalf("after crash: %d, want 1", v)
	}
}

func TestTrackedFlushWithoutFenceIsNotPersistent(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	th.Store(&c, 1)
	th.Flush(&c) // no fence
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if v := th.Load(&c); v != 0 {
		t.Fatalf("flush without fence persisted: %d", v)
	}
}

func TestTrackedFencePersistsFlushTimeValue(t *testing.T) {
	// clwb semantics: the fence persists the value the line held at flush
	// time, not the value at fence time.
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	th.Store(&c, 1)
	th.Flush(&c)
	th.Store(&c, 2) // after the flush
	th.Fence()
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if v := th.Load(&c); v != 1 {
		t.Fatalf("after crash: %d, want flush-time value 1", v)
	}
}

func TestTrackedCASBaseline(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	th.Store(&c, 5)
	th.Flush(&c)
	th.Fence()
	if !th.CAS(&c, 5, 6) {
		t.Fatal("CAS failed")
	}
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if v := th.Load(&c); v != 5 {
		t.Fatalf("CAS rolled back to %d, want 5", v)
	}
}

func TestTrackedFailedCASLeavesClean(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	th.Store(&c, 5)
	th.Flush(&c)
	th.Fence()
	if m.DirtyCells() != 0 {
		t.Fatalf("dirty after persist: %d", m.DirtyCells())
	}
	if th.CAS(&c, 4, 6) {
		t.Fatal("CAS with wrong expected succeeded")
	}
	if m.DirtyCells() != 0 {
		t.Fatalf("failed CAS dirtied cell: %d", m.DirtyCells())
	}
}

func TestTrackedEvictionPersistsVolatile(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	th.Store(&c, 3) // dirty, never flushed
	m.Crash()
	m.FinishCrash(1.0, 42) // everything evicts
	m.Restart()
	if v := th.Load(&c); v != 3 {
		t.Fatalf("eviction lost the volatile value: %d", v)
	}
}

func TestPersistAllBaselines(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	th.Store(&c, 9)
	m.PersistAll()
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if v := th.Load(&c); v != 9 {
		t.Fatalf("PersistAll did not baseline: %d", v)
	}
}

func TestPersistedValueHook(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	th.Store(&c, 1)
	th.Flush(&c)
	th.Fence()
	th.Store(&c, 2)
	if got := m.PersistedValue(&c); got != 1 {
		t.Fatalf("PersistedValue = %d, want 1", got)
	}
	if got := th.Load(&c); got != 2 {
		t.Fatalf("volatile = %d, want 2", got)
	}
}

func TestCrashPanicsAccessors(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	var c Cell
	m.Crash()
	crashed := RunOp(func() { th.Load(&c) })
	if !crashed {
		t.Fatalf("Load during crash did not raise the sentinel")
	}
	crashed = RunOp(func() { th.Store(&c, 1) })
	if !crashed {
		t.Fatalf("Store during crash did not raise the sentinel")
	}
	m.FinishCrash(0, 1)
	m.Restart()
	if crashed := RunOp(func() { th.Store(&c, 1) }); crashed {
		t.Fatalf("Store after restart raised the sentinel")
	}
}

func TestRunOpPassesThroughOtherPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("RunOp swallowed a non-crash panic: %v", r)
		}
	}()
	RunOp(func() { panic("boom") })
}

// Property: with no eviction, the value surviving a crash is always exactly
// the last value that was flushed-then-fenced (or the initial value).
func TestQuickPersistedIsLastFenced(t *testing.T) {
	type step struct {
		Val   uint64
		Flush bool
		Fence bool
	}
	f := func(steps []step) bool {
		m := NewTracked()
		th := m.NewThread()
		var c Cell
		want := uint64(0)
		var flushed *uint64
		for _, s := range steps {
			th.Store(&c, s.Val)
			if s.Flush {
				v := s.Val
				flushed = &v
				th.Flush(&c)
			}
			if s.Fence {
				th.Fence()
				if flushed != nil {
					want = *flushed
					flushed = nil
				}
			}
		}
		m.Crash()
		m.FinishCrash(0, 1)
		m.Restart()
		return th.Load(&c) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackedConcurrentStores(t *testing.T) {
	// Concurrent tracked stores must not race (the model serializes them)
	// and a crash must roll back to the persisted baseline.
	m := NewTracked()
	var c Cell
	th0 := m.NewThread()
	th0.Store(&c, 100)
	m.PersistAll()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		th := m.NewThread()
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				RunOp(func() { th.Store(&c, th.Rand()) })
			}
		}(th)
	}
	wg.Wait()
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if v := th0.Load(&c); v != 100 {
		t.Fatalf("rollback to %d, want 100", v)
	}
}

func TestSpinZeroIsFast(t *testing.T) {
	spin(0) // must not hang or panic
	spin(10)
}

func TestModeAccessors(t *testing.T) {
	m := NewFast(ProfileNVRAM)
	if m.Mode() != ModeFast || m.Tracked() {
		t.Fatalf("fast memory misreports mode")
	}
	if m.Profile().Name != "nvram" {
		t.Fatalf("profile = %q", m.Profile().Name)
	}
	tm := NewTracked()
	if tm.Mode() != ModeTracked || !tm.Tracked() {
		t.Fatalf("tracked memory misreports mode")
	}
	if m.MaxThreads() != DefaultMaxThreads {
		t.Fatalf("default max threads = %d", m.MaxThreads())
	}
}

// TestStaleFenceCannotRegressPersistence is the regression test for a
// subtle simulation bug: thread A flushes (capturing value v1), thread B
// then writes v2, flushes and fences (v2 persistent), and finally A's
// stale fence lands. Real hardware cannot un-persist v2 with A's older
// writeback; the model's per-cell write versions must agree.
func TestStaleFenceCannotRegressPersistence(t *testing.T) {
	m := NewTracked()
	a, b := m.NewThread(), m.NewThread()
	var c Cell
	a.Store(&c, 1)
	a.Flush(&c) // A captures v=1
	b.Store(&c, 2)
	b.Flush(&c)
	b.Fence() // v=2 is persistent
	a.Fence() // stale: must NOT regress to v=1
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if v := a.Load(&c); v != 2 {
		t.Fatalf("stale fence regressed persistence: %d, want 2", v)
	}
}

func TestDirtyCellsCountsOnlyUnpersisted(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	// Distinct lines: persistence is line-granular, so the two cells must
	// not share one (adjacent local variables often would).
	lines := AllocLines(2)
	a, b := &lines[0][0], &lines[1][0]
	th.Store(a, 1)
	th.Store(b, 2)
	if m.DirtyCells() != 2 {
		t.Fatalf("dirty = %d, want 2", m.DirtyCells())
	}
	if m.DirtyLines() != 2 {
		t.Fatalf("dirty lines = %d, want 2", m.DirtyLines())
	}
	th.Flush(a)
	th.Fence()
	if m.DirtyCells() != 1 {
		t.Fatalf("dirty after persisting one = %d, want 1", m.DirtyCells())
	}
	if m.DirtyLines() != 1 {
		t.Fatalf("dirty lines after persisting one = %d, want 1", m.DirtyLines())
	}
}

// --- line granularity ---

func TestAllocLinesPlacement(t *testing.T) {
	lines := AllocLines(3)
	if len(lines) != 3 {
		t.Fatalf("AllocLines(3) = %d groups", len(lines))
	}
	for i, ln := range lines {
		if len(ln) != CellsPerLine {
			t.Fatalf("group %d has %d cells", i, len(ln))
		}
		for j := 1; j < len(ln); j++ {
			if !SameLine(&ln[0], &ln[j]) {
				t.Fatalf("group %d: cells 0 and %d on different lines", i, j)
			}
		}
	}
	if SameLine(&lines[0][0], &lines[1][0]) || SameLine(&lines[1][7], &lines[2][0]) {
		t.Fatalf("distinct groups share a line")
	}
}

func TestLineFlushPersistsWholeLine(t *testing.T) {
	// clwb semantics: flushing any cell of a line writes back the whole
	// line, so a sibling cell's unflushed write persists with it.
	m := NewTracked()
	th := m.NewThread()
	ln := AllocLines(1)[0]
	a, b := &ln[0], &ln[1]
	th.Store(a, 1)
	th.Store(b, 2)
	th.Flush(a) // never mentions b
	th.Fence()
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if got := th.Load(b); got != 2 {
		t.Fatalf("sibling cell did not persist with its line: %d, want 2", got)
	}
}

func TestLineCrashIsAtomic(t *testing.T) {
	// A dirty line rolls back as a unit: no crash state splits a line.
	m := NewTracked()
	th := m.NewThread()
	ln := AllocLines(1)[0]
	a, b := &ln[0], &ln[1]
	th.Store(a, 1)
	th.Store(b, 2)
	th.Flush(a)
	th.Fence() // line image {a:1, b:2} persistent
	th.Store(a, 10)
	th.Store(b, 20) // dirty on top
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	av, bv := th.Load(a), th.Load(b)
	if av != 1 || bv != 2 {
		t.Fatalf("line split in crash: a=%d b=%d, want 1 2", av, bv)
	}
}

func TestLineEvictionIsAtomic(t *testing.T) {
	// Eviction keeps a whole line's volatile content, never a subset.
	m := NewTracked()
	th := m.NewThread()
	ln := AllocLines(1)[0]
	a, b := &ln[0], &ln[1]
	th.Store(a, 10)
	th.Store(b, 20) // dirty, never flushed
	m.Crash()
	m.FinishCrash(1.0, 42) // every dirty line evicts
	m.Restart()
	if th.Load(a) != 10 || th.Load(b) != 20 {
		t.Fatalf("evicted line lost cells: a=%d b=%d", th.Load(a), th.Load(b))
	}
}

func TestFlushCoalescing(t *testing.T) {
	// Repeat flushes of an unchanged line coalesce; a write un-coalesces;
	// distinct lines never coalesce, however many one fence window holds.
	// A same-value store is the one difference between the modes: tracked
	// mode versions every write, while a fast-mode line with no write
	// version compares content, and the content did not change.
	for _, tc := range []struct {
		mk              func() *Memory
		sameValueElides bool
	}{
		{NewTracked, false},
		{func() *Memory { return NewFast(ProfileZero) }, true},
	} {
		m := tc.mk()
		th := m.NewThread()
		ln := AllocLines(1)[0]
		a, b := &ln[0], &ln[1]
		th.Store(a, 1)
		th.Flush(a)
		th.Flush(a) // same line, unchanged: elided
		th.Flush(b) // same line via sibling: elided
		th.PublishStats()
		s := m.Stats()
		if s.Flushes != 1 || s.FlushesElided != 2 {
			t.Fatalf("mode %v: flushes=%d elided=%d, want 1/2", m.Mode(), s.Flushes, s.FlushesElided)
		}
		th.Store(b, 2) // writes the line: next flush must re-issue
		th.Flush(a)
		th.PublishStats()
		s = m.Stats()
		if s.Flushes != 2 {
			t.Fatalf("mode %v: flush after write elided: %+v", m.Mode(), s)
		}
		th.Fence() // fence closes the window
		th.Flush(a)
		th.PublishStats()
		s = m.Stats()
		if s.Flushes != 3 {
			t.Fatalf("mode %v: flush after fence elided: %+v", m.Mode(), s)
		}
		th.Store(b, 2) // same value
		th.Flush(a)
		th.PublishStats()
		want := uint64(4)
		if tc.sameValueElides {
			want = 3
		}
		if s = m.Stats(); s.Flushes != want {
			t.Fatalf("mode %v: flush after same-value store: flushes=%d, want %d", m.Mode(), s.Flushes, want)
		}

		th.Fence()
		m.ResetStats()
		const n = 1 << 15
		for _, l := range AllocLines(n) {
			th.Flush(&l[0])
		}
		th.PublishStats()
		if s = m.Stats(); s.Flushes != n || s.FlushesElided != 0 {
			t.Fatalf("mode %v: %d fresh lines in one window: flushes=%d elided=%d, want %d/0",
				m.Mode(), n, s.Flushes, s.FlushesElided, n)
		}
		// The large window's table outlives its fence, but not the next
		// small window.
		th.Fence()
		th.Flush(a)
		th.Fence()
		if got := len(th.lines.slots); got > lineSetKeepSlots {
			t.Fatalf("mode %v: %d pending-set slots kept after a one-line window, want at most %d",
				m.Mode(), got, lineSetKeepSlots)
		}
	}
}

func TestCoalescedFlushStillDurable(t *testing.T) {
	// An elided flush must lose nothing: the pending capture it coalesced
	// into persists the same content at the next fence.
	m := NewTracked()
	th := m.NewThread()
	ln := AllocLines(1)[0]
	a, b := &ln[0], &ln[1]
	th.Store(a, 7)
	th.Store(b, 8)
	th.Flush(a)
	th.Flush(b) // elided: same line, same version
	th.Fence()
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if th.Load(a) != 7 || th.Load(b) != 8 {
		t.Fatalf("coalesced flush lost data: a=%d b=%d", th.Load(a), th.Load(b))
	}
}

func TestCrashAtFence(t *testing.T) {
	m := NewTracked()
	th := m.NewThread()
	ln := AllocLines(2)
	a, b := &ln[0][0], &ln[1][0]
	m.CrashAtFence(2)
	th.Store(a, 1)
	th.Flush(a)
	th.Fence() // fence #1: runs
	crashed := RunOp(func() {
		th.Store(b, 2)
		th.Flush(b)
		th.Fence() // fence #2: trapped, never persists
	})
	if !crashed {
		t.Fatalf("fence trap did not fire")
	}
	m.FinishCrash(0, 1)
	m.Restart()
	if th.Load(a) != 1 {
		t.Fatalf("fence #1 did not persist: a=%d", th.Load(a))
	}
	if th.Load(b) != 0 {
		t.Fatalf("trapped fence persisted: b=%d", th.Load(b))
	}
	// Trap is disarmed: fences run normally again.
	th.Store(b, 3)
	th.Flush(b)
	th.Fence()
	if m.PersistedValue(b) != 3 {
		t.Fatalf("fence after disarm did not persist")
	}
}

// BenchmarkFlush prices one Store, Flush and Fence under the zero profile,
// i.e. the bookkeeping of the persistence instructions alone: on a plain
// fast line, whose flush mixes the line's content, and on a registered
// line of a file-backed memory, whose flush checks the line's write
// version and captures it for the log (one record a fence, appended to the
// log's buffer). Both allocate nothing.
func BenchmarkFlush(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		m := NewFast(ProfileZero)
		benchStoreFlushFence(b, m.NewThread(), &AllocLines(1)[0][0])
	})
	b.Run("registered", func(b *testing.B) {
		m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: b.TempDir()})
		lines := m.NewSpace().Lines(0, 1)
		if _, err := m.RecoverFiles(); err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		benchStoreFlushFence(b, m.NewThread(), &lines[0][0])
	})
}

func benchStoreFlushFence(b *testing.B, th *Thread, c *Cell) {
	b.ReportAllocs()
	th.Store(c, 1) // the first fence window sizes the pending set
	th.Flush(c)
	th.Fence()
	for v := uint64(2); b.Loop(); v++ {
		th.Store(c, v)
		th.Flush(c)
		th.Fence()
	}
}
