package pmem

import (
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// openDurable builds a memory over dir with one registered root region of n
// lines and brings the backend online, returning the memory, a thread, and
// the root lines.
func openDurable(t *testing.T, dir string, mode Mode, n int) (*Memory, *Thread, [][]Cell) {
	t.Helper()
	m := New(Config{Mode: mode, Profile: ProfileZero, Dir: dir})
	sp := m.NewSpace()
	lines := sp.Lines(0, n)
	if _, err := m.RecoverFiles(); err != nil {
		t.Fatalf("RecoverFiles: %v", err)
	}
	return m, m.NewThread(), lines
}

func commitCell(th *Thread, c *Cell, v uint64) {
	th.Store(c, v)
	th.Flush(c)
	th.CommitFence()
}

func TestDurableRoundTrip(t *testing.T) {
	for _, mode := range []Mode{ModeFast, ModeTracked} {
		name := "fast"
		if mode == ModeTracked {
			name = "tracked"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m, th, lines := openDurable(t, dir, mode, 4)
			for i := 0; i < 4; i++ {
				for s := 0; s < CellsPerLine; s++ {
					commitCell(th, &lines[i][s], uint64(i*100+s+1))
				}
			}
			if err := m.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			m2, th2, lines2 := openDurable(t, dir, mode, 4)
			defer m2.Close()
			st := m2.ReplayStats()
			if st.Records == 0 || st.Bytes == 0 {
				t.Fatalf("replay saw no records: %+v", st)
			}
			for i := 0; i < 4; i++ {
				for s := 0; s < CellsPerLine; s++ {
					if got := th2.Load(&lines2[i][s]); got != uint64(i*100+s+1) {
						t.Fatalf("line %d slot %d: got %d want %d", i, s, got, i*100+s+1)
					}
				}
			}
		})
	}
}

// TestDurableLatestWins overwrites one cell repeatedly; recovery must see
// the last committed value, not an earlier record.
func TestDurableLatestWins(t *testing.T) {
	dir := t.TempDir()
	m, th, lines := openDurable(t, dir, ModeFast, 1)
	c := &lines[0][0]
	for v := uint64(1); v <= 100; v++ {
		commitCell(th, c, v)
	}
	m.Close()

	m2, th2, lines2 := openDurable(t, dir, ModeFast, 1)
	defer m2.Close()
	if got := th2.Load(&lines2[0][0]); got != 100 {
		t.Fatalf("got %d want 100", got)
	}
}

// TestDurableUnfencedDropped checks the commit-unit rule: a write that was
// stored (and even flushed) but never fenced must not survive, while the
// fenced write before it must.
func TestDurableUnfencedDropped(t *testing.T) {
	dir := t.TempDir()
	m, th, lines := openDurable(t, dir, ModeFast, 1)
	commitCell(th, &lines[0][0], 7)
	th.Store(&lines[0][0], 999)
	th.Flush(&lines[0][0])
	// No fence: the capture sits in walPend, never appended. Close flushes
	// only appended records.
	m.Close()

	m2, th2, lines2 := openDurable(t, dir, ModeFast, 1)
	defer m2.Close()
	if got := th2.Load(&lines2[0][0]); got != 7 {
		t.Fatalf("got %d want 7 (unfenced write must not survive)", got)
	}
}

// TestDurableRestartVersions crosses three boots, writing a smaller number
// of times each boot, so a naive unscoped version guard would prefer the
// first boot's records. The boot counter must scope versions.
func TestDurableRestartVersions(t *testing.T) {
	writes := []int{50, 3, 1}
	dir := t.TempDir()
	want := uint64(0)
	for b, n := range writes {
		m, th, lines := openDurable(t, dir, ModeFast, 1)
		for i := 0; i < n; i++ {
			want = uint64(b*1000 + i)
			commitCell(th, &lines[0][0], want)
		}
		m.Close()
	}
	m, th, lines := openDurable(t, dir, ModeFast, 1)
	defer m.Close()
	if got := th.Load(&lines[0][0]); got != want {
		t.Fatalf("got %d want %d", got, want)
	}
}

func TestDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	m, th, lines := openDurable(t, dir, ModeFast, 2)
	commitCell(th, &lines[0][0], 11)
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// The old generation must be gone and the new WAL empty of records.
	if _, err := os.Stat(filepath.Join(dir, "wal-1.log")); !os.IsNotExist(err) {
		t.Fatalf("wal-1.log still present after checkpoint")
	}
	commitCell(th, &lines[1][0], 22)
	m.Close()

	m2, th2, lines2 := openDurable(t, dir, ModeFast, 2)
	defer m2.Close()
	st := m2.ReplayStats()
	if st.CheckpointBytes == 0 {
		t.Fatalf("no checkpoint loaded: %+v", st)
	}
	if got := th2.Load(&lines2[0][0]); got != 11 {
		t.Fatalf("checkpointed cell: got %d want 11", got)
	}
	if got := th2.Load(&lines2[1][0]); got != 22 {
		t.Fatalf("post-checkpoint cell: got %d want 22", got)
	}
}

// TestDurableTornTail truncates the WAL at every byte offset of the final
// record (and corrupts every byte of it, too): recovery must always succeed,
// always keep the first committed record, and apply the final record only
// when it is fully intact.
func TestDurableTornTail(t *testing.T) {
	build := func(dir string) {
		m, th, lines := openDurable(t, dir, ModeFast, 1)
		commitCell(th, &lines[0][0], 1) // record A: must always survive
		commitCell(th, &lines[0][0], 2) // record B: the tail under attack
		m.Close()
	}
	base := t.TempDir()
	build(base)
	wal, err := os.ReadFile(filepath.Join(base, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	// Find the start of the final record: magic + one frame.
	frameLen := (len(wal) - len(walMagic)) / 2
	if len(walMagic)+2*frameLen != len(wal) {
		t.Fatalf("unexpected wal layout: %d bytes, frame %d", len(wal), frameLen)
	}
	tailStart := len(wal) - frameLen

	check := func(t *testing.T, dir string, intact, wantTrunc bool) {
		t.Helper()
		m, th, lines := openDurable(t, dir, ModeFast, 1)
		defer m.Close()
		got := th.Load(&lines[0][0])
		if intact && got != 2 {
			t.Fatalf("intact tail: got %d want 2", got)
		}
		if !intact && got != 1 {
			t.Fatalf("damaged tail: got %d want 1", got)
		}
		if m.ReplayStats().Truncated != wantTrunc {
			t.Fatalf("Truncated = %v, want %v", m.ReplayStats().Truncated, wantTrunc)
		}
	}

	for cut := tailStart; cut < len(wal); cut++ {
		dir := t.TempDir()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyDurableDir(t, base, dir)
		if err := os.WriteFile(filepath.Join(dir, "wal-1.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// A cut exactly at the record boundary is a clean EOF, not a tear.
		check(t, dir, false, cut > tailStart)
	}
	for off := tailStart; off < len(wal); off++ {
		dir := t.TempDir()
		copyDurableDir(t, base, dir)
		mut := append([]byte(nil), wal...)
		mut[off] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, "wal-1.log"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		check(t, dir, false, true)
	}
	// Control: the untouched file applies the tail.
	dir := t.TempDir()
	copyDurableDir(t, base, dir)
	check(t, dir, true, false)
}

func copyDurableDir(t *testing.T, from, to string) {
	t.Helper()
	des, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		b, err := os.ReadFile(filepath.Join(from, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableTrackedCrashEviction: in tracked durable mode, a line the
// crash simulation "evicts" (persists unflushed) must reach the file too —
// otherwise the in-memory simulation and a real reopen would disagree.
func TestDurableTrackedCrashEviction(t *testing.T) {
	dir := t.TempDir()
	m, th, lines := openDurable(t, dir, ModeTracked, 1)
	commitCell(th, &lines[0][0], 5)
	th.Store(&lines[0][0], 6) // dirty, unflushed
	m.Crash()
	m.FinishCrash(1.0, 1) // evictProb 1: the dirty line persists
	m.Restart()
	if got := m.PersistedValue(&lines[0][0]); got != 6 {
		t.Fatalf("simulation: persisted value %d want 6", got)
	}
	m.Close()

	m2, th2, lines2 := openDurable(t, dir, ModeTracked, 1)
	defer m2.Close()
	if got := th2.Load(&lines2[0][0]); got != 6 {
		t.Fatalf("file: got %d want 6 (evicted line must be durable)", got)
	}
}

// TestDurableRegisterChecks pins the registration contract panics.
func TestDurableRegisterChecks(t *testing.T) {
	m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: t.TempDir()})
	sp := m.NewSpace()
	lines := sp.Lines(0, 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("dup", func() {
		sp.Register(0, unsafe.Pointer(&lines[0][0]), LineSize)
	})
	mustPanic("overlap", func() {
		sp.Register(9, unsafe.Pointer(&lines[1][0]), LineSize)
	})
	mustPanic("misaligned", func() {
		sp.Register(10, unsafe.Pointer(&lines[0][1]), LineSize)
	})
}

// TestDurableSpaceNoopWithoutDir: structures register unconditionally, so
// the whole Space API must be free of side effects on a plain memory.
func TestDurableSpaceNoopWithoutDir(t *testing.T) {
	m := NewFast(ProfileZero)
	sp := m.NewSpace()
	lines := sp.Lines(0, 1)
	sp.Register(1, unsafe.Pointer(&lines[0][0]), LineSize) // would panic with a backend (dup base)
	sp.Provide(func(uint32) {})
	if m.Durable() {
		t.Fatal("no Dir but Durable() true")
	}
	if _, err := m.RecoverFiles(); err == nil {
		t.Fatal("RecoverFiles without Dir must error")
	}
}

// TestWALAppendAllocs pins the record encoder's steady state: a fence that
// appends a record encodes it into the backend's reused scratch buffer and
// allocates nothing, commit point included.
func TestWALAppendAllocs(t *testing.T) {
	m, th, lines := openDurable(t, t.TempDir(), ModeFast, 4)
	defer m.Close()
	v := uint64(1)
	write := func() {
		for i := range lines {
			v++
			th.Store(&lines[i][i], v)
			th.Store(&lines[i][7], v<<40)
			th.Flush(&lines[i][0])
		}
		th.CommitFence()
	}
	write() // grow the scratch buffer and the pending-entry slice once
	if avg := testing.AllocsPerRun(200, write); avg != 0 {
		t.Fatalf("a four-line commit allocates %.2f times, want 0", avg)
	}
	if st := m.WALStats(); st.Records < 201 {
		t.Fatalf("%d records appended, want one per commit", st.Records)
	}
}
