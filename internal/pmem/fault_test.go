package pmem

// Disk-fault injection tests for the durable backend: the vfs/errfs seam
// misbehaves under it — fsync failures, ENOSPC, torn renames, checkpoint
// faults, mid-log corruption — and the backend must hold the fail-stop
// contract: the first write/fsync failure latches permanent damage, no
// later write is ever trusted, and a clean reopen recovers exactly the
// acknowledged history.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/pmem/vfs"
)

// openDurableFS is openDurable with an injected FS and SyncFence control.
func openDurableFS(t *testing.T, dir string, fs vfs.FS, syncFence bool, n int) (*Memory, *Thread, [][]Cell) {
	t.Helper()
	m := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir, SyncFence: syncFence, FS: fs})
	sp := m.NewSpace()
	lines := sp.Lines(0, n)
	if _, err := m.RecoverFiles(); err != nil {
		t.Fatalf("RecoverFiles: %v", err)
	}
	return m, m.NewThread(), lines
}

func mustErrFS(t *testing.T, schedule string) *vfs.ErrFS {
	t.Helper()
	efs, err := vfs.NewErrFS(vfs.OS, schedule, 1)
	if err != nil {
		t.Fatalf("NewErrFS(%q): %v", schedule, err)
	}
	return efs
}

// TestFaultStickyFsync is the fsyncgate test: the first failed fsync at a
// commit fence latches the backend damaged forever — no retry-and-trust —
// and a clean reopen recovers every commit acknowledged before the latch
// while writes issued after it never resurface.
func TestFaultStickyFsync(t *testing.T) {
	dir := t.TempDir()
	efs := mustErrFS(t, "sync~wal@5=eio")
	m, th, lines := openDurableFS(t, dir, efs, true, 10)

	acked, failed := -1, -1
	for i := 0; i < 8; i++ {
		commitCell(th, &lines[i][0], uint64(100+i))
		if th.DurableErr() != nil {
			failed = i
			break
		}
		acked = i
	}
	if failed < 0 {
		t.Fatalf("schedule never fired (acked through %d, injected %v)", acked, efs.Injected())
	}
	if !errors.Is(m.DurableErr(), syscall.EIO) {
		t.Fatalf("DurableErr = %v, want wrapped EIO", m.DurableErr())
	}
	first := m.DurableErr().Error()

	// Sticky: later commits neither clear nor replace the latch, and their
	// appends are dropped rather than written to a disk we cannot trust.
	commitCell(th, &lines[9][0], 999)
	if got := m.DurableErr(); got == nil || got.Error() != first {
		t.Fatalf("damage latch moved: %v -> %v", first, got)
	}
	if err := m.Checkpoint(); err == nil {
		t.Fatal("Checkpoint on a damaged backend succeeded")
	}
	if err := m.Close(); err == nil {
		t.Fatal("Close on a damaged backend returned nil")
	}

	// Clean reopen: replied ⇒ durable must hold for every acked commit.
	m2, th2, lines2 := openDurable(t, dir, ModeFast, 10)
	defer m2.Close()
	for i := 0; i <= acked; i++ {
		if got := th2.Load(&lines2[i][0]); got != uint64(100+i) {
			t.Fatalf("acked commit %d lost: got %d want %d", i, got, 100+i)
		}
	}
	if got := th2.Load(&lines2[9][0]); got == 999 {
		t.Fatal("write issued after the damage latch resurfaced on recovery")
	}
}

// TestFaultENOSPCWrite fills the disk mid-append: the WAL flush error
// latches and a clean reopen shows exactly the acknowledged prefix.
func TestFaultENOSPCWrite(t *testing.T) {
	dir := t.TempDir()
	efs := mustErrFS(t, "write~wal@b8192=enospc")
	m, th, lines := openDurableFS(t, dir, efs, false, 1)
	c := &lines[0][0]

	var acked, failedAt uint64
	for v := uint64(1); v <= 4096; v++ {
		commitCell(th, c, v)
		if th.DurableErr() != nil {
			failedAt = v
			break
		}
		acked = v
	}
	if failedAt == 0 {
		t.Fatal("ENOSPC never fired")
	}
	if !errors.Is(m.DurableErr(), syscall.ENOSPC) {
		t.Fatalf("DurableErr = %v, want wrapped ENOSPC", m.DurableErr())
	}
	// The disk stays full: the byte trigger latches on, so even a retry
	// that somehow bypassed the damage latch would fail again.
	if err := m.Close(); err == nil {
		t.Fatal("Close on a damaged backend returned nil")
	}

	m2, th2, lines2 := openDurable(t, dir, ModeFast, 1)
	defer m2.Close()
	if got := th2.Load(&lines2[0][0]); got != acked {
		t.Fatalf("recovered %d, want last acked value %d (failed at %d)", got, acked, failedAt)
	}
}

// TestFaultCheckpointMatrix drives Checkpoint into every pre-commit-point
// failure: the tmp dump write, its fsync, the tmp→snap rename (torn), and
// the CURRENT flip. Each must fail the checkpoint WITHOUT latching damage
// — the old generation stays fully live — and a clean reopen must recover
// every acknowledged commit, including ones made after the failed attempt.
func TestFaultCheckpointMatrix(t *testing.T) {
	cases := []struct{ name, schedule string }{
		{"tmp-write-eio", "write~snap.tmp@1=eio"},
		{"tmp-sync-eio", "sync~snap.tmp@1=eio"},
		{"rename-torn", "rename~snap.tmp@1=torn"},
		// CURRENT is also written once at first open; @2 is the flip.
		{"current-write-eio", "writefile~CURRENT@2=eio"},
		{"current-rename-eio", "rename~CURRENT@2=eio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			efs := mustErrFS(t, tc.schedule)
			m, th, lines := openDurableFS(t, dir, efs, false, 4)
			for i := 0; i < 4; i++ {
				commitCell(th, &lines[i][0], uint64(10+i))
			}
			if err := m.Checkpoint(); err == nil {
				t.Fatalf("Checkpoint succeeded despite %q (injected %v)", tc.schedule, efs.Injected())
			}
			if efs.InjectedCount() == 0 {
				t.Fatalf("schedule %q never fired", tc.schedule)
			}
			if err := m.DurableErr(); err != nil {
				t.Fatalf("pre-flip checkpoint failure latched damage: %v", err)
			}
			// Old generation still live: commits keep landing.
			commitCell(th, &lines[0][0], 99)
			if err := m.Close(); err != nil {
				t.Fatalf("Close after failed checkpoint: %v", err)
			}

			m2, th2, lines2 := openDurable(t, dir, ModeFast, 4)
			defer m2.Close()
			if got := th2.Load(&lines2[0][0]); got != 99 {
				t.Fatalf("post-failure commit lost: got %d want 99", got)
			}
			for i := 1; i < 4; i++ {
				if got := th2.Load(&lines2[i][0]); got != uint64(10+i) {
					t.Fatalf("commit %d lost across failed checkpoint: got %d want %d", i, got, 10+i)
				}
			}
		})
	}
}

// TestFaultMidLogCorruptionRefused pins the torn-tail / corruption
// distinction: a bad frame with an intact frame AFTER it cannot be a torn
// tail (appends are sequential), so recovery must refuse with
// ErrWALCorrupt instead of silently truncating committed history.
func TestFaultMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	m, th, lines := openDurable(t, dir, ModeFast, 2)
	commitCell(th, &lines[0][0], 1)
	commitCell(th, &lines[1][0], 2)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	wal := filepath.Join(dir, "wal-1.log")
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	// Corrupt a payload byte of the FIRST frame (magic is 8 bytes, then
	// the frame header); the second frame stays intact behind it.
	b[8+walFrameHeader+2] ^= 0xff
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatalf("write WAL: %v", err)
	}

	m2 := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir})
	m2.NewSpace().Lines(0, 2)
	if _, err := m2.RecoverFiles(); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("RecoverFiles = %v, want ErrWALCorrupt", err)
	}
}

// TestFaultWALVersionRefused: a log that does not start with this build's
// magic but holds bytes after it was written by another format version.
// Recovery must refuse it with ErrWALVersion naming the file, whether or
// not what follows parses as frames, and leave the file and CURRENT
// byte-for-byte untouched. A log holding only a torn magic still recovers
// empty.
func TestFaultWALVersionRefused(t *testing.T) {
	// A record in the fixed-width format the previous magic announced:
	// u64 boot | u32 count | one 88-byte entry (tag, idx, mask, ver, 8 cells).
	v1Payload := binary.LittleEndian.AppendUint64(nil, 1)
	v1Payload = binary.LittleEndian.AppendUint32(v1Payload, 1)
	v1Payload = append(v1Payload, make([]byte, 88)...)
	v1Payload[12+16] = 1 // ver
	v1Payload[12+24] = 7 // cell 0
	v1Frame := binary.LittleEndian.AppendUint32(nil, uint32(len(v1Payload)))
	v1Frame = binary.LittleEndian.AppendUint32(v1Frame, crc32.ChecksumIEEE(v1Payload))
	v1Frame = append(v1Frame, v1Payload...)

	for _, tc := range []struct {
		name string
		log  []byte
	}{
		{"v1 log with intact frames", append([]byte("NVTWAL1\n"), append(v1Frame, v1Frame...)...)},
		{"v1 log with a torn frame", append([]byte("NVTWAL1\n"), v1Frame[:30]...)},
		{"foreign header", append([]byte("GARBAGE!"), 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, th, lines := openDurable(t, dir, ModeFast, 1)
			commitCell(th, &lines[0][0], 7)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			wal := filepath.Join(dir, "wal-1.log")
			if err := os.WriteFile(wal, tc.log, 0o644); err != nil {
				t.Fatal(err)
			}
			current, err := os.ReadFile(currentPath(dir))
			if err != nil {
				t.Fatal(err)
			}

			m2 := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir})
			m2.NewSpace().Lines(0, 1)
			_, err = m2.RecoverFiles()
			if !errors.Is(err, ErrWALVersion) || !strings.Contains(err.Error(), wal) {
				t.Fatalf("RecoverFiles = %v, want ErrWALVersion naming %s", err, wal)
			}
			if b, err := os.ReadFile(wal); err != nil || !bytes.Equal(b, tc.log) {
				t.Fatalf("log changed by the refused recovery (err %v)", err)
			}
			if b, err := os.ReadFile(currentPath(dir)); err != nil || !bytes.Equal(b, current) {
				t.Fatalf("CURRENT changed by the refused recovery: %q -> %q (err %v)", current, b, err)
			}
		})
	}

	// A log holding a torn magic recovers empty — and so does a bare old
	// magic, which is what a checkpoint under the old format leaves.
	for _, log := range []string{walMagic[:5], "NVTWAL1\n"} {
		t.Run(fmt.Sprintf("%q recovers empty", log), func(t *testing.T) {
			dir := t.TempDir()
			m, th, lines := openDurable(t, dir, ModeFast, 1)
			commitCell(th, &lines[0][0], 7)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			wal := filepath.Join(dir, "wal-1.log")
			if err := os.WriteFile(wal, []byte(log), 0o644); err != nil {
				t.Fatal(err)
			}
			m2, th2, lines2 := openDurable(t, dir, ModeFast, 1)
			defer m2.Close()
			if st := m2.ReplayStats(); !st.Truncated || st.Records != 0 {
				t.Fatalf("replay %+v, want an empty log with the tear reported", st)
			}
			if got := th2.Load(&lines2[0][0]); got != 0 {
				t.Fatalf("cell = %d after an empty log, want 0", got)
			}
			if b, err := os.ReadFile(wal); err != nil || string(b) != walMagic {
				t.Fatalf("log after recovery = %q (err %v), want the bare magic", b, err)
			}
		})
	}
}

// TestFaultReplayReadError: an IO error while reading the log back is a
// real error, not a torn tail — silently truncating on EIO would drop
// acknowledged history just because the disk hiccuped during recovery.
func TestFaultReplayReadError(t *testing.T) {
	dir := t.TempDir()
	m, th, lines := openDurable(t, dir, ModeFast, 1)
	commitCell(th, &lines[0][0], 7)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	efs := mustErrFS(t, "read~wal@1=eio")
	m2 := New(Config{Mode: ModeFast, Profile: ProfileZero, Dir: dir, FS: efs})
	m2.NewSpace().Lines(0, 1)
	_, err := m2.RecoverFiles()
	if err == nil {
		t.Fatal("RecoverFiles swallowed an injected read error")
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("RecoverFiles = %v, want wrapped EIO", err)
	}
}
