package repl

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzPSync feeds arbitrary bytes to the primary's PSYNC payload parser.
// It must not panic, must accept a payload exactly when its length is the
// one its count field names, and every payload it accepts must re-encode
// byte for byte. The same bytes read as a run ID and acked list must
// survive an encode and parse unchanged.
func FuzzPSync(f *testing.F) {
	f.Add(PSyncPayload(7, []uint64{3, 0, 9}))
	f.Add(PSyncPayload(0, nil))
	f.Add([]byte{})
	f.Add(make([]byte, 11))
	f.Fuzz(func(t *testing.T, p []byte) {
		runID, acked, err := parsePSync(p)
		wellSized := len(p) >= 12 && uint64(len(p)) == 12+8*uint64(binary.LittleEndian.Uint32(p[8:]))
		if (err == nil) != wellSized {
			t.Fatalf("parsePSync(%d bytes) err = %v, want accepted = %v", len(p), err, wellSized)
		}
		if err == nil && !bytes.Equal(PSyncPayload(runID, acked), p) {
			t.Fatalf("accepted payload %x re-encodes as %x", p, PSyncPayload(runID, acked))
		}

		if len(p) < 8 {
			return
		}
		runID = binary.LittleEndian.Uint64(p)
		acked = nil
		for rest := p[8:]; len(rest) >= 8; rest = rest[8:] {
			acked = append(acked, binary.LittleEndian.Uint64(rest))
		}
		gotID, gotAcked, err := parsePSync(PSyncPayload(runID, acked))
		if err != nil || gotID != runID {
			t.Fatalf("round trip of run %d acked %v = run %d acked %v, %v", runID, acked, gotID, gotAcked, err)
		}
		if !slices.Equal(gotAcked, acked) {
			t.Fatalf("round trip of acked %v = %v", acked, gotAcked)
		}
	})
}

// FuzzWatermark feeds arbitrary bytes to the replica's watermark-file
// parser and, through the file, to loadWatermark. The parser must not
// panic and must accept exactly the bytes formatWatermark writes;
// loadWatermark must take an accepted file's run ID and acked positions
// and leave the replica's own as they were on any other file. The same
// bytes read as a run ID and acked list must survive a format and parse
// unchanged.
func FuzzWatermark(f *testing.F) {
	path := filepath.Join(f.TempDir(), "watermark")
	f.Add(formatWatermark(7, []uint64{3, 0, 9}))
	f.Add(formatWatermark(0, nil))
	f.Add([]byte("v1 7 1 5"))
	f.Add([]byte("v1 07 1 5\n"))
	f.Add([]byte("v2 7 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		runID, acked, ok := parseWatermark(data)
		if ok != bytes.Equal(formatWatermark(runID, acked), data) {
			t.Fatalf("parseWatermark(%q) ok = %v, but it re-formats as %q", data, ok, formatWatermark(runID, acked))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		r := &Replica{cfg: ReplicaConfig{WatermarkPath: path}, runID: 42, acked: []uint64{1, 2}}
		r.loadWatermark()
		wantID, wantAcked := uint64(42), []uint64{1, 2}
		if ok {
			wantID, wantAcked = runID, acked
		}
		if r.runID != wantID || !slices.Equal(r.acked, wantAcked) {
			t.Fatalf("loadWatermark(%q) left run %d acked %v, want run %d acked %v", data, r.runID, r.acked, wantID, wantAcked)
		}

		if len(data) < 8 {
			return
		}
		runID = binary.LittleEndian.Uint64(data)
		acked = nil
		for rest := data[8:]; len(rest) >= 8; rest = rest[8:] {
			acked = append(acked, binary.LittleEndian.Uint64(rest))
		}
		gotID, gotAcked, ok := parseWatermark(formatWatermark(runID, acked))
		if !ok || gotID != runID {
			t.Fatalf("round trip of run %d acked %v = run %d acked %v, %v", runID, acked, gotID, gotAcked, ok)
		}
		if !slices.Equal(gotAcked, acked) {
			t.Fatalf("round trip of acked %v = %v", acked, gotAcked)
		}
	})
}
