package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestBinaryRoundTrips exercises every binary opcode through the client's
// binary mode — the same command sequence as TestRoundTrips, decoded from
// fixed-layout frames instead of text lines.
func TestBinaryRoundTrips(t *testing.T) {
	addr, _, _ := startServer(t, core.KindSkiplist, 4, Config{})
	cl, err := Dial(addr, WithBinaryProto())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(7, 70); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := cl.Get(7); err != nil || !ok || v != 70 {
		t.Fatalf("get: %d %v %v", v, ok, err)
	}
	if _, ok, err := cl.Get(8); err != nil || ok {
		t.Fatalf("missing get: %v %v", ok, err)
	}
	if ins, err := cl.Insert(8, 80); err != nil || !ins {
		t.Fatalf("insert: %v %v", ins, err)
	}
	if ins, err := cl.Insert(8, 81); err != nil || ins {
		t.Fatalf("duplicate insert: %v %v", ins, err)
	}
	if v, ok, err := cl.Update(8, 88); err != nil || !ok || v != 88 {
		t.Fatalf("update: %d %v %v", v, ok, err)
	}
	if _, ok, err := cl.Update(9, 99); err != nil || ok {
		t.Fatalf("update missing: %v %v", ok, err)
	}
	keys, vals, err := cl.Scan(1, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != 7 || keys[1] != 8 || vals[1] != 88 {
		t.Fatalf("scan: %v %v", keys, vals)
	}
	if keys, _, err := cl.Scan(1, 100, 0); err != nil || len(keys) != 0 {
		t.Fatalf("scan max=0: %v %v", keys, err)
	}
	if err := cl.SendMGet([]uint64{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"$70", "$88", "$-1"}
	if len(rep.Array) != len(want) {
		t.Fatalf("mget: %v", rep.Array)
	}
	for i := range want {
		if rep.Array[i] != want[i] {
			t.Fatalf("mget[%d] = %q, want %q", i, rep.Array[i], want[i])
		}
	}
	if del, err := cl.Del(7); err != nil || !del {
		t.Fatalf("del: %v %v", del, err)
	}
	if del, err := cl.Del(7); err != nil || del {
		t.Fatalf("double del: %v %v", del, err)
	}
	// STATS speaks binary too (tag 8), parsing into the same map shape as
	// the text protocol.
	if st, err := cl.Stats(); err != nil || st["pool_workers"] == 0 {
		t.Fatalf("binary STATS: %v (stats %v)", err, st)
	}
	if err := cl.Quit(); err != nil {
		t.Fatal(err)
	}
}

// readRawFrame reads one reply frame off a raw binary-protocol connection.
func readRawFrame(t *testing.T, br *bufio.Reader) (tag byte, payload []byte) {
	t.Helper()
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > maxBinFrame {
		t.Fatalf("bad reply frame length %d", n)
	}
	payload = make([]byte, n-1)
	if _, err := io.ReadFull(br, payload); err != nil {
		t.Fatalf("read frame payload: %v", err)
	}
	return hdr[4], payload
}

// TestBinaryErrorFrames checks the two error classes: a semantic error (bad
// payload shape, unknown opcode) answers with an ERR frame and keeps the
// connection usable; a framing error (length out of range) closes it.
func TestBinaryErrorFrames(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 0, Config{})
	_, path, _ := strings.Cut(addr, ":")
	c, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	br := bufio.NewReader(c)

	// Magic + version, then a GET with a truncated 4-byte payload.
	frame := []byte{binMagic, binVersion, 5, 0, 0, 0, binOpGet, 1, 2, 3, 4}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
	tag, payload := readRawFrame(t, br)
	if tag != binTagErr || !strings.Contains(string(payload), "8-byte") {
		t.Fatalf("truncated GET: tag %d payload %q", tag, payload)
	}

	// Unknown opcode: ERR, connection still open.
	if _, err := c.Write([]byte{1, 0, 0, 0, 0xEE}); err != nil {
		t.Fatal(err)
	}
	if tag, payload = readRawFrame(t, br); tag != binTagErr {
		t.Fatalf("unknown opcode: tag %d payload %q", tag, payload)
	}

	// The connection survived both: a PING still round-trips.
	if _, err := c.Write([]byte{1, 0, 0, 0, binOpPing}); err != nil {
		t.Fatal(err)
	}
	if tag, _ = readRawFrame(t, br); tag != binTagOK {
		t.Fatalf("ping after errors: tag %d", tag)
	}

	// Framing error: a zero length field ends the connection after the ERR.
	if _, err := c.Write([]byte{0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if tag, _ = readRawFrame(t, br); tag != binTagErr {
		t.Fatalf("zero-length frame: tag %d", tag)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection should close after framing error, got %v", err)
	}
}

// TestBinaryVersionMismatch: the right magic with the wrong version gets a
// textual error (the handshake failed before the binary framing started).
func TestBinaryVersionMismatch(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 0, Config{})
	_, path, _ := strings.Cut(addr, ":")
	c, err := net.Dial("unix", path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte{binMagic, 0x7F}); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "-ERR") {
		t.Fatalf("version mismatch reply %q, %v", line, err)
	}
}

// TestProtocolCoexistence runs a text client and a binary client over the
// same listener at once — the magic-byte sniff is per connection.
func TestProtocolCoexistence(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 4, Config{})
	txt, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer txt.Close()
	bin, err := Dial(addr, WithBinaryProto())
	if err != nil {
		t.Fatal(err)
	}
	defer bin.Close()

	if err := txt.Put(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := bin.Put(2, 20); err != nil {
		t.Fatal(err)
	}
	// Each protocol reads the other's write through the shared store.
	if v, ok, err := bin.Get(1); err != nil || !ok || v != 10 {
		t.Fatalf("binary get of text put: %d %v %v", v, ok, err)
	}
	if v, ok, err := txt.Get(2); err != nil || !ok || v != 20 {
		t.Fatalf("text get of binary put: %d %v %v", v, ok, err)
	}
}
