package server

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// readRawFrame reads one reply frame off a raw binary-protocol connection.
func readRawFrame(t *testing.T, br *bufio.Reader) (tag byte, payload []byte) {
	t.Helper()
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > wire.MaxFrame {
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
	frame := []byte{wire.Magic, wire.Version, 5, 0, 0, 0, binOpGet, 1, 2, 3, 4}
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
	if _, err := c.Write([]byte{wire.Magic, 0x7F}); err != nil {
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

// TestMGetReplyFitsFrame: the largest MGET whose binary reply fits one
// frame is served, and one key more is refused with an ERR that leaves the
// connection usable (it used to be accepted, and its reply frame was one
// byte over wire.MaxFrame, which the client could not read).
func TestMGetReplyFitsFrame(t *testing.T) {
	addr, _, _ := startServer(t, core.KindHash, 4, Config{})
	cl, err := Dial(addr, WithBinaryProto())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Put(3, 30); err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, maxMGet+1)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	mget := func(keys []uint64) Reply {
		t.Helper()
		if err := cl.SendMGet(keys); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		rep, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("MGET of %d keys: %v", len(keys), err)
		}
		return rep
	}
	if rep := mget(keys[:maxMGet]); rep.IsErr() || len(rep.Array) != maxMGet || rep.Array[2] != "$30" {
		t.Fatalf("MGET of %d keys: err %q, %d entries", maxMGet, rep.Err, len(rep.Array))
	}
	if rep := mget(keys); !rep.IsErr() {
		t.Fatalf("MGET of %d keys: %d entries, want an error reply", len(keys), len(rep.Array))
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("connection unusable after the refused MGET: %v", err)
	}
}
