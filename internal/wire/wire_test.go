package wire

import (
	"bufio"
	"bytes"
	"errors"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frame := AppendFrame(nil, 4, []byte{1, 2, 3})
	if want := []byte{4, 0, 0, 0, 4, 1, 2, 3}; !bytes.Equal(frame, want) {
		t.Fatalf("frame % x, want % x", frame, want)
	}
	tag, payload, _, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tag != 4 || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("round trip: tag %d payload %v", tag, payload)
	}
	// Oversized and empty lengths must be refused, not allocated.
	for _, bad := range [][]byte{{0xff, 0xff, 0xff, 0xff, 1}, {0, 0, 0, 0, 1}} {
		if _, _, _, err := ReadFrame(bytes.NewReader(bad), nil); !errors.Is(err, ErrFrameLength) {
			t.Fatalf("length % x: err %v, want ErrFrameLength", bad[:4], err)
		}
	}
}

// TestBuffered: a frame counts as buffered only once every byte of it is.
func TestBuffered(t *testing.T) {
	frame := AppendFrame(nil, 1, []byte{9, 9, 9})
	for n := 0; n <= len(frame); n++ {
		br := bufio.NewReader(bytes.NewReader(frame[:n]))
		br.Peek(n)
		if got, want := Buffered(br), n == len(frame); got != want {
			t.Fatalf("%d of %d bytes buffered: Buffered = %v", n, len(frame), got)
		}
	}
}

func TestSplitAddr(t *testing.T) {
	for addr, want := range map[string][2]string{
		"unix:/tmp/a.sock": {"unix", "/tmp/a.sock"},
		"tcp:host:1":       {"tcp", "host:1"},
		"host:1":           {"tcp", "host:1"},
	} {
		if n, a := SplitAddr(addr); n != want[0] || a != want[1] {
			t.Errorf("SplitAddr(%q) = %q %q, want %q", addr, n, a, want)
		}
	}
}
