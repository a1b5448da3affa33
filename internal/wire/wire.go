// Package wire is the frame format the binary request protocol and the
// replication channel share, and the address syntax of every listener and
// dialer: one definition for the server, its client and internal/repl.
//
// A frame is
//
//	u32 length | u8 tag | payload           (little-endian; length counts tag + payload)
//
// where the tag is a request opcode, a reply tag or a replication frame
// kind, depending on who sends it. A binary connection opens with the
// two-byte Preamble, magic 0x80 then version 0x01; 0x80 never starts a
// text command, so both protocols share a listener.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

const (
	// Magic is the first byte of a binary connection.
	Magic = 0x80
	// Version is the binary protocol version that follows Magic.
	Version = 0x01
	// Preamble is Magic followed by Version.
	Preamble = "\x80\x01"
	// MaxFrame bounds a frame's length field: a desynced or hostile stream
	// must not drive huge allocations.
	MaxFrame = 1 << 20
	// headerLen is the u32 length plus the tag byte.
	headerLen = 5
)

// ErrFrameLength reports a length field outside [1, MaxFrame]: the stream
// has lost its framing and cannot continue.
var ErrFrameLength = errors.New("frame length out of range")

// AppendHeader appends the header of a frame whose payload is n bytes.
func AppendHeader(dst []byte, tag byte, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n+1))
	return append(dst, tag)
}

// AppendFrame appends a whole frame.
func AppendFrame(dst []byte, tag byte, payload []byte) []byte {
	return append(AppendHeader(dst, tag, len(payload)), payload...)
}

// ReadFrame reads one frame, header included, into buf (reused; grown when
// too small) and returns its tag and payload, which alias the returned
// buffer until the next call.
func ReadFrame(r io.Reader, buf []byte) (tag byte, payload, nbuf []byte, err error) {
	if cap(buf) < headerLen {
		buf = make([]byte, headerLen, 64)
	}
	h := buf[:headerLen]
	if _, err := io.ReadFull(r, h); err != nil {
		return 0, nil, buf, err
	}
	n, tag := binary.LittleEndian.Uint32(h), h[4]
	if n < 1 || n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("%w: %d", ErrFrameLength, n)
	}
	if cap(buf) < int(n-1) {
		buf = make([]byte, n-1)
	}
	payload = buf[:n-1]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, err
	}
	return tag, payload, buf, nil
}

// Buffered reports whether br already holds the whole next frame, so that
// reading it cannot wait on the connection.
func Buffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < headerLen {
		return false
	}
	h, _ := br.Peek(4)
	return n >= 4+int(binary.LittleEndian.Uint32(h))
}

// SplitAddr splits "unix:/path", "tcp:host:port" or a bare "host:port"
// (TCP) into a network and an address for net.Dial or net.Listen.
func SplitAddr(addr string) (network, address string) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return "unix", path
	}
	return "tcp", strings.TrimPrefix(addr, "tcp:")
}
