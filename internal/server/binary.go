// The length-prefixed binary frame protocol: the same operation vocabulary
// as the text protocol, in fixed-layout wire frames a server can decode —
// and a reply it can encode — without allocating, parsing decimals, or
// splitting strings. A connection opts in by making its first two bytes
// wire.Preamble (magic 0x80, version 0x01); 0x80 is not a byte any text
// command starts with, so the two protocols share a listener.
//
// All integers are little-endian.
//
// Request frame:
//
//	u32 length | u8 opcode | payload        (length counts opcode + payload)
//
//	opcode 1  PING    —                     -> OK
//	opcode 2  GET     u64 key               -> VALUE | NIL
//	opcode 3  PUT     u64 key, u64 value    -> OK
//	opcode 4  INSERT  u64 key, u64 value    -> TRUE | FALSE
//	opcode 5  DEL     u64 key               -> TRUE | FALSE
//	opcode 6  UPDATE  u64 key, u64 value    -> VALUE | NIL
//	opcode 7  SCAN    u64 lo, u64 hi, u32 max -> PAIRS
//	opcode 8  MGET    u32 n, n × u64 key    -> MULTI
//	opcode 9  STATS   —                     -> STATS
//	opcode 10 QUIT    —                     -> OK, connection closes
//	opcode 11 PROMOTE —                     -> OK  (replica → primary)
//
// Opcode 0x20 (PSYNC, defined in internal/repl) re-negotiates the
// connection into a replication channel: the server sends no ordinary
// reply frame and the replication primary owns the socket from there.
//
// Reply frame:
//
//	u32 length | u8 tag | payload           (length counts tag + payload)
//
//	tag 0 OK      —
//	tag 1 VALUE   u64 value
//	tag 2 NIL     —
//	tag 3 TRUE    —
//	tag 4 FALSE   —
//	tag 5 PAIRS   u32 n, n × (u64 key, u64 value)
//	tag 6 MULTI   u32 n, n × (u8 found, u64 value)
//	tag 7 ERR     utf-8 message
//	tag 8 STATS   u32 n, n × (u8 len, len × name byte, u64 value)
//
// Replies carry the reply-after-fence guarantee of the text protocol: a
// write's OK/TRUE/FALSE/VALUE frame is sent only after the commit fence
// covering it has landed. Framing errors (a length field out of range)
// close the connection after an ERR frame; a malformed but framed request
// gets an ERR frame and the connection stays open.
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/wire"
)

// Request opcodes.
const (
	binOpPing    = 1
	binOpGet     = 2
	binOpPut     = 3
	binOpInsert  = 4
	binOpDel     = 5
	binOpUpdate  = 6
	binOpScan    = 7
	binOpMGet    = 8
	binOpStats   = 9
	binOpQuit    = 10
	binOpPromote = 11
)

// Reply tags.
const (
	binTagOK    = 0
	binTagValue = 1
	binTagNil   = 2
	binTagTrue  = 3
	binTagFalse = 4
	binTagPairs = 5
	binTagMulti = 6
	binTagErr   = 7
	binTagStats = 8
)

// binCodec is the binary frame protocol.
type binCodec struct {
	buf  []byte // frame scratch: readRequest on a server, readReply on a client
	keys []uint64
}

// readRequest reads whole frames: the idle clock re-arms only when the next
// frame is not already in the read buffer, so a pipelined burst pays for it
// once and a frame that dribbles in for longer than the idle timeout is
// still cut.
func (c *binCodec) readRequest(br *bufio.Reader, armIdle func()) (request, error) {
	if !wire.Buffered(br) {
		armIdle()
	}
	op, p, buf, err := wire.ReadFrame(br, c.buf)
	c.buf = buf
	if errors.Is(err, wire.ErrFrameLength) {
		return badRequest(wire.ErrFrameLength.Error()), errFraming
	}
	if err != nil {
		return request{}, err
	}
	r := parseBin(op, p, c.keys[:0])
	if r.keys != nil {
		c.keys = r.keys
	}
	return r, nil
}

// binPayload is the fixed payload of each argument shape that has one: its
// size, and the tail of the error a request of any other size gets.
var binPayload = [...]struct {
	n    int
	want string
}{
	argKey:    {8, " wants an 8-byte payload"},
	argKeyVal: {16, " wants a 16-byte payload"},
	argScan:   {20, " wants a 20-byte payload"},
}

// parseBin decodes one request frame, collecting MGET keys into keys.
func parseBin(op byte, p []byte, keys []uint64) request {
	c := byOp[op]
	if c == cmdBad {
		return badRequest("unknown opcode")
	}
	d, le := &commands[c], binary.LittleEndian
	r := request{cmd: c}
	switch d.args {
	case argKey, argKeyVal, argScan:
		if want := binPayload[d.args]; len(p) != want.n {
			return badRequest(d.name + want.want)
		}
		r.key = le.Uint64(p)
		if d.args != argKey {
			r.val = le.Uint64(p[8:])
		}
		if d.args == argScan {
			r.max = int(le.Uint32(p[16:]))
		}
	case argKeys:
		if len(p) < 4 {
			return badRequest("MGET wants a count-prefixed payload")
		}
		if n := int(le.Uint32(p)); len(p) != 4+8*n {
			return badRequest("MGET payload length mismatch")
		}
		for p = p[4:]; len(p) > 0; p = p[8:] {
			keys = append(keys, le.Uint64(p))
		}
		r.keys = keys
	case argRaw:
		r.raw = p
	}
	return r
}

func (*binCodec) appendReply(b []byte, r reply) []byte {
	le := binary.LittleEndian
	switch r.kind {
	case replyOK, replyPong:
		return wire.AppendHeader(b, binTagOK, 0)
	case replyBool:
		if r.ok {
			return wire.AppendHeader(b, binTagTrue, 0)
		}
		return wire.AppendHeader(b, binTagFalse, 0)
	case replyValue:
		if !r.ok {
			return wire.AppendHeader(b, binTagNil, 0)
		}
		return le.AppendUint64(wire.AppendHeader(b, binTagValue, 8), r.v)
	case replyPairs:
		b = wire.AppendHeader(b, binTagPairs, 4+16*len(r.pairs))
		b = le.AppendUint32(b, uint32(len(r.pairs)))
		for _, p := range r.pairs {
			b = le.AppendUint64(le.AppendUint64(b, p.k), p.v)
		}
	case replyMulti:
		b = wire.AppendHeader(b, binTagMulti, 4+9*len(r.multi))
		b = le.AppendUint32(b, uint32(len(r.multi)))
		for _, m := range r.multi {
			var found byte
			if m.OK {
				found = 1
			}
			b = le.AppendUint64(append(b, found), m.Value)
		}
	case replyStats:
		n := 4
		for _, s := range r.stats {
			n += 1 + len(s.name) + 8
		}
		b = wire.AppendHeader(b, binTagStats, n)
		b = le.AppendUint32(b, uint32(len(r.stats)))
		for _, s := range r.stats {
			b = append(append(b, byte(len(s.name))), s.name...)
			b = le.AppendUint64(b, s.v)
		}
	default: // replyErr
		b = append(wire.AppendHeader(b, binTagErr, len(r.msg)), r.msg...)
	}
	return b
}

func (*binCodec) appendRequest(b []byte, r request) []byte {
	d, le := &commands[r.cmd], binary.LittleEndian
	switch d.args {
	case argKey, argKeyVal, argScan:
		b = le.AppendUint64(wire.AppendHeader(b, d.op, binPayload[d.args].n), r.key)
		if d.args != argKey {
			b = le.AppendUint64(b, r.val)
		}
		if d.args == argScan {
			b = le.AppendUint32(b, uint32(min(r.max, 1<<32-1)))
		}
		return b
	case argKeys:
		b = wire.AppendHeader(b, d.op, 4+8*len(r.keys))
		b = le.AppendUint32(b, uint32(len(r.keys)))
		for _, k := range r.keys {
			b = le.AppendUint64(b, k)
		}
		return b
	}
	return append(wire.AppendHeader(b, d.op, len(r.raw)), r.raw...) // argNone, argRaw
}

// readReply parses one reply frame into the shared Reply shape: PAIRS
// entries render as "k v" lines, MULTI entries as "$v"/"$-1" and STATS
// rows as "name value", so Scan, MGET and Stats read either protocol alike.
func (c *binCodec) readReply(br *bufio.Reader) (Reply, error) {
	tag, p, buf, err := wire.ReadFrame(br, c.buf)
	c.buf = buf
	if err != nil {
		return Reply{}, err
	}
	le := binary.LittleEndian
	switch tag {
	case binTagOK:
		return Reply{Status: "OK"}, nil
	case binTagValue:
		if len(p) != 8 {
			return Reply{}, errors.New("server: malformed VALUE frame")
		}
		return Reply{Value: le.Uint64(p), Found: true}, nil
	case binTagNil:
		return Reply{}, nil
	case binTagTrue:
		return Reply{Int: 1}, nil
	case binTagFalse:
		return Reply{Int: 0}, nil
	case binTagErr:
		return Reply{Err: string(p)}, nil
	case binTagPairs, binTagMulti, binTagStats:
	default:
		return Reply{}, fmt.Errorf("server: unknown binary reply tag %d", tag)
	}
	if len(p) < 4 {
		return Reply{}, fmt.Errorf("server: malformed reply frame (tag %d)", tag)
	}
	n := int(le.Uint32(p))
	arr := make([]string, 0, min(n, len(p)))
	for p = p[4:]; len(arr) < n; {
		switch {
		case tag == binTagPairs && len(p) >= 16:
			arr = append(arr, strconv.FormatUint(le.Uint64(p), 10)+" "+strconv.FormatUint(le.Uint64(p[8:]), 10))
			p = p[16:]
		case tag == binTagMulti && len(p) >= 9 && p[0] == 0:
			arr = append(arr, "$-1")
			p = p[9:]
		case tag == binTagMulti && len(p) >= 9:
			arr = append(arr, "$"+strconv.FormatUint(le.Uint64(p[1:]), 10))
			p = p[9:]
		case tag == binTagStats && len(p) >= 1 && len(p) >= 1+int(p[0])+8:
			arr = append(arr, string(p[1:1+p[0]])+" "+strconv.FormatUint(le.Uint64(p[1+p[0]:]), 10))
			p = p[1+int(p[0])+8:]
		default:
			return Reply{}, fmt.Errorf("server: malformed reply frame (tag %d)", tag)
		}
	}
	if len(p) != 0 {
		return Reply{}, fmt.Errorf("server: malformed reply frame (tag %d)", tag)
	}
	return Reply{Array: arr}, nil
}
