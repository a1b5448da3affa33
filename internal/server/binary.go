// The length-prefixed binary frame protocol: the same operation vocabulary
// as the text protocol, in fixed-layout frames a server can decode — and a
// reply it can encode — without allocating, parsing decimals, or splitting
// strings. A connection opts in by making its first two bytes the magic
// sequence 0x80 0x01 (magic, version); 0x80 is not a byte any text command
// starts with, so the two protocols share a listener.
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
// covering it has landed.
package server

import (
	"bufio"
	"encoding/binary"
	"io"

	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/store"
)

const (
	binMagic   = 0x80
	binVersion = 0x01
	// maxBinFrame bounds a request frame's length field; anything larger is
	// a protocol error and closes the connection (a desynced or hostile
	// stream must not drive huge allocations).
	maxBinFrame = 1 << 20
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

// handleBin is the binary-protocol read loop: fixed 5-byte header, payload
// into a reused buffer, dispatch. Framing errors close the connection (the
// stream offset is lost); semantic errors reply with an ERR frame and keep
// it open. The idle clock re-arms only when the next frame is not already
// wholly in the read buffer, i.e. before a read that may wait on the
// socket: a pipelined burst pays for it once, and a frame that dribbles in
// for longer than IdleTimeout is still cut.
func (s *Server) handleBin(br *bufio.Reader, cs *connState) {
	var hdr [5]byte
	for {
		if br.Buffered() < len(hdr) {
			cs.armIdle()
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n < 1 || n > maxBinFrame {
			cs.replyBinErr("frame length out of range")
			return
		}
		need := int(n) - 1
		if br.Buffered() < need {
			cs.armIdle()
		}
		if cap(cs.binBuf) < need {
			cs.binBuf = make([]byte, need)
		}
		payload := cs.binBuf[:need]
		if _, err := io.ReadFull(br, payload); err != nil {
			return
		}
		if !cs.dispatchBin(hdr[4], payload) {
			return
		}
	}
}

// replyBinErr enqueues an ERR frame.
func (cs *connState) replyBinErr(msg string) {
	sl := cs.take()
	sl.buf = appendBinErr(sl.buf[:0], msg)
	cs.finish(sl)
}

// dispatchBin executes one decoded binary request; false closes the
// connection. The write paths (PUT, INSERT, DEL, UPDATE) run without any
// allocation: the decoded operation goes to the pool by value and the slot
// renders the reply into its reused buffer.
func (cs *connState) dispatchBin(op byte, p []byte) bool {
	switch op {
	case binOpPing:
		sl := cs.take()
		sl.buf = appendBinHeader(sl.buf[:0], binTagOK, 0)
		cs.finish(sl)
	case binOpGet:
		if len(p) != 8 {
			cs.replyBinErr("GET wants an 8-byte payload")
			return true
		}
		cs.awaitWrites()
		v, found := cs.sess.Get(binary.LittleEndian.Uint64(p))
		sl := cs.take()
		sl.buf = appendBinValue(sl.buf[:0], v, found)
		cs.finish(sl)
	case binOpPut:
		if len(p) != 16 {
			cs.replyBinErr("PUT wants a 16-byte payload")
			return true
		}
		cs.submitWrite(store.Op{
			Kind:  shard.OpPut,
			Key:   binary.LittleEndian.Uint64(p),
			Value: binary.LittleEndian.Uint64(p[8:]),
		}, modeOK)
	case binOpInsert:
		if len(p) != 16 {
			cs.replyBinErr("INSERT wants a 16-byte payload")
			return true
		}
		cs.submitWrite(store.Op{
			Kind:  shard.OpInsert,
			Key:   binary.LittleEndian.Uint64(p),
			Value: binary.LittleEndian.Uint64(p[8:]),
		}, modeBool)
	case binOpDel:
		if len(p) != 8 {
			cs.replyBinErr("DEL wants an 8-byte payload")
			return true
		}
		cs.submitWrite(store.Op{Kind: shard.OpDelete, Key: binary.LittleEndian.Uint64(p)}, modeBool)
	case binOpUpdate:
		if len(p) != 16 {
			cs.replyBinErr("UPDATE wants a 16-byte payload")
			return true
		}
		cs.submitWrite(store.Op{
			Kind:  shard.OpUpdate,
			Key:   binary.LittleEndian.Uint64(p),
			Value: binary.LittleEndian.Uint64(p[8:]),
		}, modeValue)
	case binOpScan:
		cs.execScanBin(p)
	case binOpMGet:
		cs.execMGetBin(p)
	case binOpStats:
		cs.awaitWrites()
		stats := cs.statRows()
		n := 4
		for _, s := range stats {
			n += 1 + len(s.name) + 8
		}
		sl := cs.take()
		buf := appendBinHeader(sl.buf[:0], binTagStats, n)
		buf = appendBinU32(buf, uint32(len(stats)))
		for _, s := range stats {
			buf = append(buf, byte(len(s.name)))
			buf = append(buf, s.name...)
			buf = appendBinU64(buf, s.v)
		}
		sl.buf = buf
		cs.finish(sl)
	case binOpPromote:
		cs.awaitWrites()
		cs.srv.Promote()
		sl := cs.take()
		sl.buf = appendBinHeader(sl.buf[:0], binTagOK, 0)
		cs.finish(sl)
	case repl.OpPSync:
		if cs.srv.prim == nil || cs.srv.readOnly.Load() {
			cs.replyBinErr("PSYNC: not a primary")
			return true
		}
		// Copy the payload out of the reused frame buffer and leave the
		// request loop; handle() drains the reply stream and hands the
		// connection to the primary.
		cs.replPSync = append([]byte(nil), p...)
		return false
	case binOpQuit:
		sl := cs.take()
		sl.buf = appendBinHeader(sl.buf[:0], binTagOK, 0)
		cs.finish(sl)
		return false
	default:
		cs.replyBinErr("unknown opcode")
	}
	return true
}

func (cs *connState) execScanBin(p []byte) {
	if len(p) != 20 {
		cs.replyBinErr("SCAN wants a 20-byte payload")
		return
	}
	lo := binary.LittleEndian.Uint64(p)
	hi := binary.LittleEndian.Uint64(p[8:])
	max := int(binary.LittleEndian.Uint32(p[16:]))
	if max > cs.srv.cfg.MaxScan || max < 0 {
		max = cs.srv.cfg.MaxScan
	}
	items, err := cs.collectScan(lo, hi, max)
	if err != nil {
		cs.replyBinErr(err.Error())
		return
	}
	sl := cs.take()
	buf := appendBinHeader(sl.buf[:0], binTagPairs, 4+16*len(items))
	buf = appendBinU32(buf, uint32(len(items)))
	for _, it := range items {
		buf = appendBinU64(buf, it.k)
		buf = appendBinU64(buf, it.v)
	}
	sl.buf = buf
	cs.finish(sl)
}

func (cs *connState) execMGetBin(p []byte) {
	if len(p) < 4 {
		cs.replyBinErr("MGET wants a count-prefixed payload")
		return
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n < 0 || len(p) != 4+8*n {
		cs.replyBinErr("MGET payload length mismatch")
		return
	}
	keys := cs.keys[:0]
	for i := 0; i < n; i++ {
		keys = append(keys, binary.LittleEndian.Uint64(p[4+8*i:]))
	}
	cs.keys = keys
	cs.awaitWrites()
	cs.res = cs.sess.MultiGet(keys, cs.res)
	sl := cs.take()
	buf := appendBinHeader(sl.buf[:0], binTagMulti, 4+9*n)
	buf = appendBinU32(buf, uint32(n))
	for _, r := range cs.res {
		if r.OK {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = appendBinU64(buf, r.Value)
	}
	sl.buf = buf
	cs.finish(sl)
}

// appendBinHeader writes a reply frame header for a payload of payloadLen
// bytes (the length field counts the tag byte too).
func appendBinHeader(buf []byte, tag byte, payloadLen int) []byte {
	var h [5]byte
	binary.LittleEndian.PutUint32(h[:4], uint32(payloadLen+1))
	h[4] = tag
	return append(buf, h[:]...)
}

func appendBinU32(buf []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(buf, b[:]...)
}

func appendBinU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func appendBinValue(buf []byte, v uint64, ok bool) []byte {
	if !ok {
		return appendBinHeader(buf, binTagNil, 0)
	}
	buf = appendBinHeader(buf, binTagValue, 8)
	return appendBinU64(buf, v)
}

func appendBinErr(buf []byte, msg string) []byte {
	buf = appendBinHeader(buf, binTagErr, len(msg))
	return append(buf, msg...)
}
