// Package repl is primary–replica replication over the serving stack's
// wire protocol, built on the fence group — the commit unit the whole
// repository is organized around. The group-commit pool acknowledges a
// write only after the commit fence covering its shard group has landed
// (reply ⇒ durable); this package taps that exact point through
// batcher.GroupSink: when a group's fence is down, the primary appends
// the group's committed effects to a per-shard replication log and
// streams them to attached replicas. Each group is encoded into its wire
// frame once, at the commit point; the log is a fixed ring of those
// frames, so a commit costs the same whatever the retention window, and
// every feeder writes the same immutable bytes. Replicas apply each batch
// through the store's ordinary session surface — the same hooked
// ApplyCommitted path every other writer uses, so the persistence
// discipline nvlint checks is never bypassed — and acknowledge back to the
// primary cumulatively: one (shard, seq) ack per shard touched, sent once
// per read burst, when the replica has applied every frame it holds and
// its next read could block.
//
// # Stream unit and watermark
//
// The stream unit is one committed fence group per shard, numbered by a
// per-shard sequence the primary assigns at the commit point. A replica's
// position is the vector of acknowledged sequences per primary shard,
// qualified by the primary's run identity: the durable boot counter the
// WAL layer maintains (pmem.Memory.Watermark), or a random nonce on a
// non-durable primary. A replica reconnecting under the same run tails
// the stream from its recorded vector when the per-shard logs still
// retain it; otherwise — first attach, primary restart, or a replica so
// far behind its position fell off the bounded log — the primary ships a
// full snapshot (a whole-range session Scan of the live store) cut at a
// known log position and the replica resumes tailing from the cut.
//
// # Replicated effects
//
// The log records a group's effects, not its requests: an upsert or a
// confirmed insert/update becomes Put(key, resulting value), a confirmed
// delete becomes Del(key), and operations that did not change state
// (failed inserts, absent-key deletes, reads) are dropped. Effects are
// deterministic and idempotent, so a replica may safely re-apply a batch
// that straddled a snapshot cut or a reconnect.
//
// # WAIT quorum
//
// With a write quorum K > 0 (store.Config.WaitReplicas) the primary takes
// ownership of each group's write completions (GroupSink contract) and
// releases them only once K replicas have acknowledged the group —
// replied ⇒ replicated. When the
// quorum cannot confirm within WaitTimeout (replica death, a falling-
// behind replica, a broken link), the waiting writes fail with the typed
// ErrQuorum instead of blocking forever: the same degraded-mode shape the
// disk-fault machinery uses — writes fail typed while the primary itself
// keeps serving, reads never wait — but deliberately non-sticky, because
// unlike a lying disk a lagging replica heals: once a replica catches up,
// WAIT writes succeed again. Every gated write was already durable on the
// primary when it failed typed; ErrQuorum reports "not yet replicated",
// never "lost".
package repl

import (
	"encoding/binary"
	"errors"

	"repro/internal/store"
	"repro/internal/wire"
)

// OpPSync is the binary-protocol request opcode a replica sends to turn a
// server connection into a replication channel. It lives in the same
// opcode space as the regular request opcodes (internal/server/binary.go)
// but far above them, leaving room for ordinary commands. Payload:
//
//	u64 runID | u32 nshards | nshards × u64 ackedSeq
//
// runID 0 (and nshards 0) is a first attach with no position. The server
// replies nothing through its normal reply path: it hands the connection
// to the primary, which answers with a HELLO frame and owns the
// connection until it closes.
const OpPSync = 0x20

// Replication channel frames (both directions after the PSYNC handoff)
// are wire frames: u32 length | u8 opcode | payload, little-endian, length
// counting the opcode byte.
const (
	// frameHello (primary → replica): u64 runID | u32 nshards | u8 full.
	// full=1 announces a full resync: the replica wipes its store and
	// expects snapshot frames before the stream.
	frameHello = 1
	// frameSnapKV (primary → replica): u32 n | n × (u64 key, u64 value).
	frameSnapKV = 2
	// frameSnapEnd (primary → replica): u32 nshards | nshards × u64
	// cutSeq — the per-shard log positions the snapshot includes; the
	// stream resumes after them.
	frameSnapEnd = 3
	// frameBatch (primary → replica): u32 shard | u64 seq | u32 n |
	// n × (u8 effect, u64 key, u64 value) — one committed fence group.
	frameBatch = 4
	// framePing (primary → replica): empty keepalive.
	framePing = 5
	// frameAck (replica → primary): u32 shard | u64 seq — every group up
	// to seq on shard is applied (acks are cumulative per shard).
	frameAck = 6
)

// Effect kinds inside a frameBatch.
const (
	effectPut = 0
	effectDel = 1
)

// snapChunk is how many key/value pairs one snapshot frame carries.
const snapChunk = 512

var (
	// ErrQuorum fails a WAIT-mode write whose fence group was not
	// confirmed by K replicas within WaitTimeout. The write IS
	// durable on the primary — only the replication confirmation is
	// missing — and the condition is not sticky: writes succeed again
	// once enough replicas catch up.
	ErrQuorum = errors.New("repl: write not confirmed by replica quorum")
	// ErrClosed reports use of a closed primary or replica.
	ErrClosed = errors.New("repl: closed")
)

// Effect is one replicated state change (see the package comment): a Put
// carries the key's resulting value, a Del only the key.
type Effect struct {
	Kind  uint8 // effectPut or effectDel
	Key   uint64
	Value uint64
}

// effectsOf extracts the replicable effects of a committed fence group
// into dst: only operations that changed state, rewritten to their
// idempotent form.
func effectsOf(dst []Effect, ops []store.Op, res []store.OpResult, idxs []int) []Effect {
	for _, i := range idxs {
		switch ops[i].Kind {
		case store.OpPut:
			dst = append(dst, Effect{Kind: effectPut, Key: ops[i].Key, Value: ops[i].Value})
		case store.OpInsert:
			if res[i].OK {
				dst = append(dst, Effect{Kind: effectPut, Key: ops[i].Key, Value: ops[i].Value})
			}
		case store.OpUpdate:
			if res[i].OK {
				dst = append(dst, Effect{Kind: effectPut, Key: ops[i].Key, Value: res[i].Value})
			}
		case store.OpDelete:
			if res[i].OK {
				dst = append(dst, Effect{Kind: effectDel, Key: ops[i].Key})
			}
		}
	}
	return dst
}

// batchHeader is a frameBatch's size without its effects: the u32 length,
// the opcode, u32 shard, u64 seq and u32 count. Each effect adds 17 bytes.
const batchHeader = 5 + 16

// appendBatchFrame appends the whole frameBatch of one committed fence
// group to dst.
func appendBatchFrame(dst []byte, sh int, seq uint64, effects []Effect) []byte {
	le := binary.LittleEndian
	dst = wire.AppendHeader(dst, frameBatch, batchHeader-5+17*len(effects))
	dst = le.AppendUint32(dst, uint32(sh))
	dst = le.AppendUint64(dst, seq)
	dst = le.AppendUint32(dst, uint32(len(effects)))
	for _, e := range effects {
		dst = append(dst, e.Kind)
		dst = le.AppendUint64(dst, e.Key)
		dst = le.AppendUint64(dst, e.Value)
	}
	return dst
}

// effectBytes is the effect payload size of an encoded batch frame: the
// unit of the primary's lag-bytes accounting.
func effectBytes(frame []byte) uint64 { return uint64(len(frame) - batchHeader) }

// PSyncPayload encodes the attach request a replica sends as the payload
// of an OpPSync request frame.
func PSyncPayload(runID uint64, acked []uint64) []byte {
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, 12+8*len(acked)), runID)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(acked)))
	for _, s := range acked {
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	return buf
}

// parsePSync decodes an OpPSync payload.
func parsePSync(p []byte) (runID uint64, acked []uint64, err error) {
	if len(p) < 12 {
		return 0, nil, errors.New("repl: short PSYNC payload")
	}
	runID = binary.LittleEndian.Uint64(p)
	n := int(binary.LittleEndian.Uint32(p[8:]))
	if n < 0 || len(p) != 12+8*n {
		return 0, nil, errors.New("repl: PSYNC payload length mismatch")
	}
	acked = make([]uint64, n)
	for i := range acked {
		acked[i] = binary.LittleEndian.Uint64(p[12+8*i:])
	}
	return runID, acked, nil
}
