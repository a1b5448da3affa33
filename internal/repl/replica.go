package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/wire"
)

// ReplicaConfig tunes a replication replica.
type ReplicaConfig struct {
	// Primary is the primary server's address ("unix:/path",
	// "tcp:host:port", or bare "host:port").
	Primary string
	// DialTimeout bounds each (re)connection attempt (default 5s).
	DialTimeout time.Duration
	// Reconnect is the pause between attach attempts after a link
	// failure (default 250ms). The replica keeps serving reads from its
	// last applied state while disconnected — that is the staleness
	// contract.
	Reconnect time.Duration
	// WatermarkPath, when non-empty, persists the replica's stream
	// position (primary run identity + per-shard acknowledged sequences)
	// so a restarted replica can tail instead of full-resyncing. Written
	// with ordinary file I/O after applied batches; losing it only costs
	// a snapshot, never correctness, because batch application is
	// idempotent.
	WatermarkPath string
	// ApplyBatch caps how many snapshot effects apply under one fence
	// group during bootstrap (default 256).
	ApplyBatch int
}

// Replica tails a primary's replication stream into a local store and
// keeps it applying across link failures until Close. Reads against the
// store observe every batch whose fence group has been applied — stale by
// up to the link's current lag, never torn mid-group.
type Replica struct {
	st   store.Store
	sess store.Session
	cfg  ReplicaConfig

	mu       sync.Mutex
	conn     net.Conn
	closed   bool
	linkUp   bool
	runID    uint64
	acked    []uint64
	groups   uint64
	opsCount uint64

	done chan struct{}
	wg   sync.WaitGroup
}

// StartReplica opens the replication loop applying cfg.Primary's stream
// into st. It returns immediately; the first attach (and any snapshot)
// happens in the background while st serves possibly-empty reads.
// StartReplica attaches itself as st's replication stats source when the
// store supports it.
func StartReplica(st store.Store, cfg ReplicaConfig) (*Replica, error) {
	if cfg.Primary == "" {
		return nil, errors.New("repl: replica needs a primary address")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.Reconnect <= 0 {
		cfg.Reconnect = 250 * time.Millisecond
	}
	if cfg.ApplyBatch <= 0 {
		cfg.ApplyBatch = 256
	}
	r := &Replica{
		st:   st,
		sess: st.NewSession(),
		cfg:  cfg,
		done: make(chan struct{}),
	}
	r.loadWatermark()
	if src, ok := st.(interface{ SetReplSource(func() store.ReplStats) }); ok {
		src.SetReplSource(r.Stats)
	}
	r.wg.Add(1)
	go r.run()
	return r, nil
}

// Close stops the replication loop, persists the watermark, and leaves
// the store serving whatever it has applied — which is exactly what
// promotion wants. Idempotent.
func (r *Replica) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	if r.conn != nil {
		r.conn.Close()
	}
	r.mu.Unlock()
	close(r.done)
	r.wg.Wait()
	r.saveWatermark()
}

// Stats reports the replica's live replication view (store.ReplStats).
func (r *Replica) Stats() store.ReplStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := store.ReplStats{
		Role:          store.RoleReplica,
		AppliedGroups: r.groups,
		AppliedOps:    r.opsCount,
	}
	if r.linkUp {
		st.Replicas = 1
	}
	for _, s := range r.acked {
		st.LastAckSeq += s
	}
	return st
}

// run is the attach/apply loop: dial, PSYNC, apply until the link dies,
// back off, repeat.
func (r *Replica) run() {
	defer r.wg.Done()
	for {
		_ = r.attachOnce() // a failed link only ends this attach; the loop backs off and retries
		r.mu.Lock()
		r.linkUp = false
		r.conn = nil
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return
		}
		select {
		case <-r.done:
			return
		case <-time.After(r.cfg.Reconnect):
		}
	}
}

// attachOnce runs one connection lifetime: dial, then sync over the link.
func (r *Replica) attachOnce() error {
	network, address := wire.SplitAddr(r.cfg.Primary)
	c, err := net.DialTimeout(network, address, r.cfg.DialTimeout)
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		c.Close()
		return ErrClosed
	}
	r.conn = c
	r.mu.Unlock()
	defer c.Close()
	return r.syncOn(c)
}

// syncOn runs the replica side of one link: handshake, optional wipe for
// a full resync, then stream application.
func (r *Replica) syncOn(c net.Conn) error {
	r.mu.Lock()
	runID := r.runID
	acked := append([]uint64(nil), r.acked...)
	r.mu.Unlock()

	bw := bufio.NewWriterSize(c, 32<<10)
	br := bufio.NewReaderSize(c, 64<<10)
	// Binary-protocol preamble plus the PSYNC request frame; after the
	// server hands the connection to its primary, only replication
	// channel frames flow.
	bw.WriteString(wire.Preamble)
	bw.Write(wire.AppendFrame(nil, OpPSync, PSyncPayload(runID, acked)))
	if err := bw.Flush(); err != nil {
		return err
	}

	op, payload, _, err := wire.ReadFrame(br, nil)
	if err != nil {
		return err
	}
	if op != frameHello || len(payload) != 13 {
		return errors.New("repl: bad HELLO from primary")
	}
	helloRun := binary.LittleEndian.Uint64(payload)
	shards := int(binary.LittleEndian.Uint32(payload[8:]))
	full := payload[12] == 1
	if shards < 1 || shards > 1<<16 {
		return fmt.Errorf("repl: primary reports %d shards", shards)
	}
	if full {
		if err := r.wipe(); err != nil {
			return err
		}
		r.mu.Lock()
		r.runID = helloRun
		r.acked = make([]uint64, shards)
		r.groups, r.opsCount = 0, 0
		r.mu.Unlock()
	} else if len(acked) != shards {
		return errors.New("repl: primary tails a position of another shard count")
	}
	r.mu.Lock()
	r.linkUp = true
	r.mu.Unlock()
	return r.applyStream(br, bw, shards)
}

// applyStream applies the primary's frames after HELLO until the link
// fails, and always returns the error that ended it (io.EOF on a clean end
// of stream). r.acked must hold one position per shard.
//
// Acks are cumulative and sent once per read burst: every frame already
// whole in br is applied first, and only when the next read could block
// does the loop publish the new positions, write one ack per shard it
// touched and flush. That holds whatever frame kind ends the burst, so a
// WAIT gate on the primary never waits on a replica that is itself
// waiting. A malformed frame ends the stream before anything it carries
// is applied or acknowledged.
func (r *Replica) applyStream(br *bufio.Reader, bw *bufio.Writer, shards int) error {
	r.mu.Lock()
	pos := append([]uint64(nil), r.acked...)
	r.mu.Unlock()
	var (
		buf     []byte
		ops     []store.Op
		res     []store.OpResult
		dirty   = make([]bool, shards) // shards to ack at the burst's end
		due     bool                   // some shard is dirty
		groups  uint64                 // applied this burst
		nops    uint64                 // effects applied this burst
		unsaved uint64                 // groups applied since the watermark was saved
		persist bool
	)
	for {
		if due && !wire.Buffered(br) {
			if err := r.ackBurst(bw, pos, dirty, groups, nops); err != nil {
				return err
			}
			due, groups, nops = false, 0, 0
			if persist || unsaved >= 64 {
				r.saveWatermark()
				persist, unsaved = false, 0
			}
		}
		op, payload, nbuf, err := wire.ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			return err
		}
		switch op {
		case frameSnapKV:
			if len(payload) < 4 {
				return errors.New("repl: malformed snapshot frame")
			}
			n := int(binary.LittleEndian.Uint32(payload))
			if len(payload) != 4+16*n {
				return errors.New("repl: malformed snapshot frame")
			}
			ops = ops[:0]
			for i := 0; i < n; i++ {
				k := binary.LittleEndian.Uint64(payload[4+16*i:])
				if k < kv.MinKey || k > kv.MaxKey {
					return errors.New("repl: snapshot key out of range")
				}
				ops = append(ops, store.Op{Kind: store.OpPut, Key: k, Value: binary.LittleEndian.Uint64(payload[12+16*i:])})
			}
			if err := r.apply(ops, &res); err != nil {
				return err
			}
		case frameSnapEnd:
			if len(payload) < 4 {
				return errors.New("repl: malformed snapshot cut")
			}
			n := int(binary.LittleEndian.Uint32(payload))
			if n != shards || len(payload) != 4+8*n {
				return errors.New("repl: malformed snapshot cut")
			}
			// Confirm the bootstrap position so the primary's lag and
			// quorum accounting see this replica as caught up to the cut.
			for sh := 0; sh < n; sh++ {
				pos[sh] = binary.LittleEndian.Uint64(payload[4+8*sh:])
				dirty[sh] = true
			}
			due, persist = true, true
		case frameBatch:
			if len(payload) < 16 {
				return errors.New("repl: malformed batch frame")
			}
			sh := int(binary.LittleEndian.Uint32(payload))
			seq := binary.LittleEndian.Uint64(payload[4:])
			n := int(binary.LittleEndian.Uint32(payload[12:]))
			if sh < 0 || sh >= shards || len(payload) != 16+17*n {
				return errors.New("repl: malformed batch frame")
			}
			ops = ops[:0]
			for i := 0; i < n; i++ {
				e := payload[16+17*i:]
				k := store.Op{Kind: store.OpPut, Key: binary.LittleEndian.Uint64(e[1:]), Value: binary.LittleEndian.Uint64(e[9:])}
				switch {
				case e[0] > effectDel || k.Key < kv.MinKey || k.Key > kv.MaxKey:
					return errors.New("repl: malformed batch effect")
				case e[0] == effectDel:
					k.Kind = store.OpDelete
				}
				ops = append(ops, k)
			}
			if err := r.apply(ops, &res); err != nil {
				return err
			}
			pos[sh] = max(pos[sh], seq)
			dirty[sh], due = true, true
			groups++
			nops += uint64(n)
			unsaved++
		case framePing:
			// Keepalive only.
		default:
			return fmt.Errorf("repl: unexpected frame %d from primary", op)
		}
	}
}

// ackBurst publishes a burst's positions and counters under one lock,
// then writes one cumulative ack per dirty shard, clears dirty and flushes.
func (r *Replica) ackBurst(bw *bufio.Writer, pos []uint64, dirty []bool, groups, nops uint64) error {
	r.mu.Lock()
	for sh, d := range dirty {
		if d {
			r.acked[sh] = pos[sh]
		}
	}
	r.groups += groups
	r.opsCount += nops
	r.mu.Unlock()
	for sh, d := range dirty {
		if !d {
			continue
		}
		dirty[sh] = false
		// Encoded in bw's own free space, so the frame costs no allocation.
		ack := binary.LittleEndian.AppendUint32(wire.AppendHeader(bw.AvailableBuffer(), frameAck, 12), uint32(sh))
		if _, err := bw.Write(binary.LittleEndian.AppendUint64(ack, pos[sh])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// apply runs one batch through the replica store's ordinary session
// surface — fences and durability verdicts included, exactly like any
// local writer — and refuses to continue (and thus to ack) when the
// replica's own backend went degraded.
func (r *Replica) apply(ops []store.Op, res *[]store.OpResult) error {
	if len(ops) == 0 {
		return nil
	}
	*res = r.sess.Apply(ops, *res)
	if err := r.st.DurableErr(); err != nil {
		return fmt.Errorf("repl: replica store degraded: %w", err)
	}
	return nil
}

// wipe deletes everything the store currently holds (full-resync
// bootstrap on a non-empty store: stale state from an earlier primary
// run must not survive under the new image).
func (r *Replica) wipe() error {
	keys := r.st.Contents()
	var res []store.OpResult
	ops := make([]store.Op, 0, r.cfg.ApplyBatch)
	for start := 0; start < len(keys); start += r.cfg.ApplyBatch {
		end := start + r.cfg.ApplyBatch
		if end > len(keys) {
			end = len(keys)
		}
		ops = ops[:0]
		for _, k := range keys[start:end] {
			ops = append(ops, store.Op{Kind: store.OpDelete, Key: k})
		}
		if err := r.apply(ops, &res); err != nil {
			return err
		}
	}
	return nil
}

// Watermark file: "v1 <runID> <n> <seq0> <seq1> ...\n", written
// atomically via rename. Losing or corrupting it costs a full resync,
// nothing more, so plain os file I/O is fine here (and the vfs fault
// matrix does not need to cover it).
func (r *Replica) saveWatermark() {
	path := r.cfg.WatermarkPath
	if path == "" {
		return
	}
	r.mu.Lock()
	var sb strings.Builder
	sb.WriteString("v1 ")
	sb.WriteString(strconv.FormatUint(r.runID, 10))
	sb.WriteString(" ")
	sb.WriteString(strconv.Itoa(len(r.acked)))
	for _, s := range r.acked {
		sb.WriteString(" ")
		sb.WriteString(strconv.FormatUint(s, 10))
	}
	sb.WriteString("\n")
	r.mu.Unlock()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(sb.String()), 0o644); err != nil {
		return
	}
	os.Rename(tmp, path)
}

func (r *Replica) loadWatermark() {
	path := r.cfg.WatermarkPath
	if path == "" {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	fields := strings.Fields(string(data))
	if len(fields) < 3 || fields[0] != "v1" {
		return
	}
	runID, err1 := strconv.ParseUint(fields[1], 10, 64)
	n, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || n < 0 || len(fields) != 3+n {
		return
	}
	acked := make([]uint64, n)
	for i := range acked {
		if acked[i], err = strconv.ParseUint(fields[3+i], 10, 64); err != nil {
			return
		}
	}
	r.runID, r.acked = runID, acked
}
