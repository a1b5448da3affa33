package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/batcher"
	"repro/internal/kv"
	"repro/internal/store"
	"repro/internal/wire"
)

// PrimaryConfig tunes a replication primary.
type PrimaryConfig struct {
	// WaitReplicas is the write quorum K: with K > 0 every write
	// acknowledgement waits until K replicas confirmed its fence group
	// (replied ⇒ replicated); 0 streams best-effort and never delays an
	// ack.
	WaitReplicas int
	// WaitTimeout bounds how long a WAIT-mode write waits for its quorum
	// before failing with ErrQuorum (default 2s).
	WaitTimeout time.Duration
}

const (
	// logGroups is the per-shard replication log retention in fence
	// groups: a replica that falls further behind than this must
	// full-resync.
	logGroups = 1024
	// pingEvery is the keepalive interval on idle replica links.
	pingEvery = time.Second
)

// Primary owns the per-shard replication logs and the attached replica
// links of one serving store. It implements batcher.GroupSink: the
// group-commit pool hands it every committed fence group at the commit
// point. One Primary serves any number of replicas; with none attached
// and no quorum configured it is a cheap no-op sink.
type Primary struct {
	st  store.Store
	cfg PrimaryConfig
	// runID names this primary instance in replica watermarks: the
	// durable boot counter when the store is file-backed (stream
	// positions die with the process, and so does the boot), a random
	// nonce otherwise.
	runID uint64

	mu     sync.Mutex
	logs   []*shardLog
	feeds  map[*feeder]struct{}
	gates  [][]*gate // per shard, FIFO in sequence order
	closed bool
	// effects is CommittedGroup's scratch: a group's effects live here
	// only until they are encoded into the frame the log keeps.
	effects []Effect

	// gateWake kicks the timeout monitor when the first gate registers.
	gateWake chan struct{}
	done     chan struct{}

	lastAck uint64 // highest summed ack vector any replica reached
}

// gate is one fence group's withheld write acknowledgements: the
// completers and results of every write in the group, released when
// WaitReplicas replicas acknowledge (shard, seq) or the deadline passes.
type gate struct {
	seq      uint64
	cs       []batcher.Completer
	res      []store.OpResult
	deadline time.Time
}

// feeder is one attached replica link, owned by its ServeConn call.
type feeder struct {
	conn  net.Conn
	acked []uint64 // per-shard acknowledged position, under p.mu
	next  []uint64 // per-shard next position to stream, writer-side only
	wake  chan struct{}
	gone  bool
}

// NewPrimary builds the primary side over st. Wire it into the serving
// pool via batcher.PoolConfig.OnCommit, and hand attaching replica
// connections to ServeConn. NewPrimary attaches itself as st's
// replication stats source when the store supports it.
func NewPrimary(st store.Store, cfg PrimaryConfig) *Primary {
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 2 * time.Second
	}
	shards := st.Shards()
	p := &Primary{
		st:       st,
		cfg:      cfg,
		runID:    st.Boot(),
		logs:     make([]*shardLog, shards),
		feeds:    make(map[*feeder]struct{}),
		gates:    make([][]*gate, shards),
		gateWake: make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	for i := range p.logs {
		p.logs[i] = newShardLog(logGroups)
	}
	if p.runID == 0 {
		// Non-durable primary: no boot counter to borrow, so a random
		// nonzero nonce names this run (any restart loses the in-memory
		// logs, and a changed runID is exactly what forces replicas to
		// full-resync).
		for p.runID == 0 {
			p.runID = rand.Uint64()
		}
	}
	if src, ok := st.(interface{ SetReplSource(func() store.ReplStats) }); ok {
		src.SetReplSource(p.Stats)
	}
	go p.expireGates()
	return p
}

// Close fails every pending WAIT gate with ErrQuorum, disconnects every
// replica link and stops the monitor. Idempotent.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var pending []*gate
	for sh := range p.gates {
		pending = append(pending, p.gates[sh]...)
		p.gates[sh] = nil
	}
	for f := range p.feeds {
		f.gone = true
		if f.conn != nil {
			f.conn.Close()
		}
	}
	p.mu.Unlock()
	close(p.done)
	for _, g := range pending {
		g.fail(ErrQuorum)
	}
}

// CommittedGroup is the batcher.GroupSink surface: called at each fence
// group's commit point. It appends the group's effects to the owning
// shard's log, wakes the streaming feeders, and under WAIT mode takes
// ownership of the group's write completions (see package comment).
func (p *Primary) CommittedGroup(ops []store.Op, res []store.OpResult, idxs []int, cs []batcher.Completer) bool {
	// A fence group holds one shard's keys by construction; scans-only
	// callbacks carry no writes and nothing to replicate.
	firstWrite := -1
	for _, i := range idxs {
		if isWriteOp(ops[i]) {
			firstWrite = i
			break
		}
	}
	if firstWrite < 0 {
		return false
	}
	shardOf := p.st.ShardFor(ops[firstWrite].Key)

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	stream := len(p.feeds) > 0 || p.cfg.WaitReplicas > 0
	if !stream {
		// Nobody is listening and no quorum is required: return before
		// extracting effects so an unreplicated server's write path stays
		// allocation-free. A replica attaching later full-resyncs anyway
		// (the empty log cannot be tailed).
		p.mu.Unlock()
		return false
	}
	// Encoded under the mutex: the log must append in commit order, and
	// the frame is retained by the log, so it is the group's one fresh
	// allocation.
	p.effects = effectsOf(p.effects[:0], ops, res, idxs)
	nEffects := len(p.effects)
	l := p.logs[shardOf]
	seq := l.head() + 1
	l.append(appendBatchFrame(make([]byte, 0, batchHeader+17*nEffects), shardOf, seq, p.effects))
	for f := range p.feeds {
		select {
		case f.wake <- struct{}{}:
		default:
		}
	}
	k := p.cfg.WaitReplicas
	if k <= 0 {
		p.mu.Unlock()
		return false
	}
	if nEffects == 0 {
		// Nothing changed state (failed inserts, absent deletes): there
		// is nothing for a replica to confirm, so the group counts as
		// trivially replicated and the pool acks it now.
		p.mu.Unlock()
		return false
	}
	g := &gate{seq: seq, deadline: time.Now().Add(p.cfg.WaitTimeout)}
	for _, i := range idxs {
		if isWriteOp(ops[i]) {
			g.cs = append(g.cs, cs[i])
			g.res = append(g.res, res[i])
		}
	}
	// Acks are cumulative per shard, so a replica that already confirmed
	// this position (possible when the committed callback raced an eager
	// ack) counts immediately.
	if p.ackCountLocked(shardOf, seq) >= k {
		p.mu.Unlock()
		g.release()
		return true
	}
	p.gates[shardOf] = append(p.gates[shardOf], g)
	select {
	case p.gateWake <- struct{}{}:
	default:
	}
	p.mu.Unlock()
	return true
}

// release completes every withheld write with its committed result.
func (g *gate) release() {
	for i, c := range g.cs {
		c.Complete(g.res[i], nil)
	}
}

// fail completes every withheld write with err (the write is durable on
// the primary; only the replication confirmation is missing).
func (g *gate) fail(err error) {
	for _, c := range g.cs {
		c.Complete(store.OpResult{}, err)
	}
}

// ackCountLocked counts replicas that acknowledged shard through seq.
func (p *Primary) ackCountLocked(shardOf int, seq uint64) int {
	n := 0
	for f := range p.feeds {
		if !f.gone && f.acked[shardOf] >= seq {
			n++
		}
	}
	return n
}

// onAck records a replica's cumulative acknowledgement and releases every
// gate the new quorum covers. Gates release strictly in per-shard
// sequence order — acks are cumulative, so a later gate's quorum implies
// the earlier one's.
func (p *Primary) onAck(f *feeder, shardOf int, seq uint64) {
	p.mu.Lock()
	if shardOf < 0 || shardOf >= len(p.logs) {
		p.mu.Unlock()
		return
	}
	if seq > f.acked[shardOf] {
		f.acked[shardOf] = seq
	}
	var sum uint64
	for _, s := range f.acked {
		sum += s
	}
	if sum > p.lastAck {
		p.lastAck = sum
	}
	var ready []*gate
	k := p.cfg.WaitReplicas
	q := p.gates[shardOf]
	for len(q) > 0 && p.ackCountLocked(shardOf, q[0].seq) >= k {
		ready = append(ready, q[0])
		q = q[1:]
	}
	p.gates[shardOf] = q
	p.mu.Unlock()
	for _, g := range ready {
		g.release()
	}
}

// expireGates is the quorum timeout monitor: a single goroutine that
// fails overdue gates with ErrQuorum. Deadlines are monotone per shard
// (gates register in commit order with a fixed timeout), so expiry pops
// from the front like release does.
func (p *Primary) expireGates() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		p.mu.Lock()
		var next time.Time
		for _, q := range p.gates {
			if len(q) > 0 && (next.IsZero() || q[0].deadline.Before(next)) {
				next = q[0].deadline
			}
		}
		p.mu.Unlock()
		if next.IsZero() {
			select {
			case <-p.gateWake:
				continue
			case <-p.done:
				return
			}
		}
		d := time.Until(next)
		if d < 0 {
			d = 0
		}
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-p.gateWake:
			if !timer.Stop() {
				<-timer.C
			}
			continue
		case <-p.done:
			return
		}
		now := time.Now()
		var overdue []*gate
		p.mu.Lock()
		for sh, q := range p.gates {
			n := 0
			for n < len(q) && !q[n].deadline.After(now) {
				n++
			}
			if n > 0 {
				overdue = append(overdue, q[:n]...)
				p.gates[sh] = q[n:]
			}
		}
		p.mu.Unlock()
		for _, g := range overdue {
			g.fail(ErrQuorum)
		}
	}
}

// Stats reports the primary's live replication view (store.ReplStats).
func (p *Primary) Stats() store.ReplStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := store.ReplStats{
		Role:         store.RolePrimary,
		WaitReplicas: p.cfg.WaitReplicas,
		LastAckSeq:   p.lastAck,
	}
	for f := range p.feeds {
		if f.gone {
			continue
		}
		st.Replicas++
		var lagGroups, lagBytes uint64
		for sh, l := range p.logs {
			if h := l.head(); h > f.acked[sh] {
				lagGroups += h - f.acked[sh]
				lagBytes += l.bytesBetween(f.acked[sh], h)
			}
		}
		if lagGroups > st.MaxLagGroups {
			st.MaxLagGroups = lagGroups
		}
		if lagBytes > st.MaxLagBytes {
			st.MaxLagBytes = lagBytes
		}
	}
	return st
}

// ServeConn owns one replica connection after the server recognized its
// PSYNC request: psync is the request payload, br the connection's read
// side (it may hold buffered bytes), sess a store session ServeConn may
// use for snapshot reads for as long as it runs. It blocks until the link
// fails or the primary closes, and always leaves the connection closed.
func (p *Primary) ServeConn(c net.Conn, br *bufio.Reader, sess store.Session, psync []byte) error {
	defer c.Close()
	runID, acked, err := parsePSync(psync)
	if err != nil {
		return err
	}
	// The replication channel manages its own liveness (pings +
	// TCP/socket teardown); any idle deadline the request loop armed
	// must not fire mid-stream.
	c.SetReadDeadline(time.Time{})

	f := &feeder{
		conn: c,
		wake: make(chan struct{}, 1),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	shards := len(p.logs)
	full := runID != p.runID || len(acked) != shards
	if !full {
		for sh, l := range p.logs {
			if !l.canTail(acked[sh]) {
				full = true
				break
			}
		}
	}
	// A full resync's positions are assigned during the snapshot below;
	// until then the feeder is parked at "caught up to nothing" so lag
	// accounting stays sane.
	f.acked, f.next = make([]uint64, shards), make([]uint64, shards)
	if !full {
		copy(f.acked, acked)
		for sh := range f.next {
			f.next[sh] = acked[sh] + 1
		}
	}
	p.feeds[f] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		f.gone = true
		delete(p.feeds, f)
		p.mu.Unlock()
	}()

	bw := bufio.NewWriterSize(c, 64<<10)
	var hello [13]byte
	binary.LittleEndian.PutUint64(hello[:8], p.runID)
	binary.LittleEndian.PutUint32(hello[8:12], uint32(shards))
	if full {
		hello[12] = 1
	}
	if _, err := bw.Write(wire.AppendFrame(nil, frameHello, hello[:])); err != nil {
		return err
	}
	// HELLO goes out at once, so a resyncing replica wipes while the
	// snapshot is read; streamTo flushes whatever follows.
	if err := bw.Flush(); err != nil {
		return err
	}
	if full {
		if err := p.sendSnapshot(bw, sess, f); err != nil {
			return err
		}
	}

	// Split: this goroutine reads cumulative acks, a writer goroutine
	// streams batches as the logs grow.
	errc := make(chan error, 2)
	go func() { errc <- p.streamTo(bw, f) }()
	go func() { errc <- p.readAcks(br, f) }()
	err = <-errc
	c.Close() // unblocks the other side
	<-errc
	return err
}

// sendSnapshot ships the store's live contents cut at the current log
// head: every effect at or below the cut is in the snapshot, effects
// above it re-apply idempotently from the stream. The cut doubles as the
// replica's starting position.
//
// The contents are read by one whole-range Scan on the feeder's own
// session, so each structure walk runs inside its epoch. The scan only
// collects pairs; the frames are written once it returns, so a stalled
// replica never holds a walk open and pins reclamation on this store.
func (p *Primary) sendSnapshot(bw *bufio.Writer, sess store.Session, f *feeder) error {
	p.mu.Lock()
	cut := make([]uint64, len(p.logs))
	for sh, l := range p.logs {
		cut[sh] = l.head()
	}
	p.mu.Unlock()

	var pairs []byte // 16 bytes each: key, value
	if err := sess.Scan(kv.MinKey, kv.MaxKey, func(k, v uint64) bool {
		pairs = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(pairs, k), v)
		return true
	}); err != nil {
		return err
	}
	var buf []byte
	for len(pairs) > 0 {
		chunk := pairs[:min(len(pairs), 16*snapChunk)]
		pairs = pairs[len(chunk):]
		buf = binary.LittleEndian.AppendUint32(wire.AppendHeader(buf[:0], frameSnapKV, 4+len(chunk)), uint32(len(chunk)/16))
		if _, err := bw.Write(append(buf, chunk...)); err != nil {
			return err
		}
	}
	buf = binary.LittleEndian.AppendUint32(wire.AppendHeader(buf[:0], frameSnapEnd, 4+8*len(cut)), uint32(len(cut)))
	for _, s := range cut {
		buf = binary.LittleEndian.AppendUint64(buf, s)
	}
	if _, err := bw.Write(buf); err != nil {
		return err
	}

	p.mu.Lock()
	copy(f.acked, cut)
	for sh := range f.next {
		f.next[sh] = cut[sh] + 1
	}
	p.mu.Unlock()
	return nil
}

// streamTo is a feeder's writer loop: send every log group past the
// feeder's positions, then sleep on the wake channel (with a keepalive
// ping on idle).
func (p *Primary) streamTo(bw *bufio.Writer, f *feeder) error {
	var pending [][]byte
	var buf []byte
	ping := time.NewTicker(pingEvery)
	defer ping.Stop()
	for {
		sent := false
		for sh := range f.next {
			p.mu.Lock()
			if !p.logs[sh].canTail(f.next[sh] - 1) {
				p.mu.Unlock()
				// The replica fell off the bounded log: it cannot be
				// served from here. Drop the link; it will reconnect
				// and full-resync.
				return errors.New("repl: replica fell behind the log window")
			}
			pending = p.logs[sh].from(f.next[sh]-1, pending[:0])
			p.mu.Unlock()
			for _, frame := range pending {
				if _, err := bw.Write(frame); err != nil {
					return err
				}
				f.next[sh]++
				sent = true
			}
			clear(pending) // do not pin frames the ring has dropped
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		if sent {
			continue // the logs may have grown while we were writing
		}
		select {
		case <-f.wake:
		case <-ping.C:
			buf = wire.AppendFrame(buf[:0], framePing, nil)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		case <-p.done:
			return ErrClosed
		}
	}
}

// readAcks is a feeder's reader loop: cumulative ack frames drive quorum
// release and lag accounting.
func (p *Primary) readAcks(br *bufio.Reader, f *feeder) error {
	var buf []byte
	for {
		op, payload, nbuf, err := wire.ReadFrame(br, buf)
		buf = nbuf
		if err != nil {
			return err
		}
		if op != frameAck || len(payload) != 12 {
			return errors.New("repl: unexpected frame from replica")
		}
		sh := int(binary.LittleEndian.Uint32(payload))
		seq := binary.LittleEndian.Uint64(payload[4:])
		p.onAck(f, sh, seq)
	}
}

var _ batcher.GroupSink = (*Primary)(nil)
