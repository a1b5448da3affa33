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

// PrimaryConfig tunes a replication primary. The write quorum K is the
// store's (store.Config.WaitReplicas, read through Store.Repl): with K > 0
// every write acknowledgement waits until K replicas confirmed its fence
// group (replied ⇒ replicated); 0 streams best-effort and never delays an
// ack.
type PrimaryConfig struct {
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
	k   int // write quorum, fixed at NewPrimary
	// runID names this primary instance in replica watermarks: the
	// durable boot counter when the store is file-backed (stream
	// positions die with the process, and so does the boot), a random
	// nonce otherwise.
	runID uint64

	mu     sync.Mutex
	logs   []*shardLog
	feeds  map[*feeder]struct{}
	waits  []waitQueue // per shard: withheld write acknowledgements
	closed bool
	// effects is CommittedGroup's scratch: a group's effects live here
	// only until they are encoded into the frame the log keeps.
	effects []Effect

	// waitWake kicks the timeout monitor when waiters register.
	waitWake chan struct{}
	done     chan struct{}

	lastAck uint64 // highest summed ack vector any replica reached
}

// waiter is one withheld WAIT-mode write acknowledgement: the write's
// completer and committed result, released when K replicas acknowledge
// its group (shard, seq), or failed with ErrQuorum once deadline passes.
type waiter struct {
	seq      uint64
	c        batcher.Completer
	res      store.OpResult
	deadline time.Time
}

// waitQueue is one shard's waiters in sequence order, so deadlines are
// monotone too: release and expiry both pop from the front. The backing
// array is reused, so a steady WAIT load allocates nothing here.
type waitQueue struct {
	q    []waiter
	head int
}

func (w *waitQueue) len() int         { return len(w.q) - w.head }
func (w *waitQueue) at(i int) *waiter { return &w.q[w.head+i] }
func (w *waitQueue) push(x waiter)    { w.q = append(w.q, x) }

// popTo moves the first n waiters onto dst. The array compacts once its
// popped prefix outgrows the live rest, keeping pops amortized O(1).
func (w *waitQueue) popTo(dst []waiter, n int) []waiter {
	dst = append(dst, w.q[w.head:w.head+n]...)
	clear(w.q[w.head : w.head+n]) // do not pin completers
	w.head += n
	if w.head > len(w.q)/2 {
		live := copy(w.q, w.q[w.head:])
		clear(w.q[live:])
		w.q, w.head = w.q[:live], 0
	}
	return dst
}

// complete finishes every waiter in ws, with its committed result when
// err is nil, and clears ws so the scratch it lives in pins nothing.
func complete(ws []waiter, err error) {
	for i := range ws {
		if err != nil {
			ws[i].c.Complete(store.OpResult{}, err)
		} else {
			ws[i].c.Complete(ws[i].res, nil)
		}
	}
	clear(ws)
}

// feeder is one attached replica link, owned by its ServeConn call.
type feeder struct {
	conn  net.Conn
	acked []uint64 // per-shard acknowledged position, under p.mu
	next  []uint64 // per-shard next position to stream, writer-side only
	wake  chan struct{}
	gone  bool
	// released is onAck's scratch; only the link's ack reader uses it.
	released []waiter
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
		k:        st.Repl().WaitReplicas,
		runID:    st.Boot(),
		logs:     make([]*shardLog, shards),
		feeds:    make(map[*feeder]struct{}),
		waits:    make([]waitQueue, shards),
		waitWake: make(chan struct{}, 1),
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
	go p.expireWaiters()
	return p
}

// Close fails every pending WAIT write with ErrQuorum, disconnects every
// replica link and stops the monitor. Idempotent.
func (p *Primary) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var pending []waiter
	for sh := range p.waits {
		q := &p.waits[sh]
		pending = q.popTo(pending, q.len())
	}
	for f := range p.feeds {
		f.gone = true
		if f.conn != nil {
			f.conn.Close()
		}
	}
	p.mu.Unlock()
	close(p.done)
	complete(pending, ErrQuorum)
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
		if !ops[i].Kind.Read() {
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
	stream := len(p.feeds) > 0 || p.k > 0
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
	if p.k <= 0 {
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
	// Acks are cumulative per shard, so a replica that already confirmed
	// this position (possible when the committed callback raced an eager
	// ack) counts immediately.
	if p.ackCountLocked(shardOf, seq) >= p.k {
		p.mu.Unlock()
		for _, i := range idxs {
			if !ops[i].Kind.Read() {
				cs[i].Complete(res[i], nil)
			}
		}
		return true
	}
	deadline := time.Now().Add(p.cfg.WaitTimeout)
	q := &p.waits[shardOf]
	for _, i := range idxs {
		if !ops[i].Kind.Read() {
			q.push(waiter{seq: seq, c: cs[i], res: res[i], deadline: deadline})
		}
	}
	select {
	case p.waitWake <- struct{}{}:
	default:
	}
	p.mu.Unlock()
	return true
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
// waiter the new quorum covers. Waiters release strictly in per-shard
// sequence order — acks are cumulative, so a later group's quorum implies
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
	q := &p.waits[shardOf]
	n := 0
	for ; n < q.len(); n++ {
		// A group's writes share one seq: count its acks once.
		if w := q.at(n); (n == 0 || w.seq != q.at(n-1).seq) && p.ackCountLocked(shardOf, w.seq) < p.k {
			break
		}
	}
	f.released = q.popTo(f.released[:0], n)
	p.mu.Unlock()
	complete(f.released, nil)
}

// expireWaiters is the quorum timeout monitor: a single goroutine that
// fails overdue waiters with ErrQuorum. Deadlines are monotone per shard
// (waiters register in commit order with a fixed timeout), so expiry pops
// from the front like release does.
func (p *Primary) expireWaiters() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var overdue []waiter
	for {
		p.mu.Lock()
		var next time.Time
		for sh := range p.waits {
			q := &p.waits[sh]
			if q.len() > 0 && (next.IsZero() || q.at(0).deadline.Before(next)) {
				next = q.at(0).deadline
			}
		}
		p.mu.Unlock()
		if next.IsZero() {
			select {
			case <-p.waitWake:
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
		case <-p.waitWake:
			if !timer.Stop() {
				<-timer.C
			}
			continue
		case <-p.done:
			return
		}
		now := time.Now()
		p.mu.Lock()
		for sh := range p.waits {
			q := &p.waits[sh]
			n := 0
			for n < q.len() && !q.at(n).deadline.After(now) {
				n++
			}
			overdue = q.popTo(overdue, n)
		}
		p.mu.Unlock()
		complete(overdue, ErrQuorum)
		overdue = overdue[:0]
	}
}

// Stats reports the primary's live replication view (store.ReplStats).
func (p *Primary) Stats() store.ReplStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := store.ReplStats{
		Role:         store.RolePrimary,
		WaitReplicas: p.k,
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
