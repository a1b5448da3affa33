// Package server is the network front end of the durable store: a
// pipelined wire protocol over TCP or Unix sockets on top of store.Store,
// with the shard-affine group-commit pool (internal/batcher.Pool) at its
// core. Each pool worker owns one shard group's session and runs its own
// group-commit loop; a connection hands decoded writes to the owning
// worker through a bounded ring, so the commit fence durable
// linearizability demands before an acknowledgement is paid once per shard
// group per flush across all connections — the network-level analogue of
// store.Session.Apply's per-batch amortization, without a central queue.
//
// # Protocols
//
// Two protocols share every listener, negotiated per connection by the
// first byte: a text protocol (RESP-lite) and a length-prefixed binary
// frame protocol. A first byte of 0x80 — never the start of a text
// command — selects binary; anything else is text.
//
// Text requests are single lines of space-separated decimal fields,
// terminated by LF (CRLF accepted). Keys and values are uint64:
//
//	PING                      -> +PONG
//	GET k                     -> $value | $-1
//	PUT k v                   -> +OK                 (atomic upsert)
//	INSERT k v                -> :1 | :0             (1 = inserted)
//	DEL k                     -> :1 | :0             (1 = deleted)
//	UPDATE k v                -> $newvalue | $-1     (set to v if present)
//	SCAN lo hi [max]          -> *n, then n lines "k v"
//	MGET k1 k2 ... kn         -> *n, then n lines $value | $-1
//	STATS                     -> *n, then n lines "name value"
//	QUIT                      -> +OK, connection closes
//
// Errors are "-ERR message". The binary protocol carries the same
// operation vocabulary in fixed-layout frames with no parsing or
// formatting of decimals — see binary.go for the exact layout.
//
// Both protocols decode into one request model (request.go: the command
// table, request, reply and the codec interface); each protocol is one
// codec (text.go, binary.go) that the server and Client share, and every
// command runs through one exec. An MGET may ask for at most
// (wire.MaxFrame-5)/9 keys, so that its binary reply fits one frame.
//
// Clients of either protocol may pipeline: the server replies in request
// order, and a reply to a write is sent only after the commit fence
// covering it has landed (reply-after-fence; see DESIGN.md). Within one
// connection, a read observes every write the same connection issued
// before it. A GET on a connection with nothing in the pool runs inline on
// the connection's session; behind outstanding requests it rides its key's
// worker ring, which applies in FIFO order, so every earlier write to that
// key is applied first and the reader goroutine never waits for a commit.
// MGET, SCAN, STATS and PROMOTE span shards and wait for every outstanding
// request instead.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/batcher"
	"repro/internal/repl"
	"repro/internal/store"
	"repro/internal/wire"
)

// Config tunes a Server.
type Config struct {
	// MaxConns bounds concurrent connections (each holds a read session of
	// the store while open; default 64). Excess connections are refused
	// with an error reply.
	MaxConns int
	// IdleTimeout closes a connection that has delivered no complete
	// request for this long (0 = no limit). The clock re-arms whenever the
	// server is about to wait on the socket for the rest of the next frame —
	// once per burst of pipelined requests, not once per request — so a slow
	// pipeline of replies never trips it, only a client that has gone quiet
	// (or dribbles one frame) while holding a session slot.
	IdleTimeout time.Duration
	// WriteTimeout bounds each write of a reply burst to the socket (0 = no
	// limit): a client that stops reading cannot pin a handler forever once
	// its kernel buffer fills.
	WriteTimeout time.Duration
	// WaitTimeout bounds a WAIT-mode write's wait for its replica quorum
	// before it fails with a typed quorum error (default 2s). The quorum K
	// itself is the store's (store.Config.WaitReplicas).
	WaitTimeout time.Duration
}

// pipeline bounds the per-connection reply queue: a client may have at
// most this many requests outstanding before the server stops reading its
// socket.
const pipeline = 128

// Server serves the store protocol. One Server may serve many listeners.
type Server struct {
	st   store.Store
	pool *batcher.Pool
	cfg  Config

	// prim is the replication primary hooked into the pool's commit
	// point. It always exists on a store-backed server — inactive it is a
	// cheap no-op sink — so attaching a replica or promoting never needs
	// to rewire the pool. readOnly latches replica mode: writes are
	// refused until PROMOTE clears it.
	prim     *repl.Primary
	readOnly atomic.Bool

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	sessions  chan store.Session
	created   int
	closed    bool
	replica   *repl.Replica // live replication link in replica mode

	handlers sync.WaitGroup
}

// New builds a server over st. The server owns one pool session per worker
// (one worker per shard); read sessions are drawn from a pool of at most
// cfg.MaxConns. Callers must ensure the store was opened with
// MaxSessions ≥ MaxConns + shards + 1.
func New(st store.Store, cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	prim := repl.NewPrimary(st, repl.PrimaryConfig{WaitTimeout: cfg.WaitTimeout})
	return &Server{
		st:        st,
		pool:      batcher.NewPool(st, batcher.PoolConfig{OnCommit: prim}),
		cfg:       cfg,
		prim:      prim,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		sessions:  make(chan store.Session, cfg.MaxConns),
	}
}

// StartReplica switches the server into replica mode: writes are refused
// with a REPLICA error, and a background link tails primaryAddr's
// replication stream into the store (full snapshot on first attach, tail
// from the persisted watermark after a restart when watermarkPath is
// non-empty). Reads keep serving throughout — stale by at most the
// link's lag. Call before serving traffic; Promote ends replica mode.
func (s *Server) StartReplica(primaryAddr, watermarkPath string) error {
	r, err := repl.StartReplica(s.st, repl.ReplicaConfig{
		Primary:       primaryAddr,
		WatermarkPath: watermarkPath,
	})
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.replica = r
	s.mu.Unlock()
	s.readOnly.Store(true)
	return nil
}

// Promote ends replica mode: the replication link closes (keeping every
// batch already applied), writes open up, and the server's own primary —
// which was wired into the commit point all along — takes over the
// replication stats source so new replicas may attach to the promoted
// server. Idempotent; a no-op on a server that is already a primary.
func (s *Server) Promote() {
	s.mu.Lock()
	r := s.replica
	s.replica = nil
	s.mu.Unlock()
	if r != nil {
		r.Close()
	}
	s.readOnly.Store(false)
	if src, ok := s.st.(interface{ SetReplSource(func() store.ReplStats) }); ok {
		src.SetReplSource(s.prim.Stats)
	}
}

// CheckpointErr reports the first error an automatic size-threshold
// checkpoint returned (nil normally); callers surface it at shutdown.
func (s *Server) CheckpointErr() error { return s.pool.CheckpointErr() }

// Listen resolves an address of the form "unix:/path/to.sock",
// "tcp:host:port", or a bare "host:port" (TCP). A Unix socket file left
// behind by a dead server is detected — the bind fails with EADDRINUSE and
// nothing answers a probe connection — and removed before one retry, so a
// restart succeeds without a second live server ever being able to steal
// the address. The probe-remove-rebind sequence is serialized through a
// flock on a sidecar "<path>.lock" file, so two simultaneously restarting
// servers cannot unlink each other's fresh bind; the loser sees the
// winner answer its probe and fails with the original EADDRINUSE.
func Listen(addr string) (net.Listener, error) {
	network, address := wire.SplitAddr(addr)
	ln, err := net.Listen(network, address)
	if err == nil || network != "unix" || !errors.Is(err, syscall.EADDRINUSE) {
		return ln, err
	}
	lock, lerr := os.OpenFile(address+".lock", os.O_CREATE|os.O_RDWR, 0o600)
	if lerr != nil {
		return nil, err
	}
	defer lock.Close() // Close drops the flock
	if syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) != nil {
		// Another process is mid-takeover: the address is theirs now.
		return nil, err
	}
	if c, derr := net.DialTimeout(network, address, 250*time.Millisecond); derr == nil {
		c.Close() // a live server answered: genuinely in use
		return nil, err
	} else if !errors.Is(derr, syscall.ECONNREFUSED) && !errors.Is(derr, os.ErrNotExist) {
		// Only a refused connection (or the file vanishing) proves the
		// owner is dead. Anything else — e.g. EAGAIN from a live server
		// whose accept backlog is full — must not cost it the socket.
		return nil, err
	}
	if rerr := os.Remove(address); rerr != nil && !errors.Is(rerr, os.ErrNotExist) {
		return nil, err
	}
	return net.Listen(network, address)
}

// Serve accepts connections on ln until Close. It returns nil after Close
// (also when called after Close, which closes ln at once), or the accept
// error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.handlers.Done()
			s.handle(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every live connection, waits for the
// handlers to drain, and flushes and stops the worker pool.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	replica := s.replica
	s.replica = nil
	s.mu.Unlock()
	if replica != nil {
		replica.Close()
	}
	// Fail pending WAIT writes now, before waiting on the handlers: their
	// writer goroutines drain queued replies, and a write held to its full
	// quorum timeout would stall shutdown for nothing.
	s.prim.Close()
	s.handlers.Wait()
	s.pool.Close()
}

// getSession draws a read session from the pool, creating one if the pool
// has headroom.
func (s *Server) getSession() (store.Session, bool) {
	select {
	case sess := <-s.sessions:
		return sess, true
	default:
	}
	s.mu.Lock()
	if s.created < s.cfg.MaxConns {
		s.created++
		s.mu.Unlock()
		return s.st.NewSession(), true
	}
	s.mu.Unlock()
	// Pool exhausted and no free session: refuse rather than block, so a
	// connection flood cannot wedge the accept loop's handlers.
	return nil, false
}

func (s *Server) putSession(sess store.Session) { s.sessions <- sess }

// slot is one in-order reply. A connection owns pipeline slots, recycled
// through the free channel; the writer goroutine sends buf once the ready
// token arrives. Slots submitted to the pool (writes, and GETs behind
// outstanding requests) are completed by it (slot implements
// batcher.Completer); inline replies send their own token synchronously.
type slot struct {
	cs    *connState
	ready chan struct{} // capacity 1: one token per completion
	buf   []byte
	kind  replyKind // how a completed request renders
}

// Complete renders the committed request's result into the slot's reused
// buffer and releases the writer (reply-after-fence: the pool calls this
// only after the covering commit fence landed, or with an error when it
// never will). The request leaves the connection's in-flight count before
// its reply is released, so a client that has read every reply finds its
// next GET inline.
func (sl *slot) Complete(res store.OpResult, err error) {
	r := reply{kind: sl.kind, ok: res.OK, v: res.Value}
	if err != nil {
		r = reply{kind: replyErr, msg: wireErrMsg(err)}
	}
	sl.buf = sl.cs.codec.appendReply(sl.buf[:0], r)
	sl.cs.pooled.done()
	sl.ready <- struct{}{}
}

// handle runs one connection: a reader goroutine (this one) decodes and
// executes requests, a writer goroutine sends completed replies in
// request order. The fixed slot set is the pipelining window and the
// backpressure: when a client floods requests faster than commits, the
// reader blocks acquiring a free slot and the socket fills.
func (s *Server) handle(c net.Conn) {
	defer c.Close()
	sess, ok := s.getSession()
	if !ok {
		// The refusal happens before protocol negotiation, so it is always
		// textual; a binary client sees the connection close on a bad frame.
		fmt.Fprintf(c, "-ERR max connections (%d) reached\r\n", s.cfg.MaxConns)
		return
	}
	defer s.putSession(sess)

	br := bufio.NewReaderSize(c, 64<<10)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	var cd codec = &textCodec{}
	if first[0] == wire.Magic {
		if pre, err := br.Peek(2); err != nil || pre[1] != wire.Version {
			fmt.Fprintf(c, "-ERR unsupported binary protocol version\r\n")
			return
		}
		br.Discard(2)
		cd = &binCodec{}
	}

	cs := newConnState(s, sess, cd)
	cs.conn = c
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		var w io.Writer = c
		if wt := s.cfg.WriteTimeout; wt > 0 {
			w = deadlineWriter{c: c, d: wt}
		}
		bw := bufio.NewWriterSize(w, 64<<10)
		for sl := range cs.order {
			<-sl.ready
			bw.Write(sl.buf)
			// Flush only when no further reply is queued: pipelined replies
			// coalesce into few syscalls.
			if len(cs.order) == 0 {
				bw.Flush()
			}
			cs.free <- sl
		}
		bw.Flush()
	}()
	// Stop the reply stream and let the writer drain every reply —
	// including writes still waiting on their fence (a QUIT's +OK must reach
	// the wire) — before the socket closes or changes hands.
	drain := sync.OnceFunc(func() {
		close(cs.order)
		writerWG.Wait()
	})
	defer drain()

	armIdle := cs.armIdle
	for {
		req, err := cd.readRequest(br, armIdle)
		if errors.Is(err, errFraming) {
			cs.replyErr(req.msg)
		}
		if err != nil {
			return
		}
		if !cs.exec(req) {
			break
		}
	}
	if cs.replPSync != nil {
		// The connection re-negotiated into a replication channel: every
		// pending reply hits the wire first, then the quiet socket goes to
		// the primary, which owns it until the link dies. The connection's
		// session serves the snapshot reads.
		drain()
		s.prim.ServeConn(c, br, cs.sess, cs.replPSync)
	}
}

// connState is one connection's request executor.
type connState struct {
	srv   *Server
	sess  store.Session
	conn  net.Conn // deadline arming only; all IO goes through the buffers
	codec codec
	// free recycles the connection's reply slots; order carries them to the
	// writer in request order. Together they bound the pipeline window.
	free  chan *slot
	order chan *slot
	// pooled counts the connection's requests in the pool (submitted, not
	// yet completed). A GET reads it: at zero every earlier write has been
	// applied and the GET runs inline; otherwise the GET is submitted too,
	// behind any earlier write to its key on that key's worker ring.
	// MGET, SCAN, STATS and PROMOTE wait for it to drain: the pool
	// acknowledges per worker flush and per shard group, not in submission
	// order, so waiting on only the most recent write would let a read run
	// while an earlier write on another worker is still unexecuted.
	pooled inflight
	// scratch buffers reused across requests.
	res     []store.OpResult
	scanBuf []scanKV
	// replPSync, when set by exec, carries a PSYNC request payload out of
	// the request loop: the connection stops being a request stream and is
	// handed to the replication primary.
	replPSync []byte
}

func newConnState(s *Server, sess store.Session, cd codec) *connState {
	cs := &connState{
		srv:   s,
		sess:  sess,
		codec: cd,
		free:  make(chan *slot, pipeline),
		order: make(chan *slot, pipeline),
	}
	cs.pooled.wake = make(chan struct{}, 1)
	for i := 0; i < pipeline; i++ {
		cs.free <- &slot{cs: cs, ready: make(chan struct{}, 1)}
	}
	return cs
}

// scanKV is one collected SCAN entry.
type scanKV struct{ k, v uint64 }

// deadlineWriter arms the connection's write deadline before every write
// that reaches the socket. It sits under the writer goroutine's bufio
// buffer, so the clock is read once per flushed burst of replies, not once
// per reply.
type deadlineWriter struct {
	c net.Conn
	d time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	w.c.SetWriteDeadline(time.Now().Add(w.d))
	return w.c.Write(p)
}

// armIdle re-arms the connection's idle deadline (no-op when
// Config.IdleTimeout is unset). The codecs call it only before a read that
// may have to wait on the socket: a request already wholly in the read
// buffer costs no clock read and no deadline update.
func (cs *connState) armIdle() {
	if d := cs.srv.cfg.IdleTimeout; d > 0 && cs.conn != nil {
		cs.conn.SetReadDeadline(time.Now().Add(d))
	}
}

// reply renders a reply now and queues it in request order.
func (cs *connState) reply(r reply) {
	sl := <-cs.free
	sl.buf = cs.codec.appendReply(sl.buf[:0], r)
	sl.ready <- struct{}{}
	cs.order <- sl
}

func (cs *connState) replyErr(msg string) { cs.reply(reply{kind: replyErr, msg: msg}) }

// submitWrite submits op to the pool unless the server is a replica.
func (cs *connState) submitWrite(op store.Op, kind replyKind) {
	if cs.srv.readOnly.Load() {
		// Replica mode: the store's contents belong to the primary's
		// stream. The refusal names where writes go, like DEGRADED names
		// why they stopped.
		cs.replyErr(wireErrMsg(errReadOnly))
		return
	}
	cs.submit(op, kind)
}

// submit enqueues a reply slot for op in request order and submits it to
// the pool; the slot renders the result as kind once the covering fence
// lands. The slot enters the order queue before Submit so replies cannot
// reorder, whatever worker the key routes to.
func (cs *connState) submit(op store.Op, kind replyKind) {
	sl := <-cs.free
	sl.kind = kind
	cs.order <- sl
	cs.pooled.add()
	cs.srv.pool.Submit(op, sl)
}

// awaitWrites blocks until every request this connection has submitted to
// the pool has committed or failed (read-your-writes ordering for reads
// that span shards). Waiting on all outstanding requests — not just the
// most recent — matters because the pool acknowledges per worker and per
// shard group, not in submission order.
func (cs *connState) awaitWrites() {
	cs.pooled.wait()
}

// inflight counts requests in the pool: a WaitGroup whose count the
// reader can also test. The reader goroutine alone calls add, idle and
// wait; completions call done from pool workers. A zero count read by idle
// happens after every completion, so every earlier request was applied.
type inflight struct {
	n    atomic.Int64  // the count, plus readerWaiting while the reader waits
	wake chan struct{} // capacity 1: the done that empties n wakes wait
}

// readerWaiting marks inflight.n while the reader is blocked in wait; it
// sits above any count a connection's pipeline window can reach.
const readerWaiting = 1 << 32

func (f *inflight) add()       { f.n.Add(1) }
func (f *inflight) idle() bool { return f.n.Load() == 0 }

func (f *inflight) done() {
	if f.n.Add(-1) == readerWaiting {
		f.wake <- struct{}{}
	}
}

// wait blocks until the count is zero. No add runs meanwhile (only the
// reader adds), so exactly one done can empty the count and wake it.
func (f *inflight) wait() {
	if f.n.Add(readerWaiting) != readerWaiting {
		<-f.wake
	}
	f.n.Add(-readerWaiting)
}

// exec runs one decoded request, whichever protocol carried it; false
// closes the connection. A write, or a GET behind outstanding requests,
// goes to the pool by value and its slot renders the reply, so neither
// path allocates.
func (cs *connState) exec(req request) bool {
	switch req.cmd {
	case cmdBad:
		cs.replyErr(req.msg)
	case cmdPing:
		cs.reply(reply{kind: replyPong})
	case cmdGet:
		if !cs.pooled.idle() {
			// Behind this connection's outstanding requests the GET takes
			// its key's worker ring: the worker applies it after every
			// earlier write to the key, and the reader moves on.
			cs.submit(store.Op{Kind: store.OpGet, Key: req.key}, replyValue)
			break
		}
		v, found := cs.sess.Get(req.key)
		cs.reply(reply{kind: replyValue, v: v, ok: found})
	case cmdPut:
		cs.submitWrite(store.Op{Kind: store.OpPut, Key: req.key, Value: req.val}, replyOK)
	case cmdInsert:
		cs.submitWrite(store.Op{Kind: store.OpInsert, Key: req.key, Value: req.val}, replyBool)
	case cmdDel:
		cs.submitWrite(store.Op{Kind: store.OpDelete, Key: req.key}, replyBool)
	case cmdUpdate:
		cs.submitWrite(store.Op{Kind: store.OpUpdate, Key: req.key, Value: req.val}, replyValue)
	case cmdScan:
		items, err := cs.collectScan(req.key, req.val, min(req.max, maxScan))
		if err != nil {
			cs.replyErr(err.Error())
			break
		}
		cs.reply(reply{kind: replyPairs, pairs: items})
	case cmdMGet:
		if len(req.keys) > maxMGet {
			cs.replyErr(mgetSizeMsg)
			break
		}
		cs.awaitWrites()
		cs.res = cs.sess.MultiGet(req.keys, cs.res)
		cs.reply(reply{kind: replyMulti, multi: cs.res})
	case cmdStats:
		cs.awaitWrites()
		cs.reply(reply{kind: replyStats, stats: cs.statRows()})
	case cmdPromote:
		// Failover: turn a replica into a primary (idempotent; OK on a
		// server that already is one). Reads served before the reply saw
		// the pre-promotion state; writes accepted after it are the new
		// primary's own.
		cs.awaitWrites()
		cs.srv.Promote()
		cs.reply(reply{kind: replyOK})
	case cmdPSync:
		if cs.srv.readOnly.Load() {
			cs.replyErr("PSYNC: not a primary")
			break
		}
		// Copy the payload out of the codec's frame buffer and leave the
		// request loop; handle hands the connection to the primary.
		cs.replPSync = append([]byte(nil), req.raw...)
		return false
	case cmdQuit:
		cs.reply(reply{kind: replyOK})
		return false
	}
	return true
}

// collectScan waits for read-your-writes and gathers up to max entries of
// [lo, hi] into the reused scan scratch.
func (cs *connState) collectScan(lo, hi uint64, max int) ([]scanKV, error) {
	cs.awaitWrites()
	items := cs.scanBuf[:0]
	var err error
	if max > 0 {
		err = cs.sess.Scan(lo, hi, func(k, v uint64) bool {
			items = append(items, scanKV{k, v})
			return len(items) < max
		})
	}
	cs.scanBuf = items
	return items, err
}

// statRow is one STATS counter.
type statRow struct {
	name string
	v    uint64
}

// statRows gathers the server's counters, including the replication view
// (repl_* rows are live: on a primary they reflect attached replicas and
// lag, on a replica the applied stream position).
func (cs *connState) statRows() []statRow {
	st := cs.srv.st.Stats()
	bs := cs.srv.pool.Stats()
	rs := cs.srv.st.Repl()
	cpu, allocs, gcs := procStats()
	return []statRow{
		{"ops", st.Ops},
		{"reads", st.Reads},
		{"writes", st.Writes},
		{"flushes", st.Flushes},
		{"flushes_elided", st.FlushesElided},
		{"fences", st.Fences},
		{"wal_records", st.WALRecords},
		{"wal_bytes", st.WALBytes},
		{"wal_syncs", st.WALSyncs},
		{"batch_ops", bs.Ops},
		{"batch_reads", bs.Reads},
		{"batch_flushes", bs.Flushes},
		{"batch_groups", bs.Groups},
		{"pool_workers", uint64(cs.srv.pool.Workers())},
		{"degraded", degraded01(cs.srv)},
		{"repl_role", uint64(rs.Role)},
		{"repl_replicas", uint64(rs.Replicas)},
		{"repl_wait_k", uint64(rs.WaitReplicas)},
		{"repl_lag_groups", rs.MaxLagGroups},
		{"repl_lag_bytes", rs.MaxLagBytes},
		{"repl_last_ack", rs.LastAckSeq},
		{"repl_applied_groups", rs.AppliedGroups},
		{"repl_applied_ops", rs.AppliedOps},
		{"cpu_ns", cpu},
		{"heap_allocs", allocs},
		{"gc_cycles", gcs},
	}
}

// procStats reads the process's CPU time (user plus system, getrusage)
// and, from runtime/metrics, its heap allocations and completed GC cycles,
// each counted since the process started.
func procStats() (cpuNS, allocs, gcs uint64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpuNS = uint64(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := [...]metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s[:])
	if s[0].Value.Kind() == metrics.KindUint64 {
		allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		gcs = s[1].Value.Uint64()
	}
	return cpuNS, allocs, gcs
}

// degraded01 renders the degraded state as a stats value: 1 once the
// store's durable backend (or the pool watching it) has latched a disk
// failure, 0 while healthy.
func degraded01(s *Server) uint64 {
	if s.DegradedErr() != nil {
		return 1
	}
	return 0
}

// DegradedErr reports the store's sticky durable damage as seen through
// this server (nil while healthy); nvserver checks it at shutdown to exit
// nonzero after a degraded run.
func (s *Server) DegradedErr() error {
	if err := s.pool.DegradedErr(); err != nil {
		return err
	}
	return s.st.DurableErr()
}

// connCount is a test hook: live connections.
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
