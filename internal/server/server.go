// Package server is the network front end of the durable store: a
// pipelined wire protocol over TCP or Unix sockets on top of store.Store,
// with the shard-affine group-commit pool (internal/batcher.Pool) at its
// core. Each pool worker owns one shard group's session and runs its own
// group-commit loop; a connection hands decoded writes to the owning
// worker through a bounded ring, so the commit fence durable
// linearizability demands before an acknowledgement is paid once per shard
// group per flush across all connections — the network-level analogue of
// shard.Session.Apply's per-batch amortization, without a central queue.
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
// Clients of either protocol may pipeline: the server replies in request
// order, and a reply to a write is sent only after the commit fence
// covering it has landed (reply-after-fence; see DESIGN.md). Within one
// connection, a read observes every write the same connection issued
// before it, even when those writes landed on different pool workers.
package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/batcher"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/store"
)

// Config tunes a Server.
type Config struct {
	// MaxConns bounds concurrent connections (each holds a read session of
	// the store while open; default 64). Excess connections are refused
	// with an error reply.
	MaxConns int
	// Pipeline bounds the per-connection reply queue: a client may have at
	// most this many requests outstanding before the server stops reading
	// its socket (default 128).
	Pipeline int
	// MaxBatch caps one worker flush (default 64; see
	// batcher.PoolConfig.MaxBatch).
	MaxBatch int
	// Workers is the shard-affine worker count (default: the store's shard
	// count; see batcher.PoolConfig.Workers).
	Workers int
	// Ring is each worker's bounded submission ring (default 1024; see
	// batcher.PoolConfig.Ring).
	Ring int
	// MaxScan caps SCAN reply sizes (default 4096 entries); the explicit
	// limit argument may lower it but not raise it.
	MaxScan int
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
	// WaitReplicas is the replication write quorum K: with K > 0 a write
	// is acknowledged only after K replicas confirmed its fence group
	// (replied ⇒ replicated; see internal/repl). 0 inherits the store's
	// configured quorum (store.Config.WaitReplicas), which defaults to
	// best-effort streaming.
	WaitReplicas int
	// WaitTimeout bounds a WAIT-mode write's wait for its replica quorum
	// before it fails with a typed quorum error (default 2s).
	WaitTimeout time.Duration
	// ReplLogGroups is the per-shard replication log retention in fence
	// groups (default 1024).
	ReplLogGroups int
}

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

// New builds a server over st. The server owns one pool session per worker;
// read sessions are drawn from a pool of at most cfg.MaxConns. Callers must
// ensure the store was opened with MaxSessions ≥ MaxConns + Workers + 1.
func New(st store.Store, cfg Config) *Server {
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 128
	}
	if cfg.MaxScan <= 0 {
		cfg.MaxScan = 4096
	}
	if cfg.WaitReplicas == 0 {
		cfg.WaitReplicas = st.Repl().WaitReplicas
	}
	prim := repl.NewPrimary(st, repl.PrimaryConfig{
		WaitReplicas: cfg.WaitReplicas,
		WaitTimeout:  cfg.WaitTimeout,
		LogGroups:    cfg.ReplLogGroups,
	})
	return &Server{
		st: st,
		pool: batcher.NewPool(st, batcher.PoolConfig{
			Workers:  cfg.Workers,
			Ring:     cfg.Ring,
			MaxBatch: cfg.MaxBatch,
			OnCommit: prim,
		}),
		cfg:       cfg,
		prim:      prim,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		sessions:  make(chan store.Session, cfg.MaxConns),
	}
}

// Primary exposes the replication primary (tests, stats).
func (s *Server) Primary() *repl.Primary { return s.prim }

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
	if src, ok := s.st.(interface{ SetReplSource(func() store.ReplStats) }); ok && s.prim != nil {
		src.SetReplSource(s.prim.Stats)
	}
}

// Pool exposes the group-commit stage (stats, tests).
func (s *Server) Pool() *batcher.Pool { return s.pool }

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
	network, address := SplitAddr(addr)
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

// SplitAddr splits "unix:/path" / "tcp:host:port" / "host:port" into
// (network, address).
func SplitAddr(addr string) (network, address string) {
	switch {
	case strings.HasPrefix(addr, "unix:"):
		return "unix", addr[len("unix:"):]
	case strings.HasPrefix(addr, "tcp:"):
		return "tcp", addr[len("tcp:"):]
	default:
		return "tcp", addr
	}
}

// ListenAndServe listens on addr (see Listen) and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := Listen(addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after Close,
// or the accept error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: closed")
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
	if s.prim != nil {
		// Fail pending WAIT gates now, before waiting on the handlers:
		// their writer goroutines drain queued replies, and a gate held to
		// its full quorum timeout would stall shutdown for nothing.
		s.prim.Close()
	}
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

// replyMode selects how a completed write renders into its reply buffer —
// an enum rather than a per-request closure, so a slot is reusable without
// allocating on the submit path.
type replyMode uint8

const (
	modeRaw   replyMode = iota // buf already rendered (reads, errors)
	modeOK                     // PUT: +OK / binTagOK
	modeBool                   // INSERT, DEL: :1 / :0 / binTagTrue / binTagFalse
	modeValue                  // UPDATE: $v / $-1 / binTagValue / binTagNil
)

// slot is one in-order reply. A connection owns Pipeline slots, recycled
// through the free channel; the writer goroutine sends buf once the ready
// token arrives. Write slots are completed by the pool (slot implements
// batcher.Completer); read replies send their own token synchronously.
type slot struct {
	cs    *connState
	ready chan struct{} // capacity 1: one token per completion
	buf   []byte
	mode  replyMode
	bin   bool
}

// Complete renders the committed write's result into the slot's reused
// buffer and releases the writer (reply-after-fence: the pool calls this
// only after the covering commit fence landed, or with an error when it
// never will).
func (sl *slot) Complete(res store.OpResult, err error) {
	buf := sl.buf[:0]
	switch {
	case err != nil:
		buf = appendErrReply(buf, sl.bin, wireErrMsg(err))
	case sl.mode == modeOK:
		buf = appendOKReply(buf, sl.bin)
	case sl.mode == modeBool:
		buf = appendBoolReply(buf, sl.bin, res.OK)
	default: // modeValue
		buf = appendValueReply(buf, sl.bin, res.Value, res.OK)
	}
	sl.buf = buf
	sl.ready <- struct{}{}
	sl.cs.writes.Done()
}

// wireErrMsg renders a completion error for the wire. Degraded-store
// refusals get a stable leading "DEGRADED" token so clients of either
// protocol can classify them without parsing the cause chain.
func wireErrMsg(err error) string {
	if errors.Is(err, batcher.ErrDegraded) {
		return "DEGRADED " + err.Error()
	}
	if errors.Is(err, repl.ErrQuorum) {
		// The write IS durable on the primary; only the replica quorum is
		// missing. A distinct token keeps that apart from DEGRADED, where
		// the write never became durable.
		return "WAIT " + err.Error()
	}
	return err.Error()
}

// handle runs one connection: a reader goroutine (this one) parses and
// dispatches requests, a writer goroutine sends completed replies in
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
	bin := first[0] == binMagic
	if bin {
		var magic [2]byte
		if _, err := io.ReadFull(br, magic[:]); err != nil || magic[1] != binVersion {
			fmt.Fprintf(c, "-ERR unsupported binary protocol version\r\n")
			return
		}
	}

	cs := newConnState(s, sess, s.cfg.Pipeline, bin)
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
	// On exit: stop the reply stream, let the writer drain every reply —
	// including writes still waiting on their fence (a QUIT's +OK must reach
	// the wire) — then the deferred c.Close runs.
	drained := false
	drain := func() {
		close(cs.order)
		writerWG.Wait()
	}
	defer func() {
		if !drained {
			drain()
		}
	}()

	if bin {
		s.handleBin(br, cs)
		if cs.replPSync != nil {
			// The connection re-negotiated into a replication channel:
			// drain the reply stream first (every pending reply completed
			// and hit the wire), then hand the quiet socket to the
			// primary, which owns it until the link dies. The connection's
			// session serves the snapshot reads.
			drain()
			drained = true
			s.prim.ServeConn(c, br, cs.sess, cs.replPSync)
		}
		return
	}
	for {
		// Re-arm the idle clock only when the next line is not already
		// wholly in the buffer (see handleBin).
		if buffered, _ := br.Peek(br.Buffered()); bytes.IndexByte(buffered, '\n') < 0 {
			cs.armIdle()
		}
		line, err := br.ReadSlice('\n')
		if err != nil {
			if errors.Is(err, bufio.ErrBufferFull) {
				cs.reply("-ERR request line too long\r\n")
			}
			return
		}
		if !cs.dispatch(line) {
			return
		}
	}
}

// connState is the per-connection request dispatcher.
type connState struct {
	srv  *Server
	sess store.Session
	conn net.Conn // deadline arming only; all IO goes through the buffers
	bin  bool
	// free recycles the connection's reply slots; order carries them to the
	// writer in request order. Together they bound the pipeline window.
	free  chan *slot
	order chan *slot
	// writes counts the connection's outstanding (submitted, not yet
	// committed) writes. Reads wait for it to drain: the pool acknowledges
	// writes per worker flush and per shard group, not in submission order,
	// so waiting on only the most recent write would let a read run while an
	// earlier write on another worker is still unexecuted. Add and Wait both
	// happen on the reader goroutine only (Done comes from slot.Complete on
	// a worker), which satisfies the WaitGroup reuse rule.
	writes sync.WaitGroup
	// scratch buffers reused across requests.
	fields  []string
	keys    []uint64
	res     []store.OpResult
	scanBuf []scanKV
	binBuf  []byte
	// replPSync, when set by dispatchBin, carries a PSYNC request payload
	// out of the request loop: the connection stops being a request
	// stream and is handed to the replication primary.
	replPSync []byte
}

func newConnState(s *Server, sess store.Session, pipeline int, bin bool) *connState {
	cs := &connState{
		srv:   s,
		sess:  sess,
		bin:   bin,
		free:  make(chan *slot, pipeline),
		order: make(chan *slot, pipeline),
	}
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
// Config.IdleTimeout is unset). The read loops call it only before a read
// that may have to wait on the socket: a request already wholly in the read
// buffer costs no clock read and no deadline update.
func (cs *connState) armIdle() {
	if d := cs.srv.cfg.IdleTimeout; d > 0 && cs.conn != nil {
		cs.conn.SetReadDeadline(time.Now().Add(d))
	}
}

// take acquires the next reply slot, blocking when the client already has
// a full pipeline window outstanding.
func (cs *connState) take() *slot {
	sl := <-cs.free
	sl.mode = modeRaw
	sl.bin = cs.bin
	return sl
}

// finish enqueues an already-rendered reply (its token is sent here).
func (cs *connState) finish(sl *slot) {
	sl.ready <- struct{}{}
	cs.order <- sl
}

// reply enqueues a fixed already-complete reply.
func (cs *connState) reply(msg string) {
	sl := cs.take()
	sl.buf = append(sl.buf[:0], msg...)
	cs.finish(sl)
}

// submitWrite enqueues a reply slot for op in request order and submits it
// to the pool; the slot renders the result per mode once the covering
// fence lands. The slot enters the order queue before Submit so replies
// cannot reorder, whatever worker the key routes to.
func (cs *connState) submitWrite(op store.Op, mode replyMode) {
	if cs.srv.readOnly.Load() {
		// Replica mode: the store's contents belong to the primary's
		// stream. The refusal names where writes go, like DEGRADED names
		// why they stopped.
		if cs.bin {
			cs.replyBinErr("REPLICA read-only: writes go to the primary")
		} else {
			cs.reply("-ERR REPLICA read-only: writes go to the primary\r\n")
		}
		return
	}
	sl := cs.take()
	sl.mode = mode
	cs.order <- sl
	cs.writes.Add(1)
	cs.srv.pool.Submit(op, sl)
}

// awaitWrites blocks until every write this connection has submitted has
// committed or failed (read-your-writes ordering). Waiting on all
// outstanding writes — not just the most recent — matters because the pool
// acknowledges writes per worker and per shard group, not in submission
// order.
func (cs *connState) awaitWrites() {
	cs.writes.Wait()
}

// dispatch parses and executes one text request line; false closes the
// connection.
func (cs *connState) dispatch(line []byte) bool {
	fields := splitFields(line, cs.fields[:0])
	cs.fields = fields
	if len(fields) == 0 {
		return true // blank line: ignore
	}
	cmd := fields[0]
	args := fields[1:]
	switch {
	case strings.EqualFold(cmd, "GET"):
		k, ok := parse1(cs, args, "GET key")
		if !ok {
			return true
		}
		cs.awaitWrites()
		v, found := cs.sess.Get(k)
		sl := cs.take()
		sl.buf = appendValue(sl.buf[:0], v, found)
		cs.finish(sl)
	case strings.EqualFold(cmd, "PUT"):
		k, v, ok := parse2(cs, args, "PUT key value")
		if !ok {
			return true
		}
		cs.submitWrite(store.Op{Kind: shard.OpPut, Key: k, Value: v}, modeOK)
	case strings.EqualFold(cmd, "INSERT"):
		k, v, ok := parse2(cs, args, "INSERT key value")
		if !ok {
			return true
		}
		cs.submitWrite(store.Op{Kind: shard.OpInsert, Key: k, Value: v}, modeBool)
	case strings.EqualFold(cmd, "DEL"):
		k, ok := parse1(cs, args, "DEL key")
		if !ok {
			return true
		}
		cs.submitWrite(store.Op{Kind: shard.OpDelete, Key: k}, modeBool)
	case strings.EqualFold(cmd, "UPDATE"):
		k, v, ok := parse2(cs, args, "UPDATE key value")
		if !ok {
			return true
		}
		cs.submitWrite(store.Op{Kind: shard.OpUpdate, Key: k, Value: v}, modeValue)
	case strings.EqualFold(cmd, "SCAN"):
		cs.execScan(args)
	case strings.EqualFold(cmd, "MGET"):
		cs.execMGet(args)
	case strings.EqualFold(cmd, "STATS"):
		cs.awaitWrites()
		sl := cs.take()
		sl.buf = cs.appendStats(sl.buf[:0])
		cs.finish(sl)
	case strings.EqualFold(cmd, "PROMOTE"):
		// Failover: turn a replica into a primary (idempotent; +OK on a
		// server that already is one). Reads served before the reply saw
		// the pre-promotion state; writes accepted after it are the new
		// primary's own.
		cs.awaitWrites()
		cs.srv.Promote()
		cs.reply("+OK\r\n")
	case strings.EqualFold(cmd, "PING"):
		cs.reply("+PONG\r\n")
	case strings.EqualFold(cmd, "QUIT"):
		cs.reply("+OK\r\n")
		return false
	default:
		cs.reply("-ERR unknown command '" + cmd + "'\r\n")
	}
	return true
}

func (cs *connState) execScan(args []string) {
	if len(args) < 2 || len(args) > 3 {
		cs.reply("-ERR usage: SCAN lo hi [max]\r\n")
		return
	}
	lo, err1 := strconv.ParseUint(args[0], 10, 64)
	hi, err2 := strconv.ParseUint(args[1], 10, 64)
	if err1 != nil || err2 != nil {
		cs.reply("-ERR SCAN bounds must be uint64\r\n")
		return
	}
	max := cs.srv.cfg.MaxScan
	if len(args) == 3 {
		m, err := strconv.Atoi(args[2])
		if err != nil || m < 0 {
			cs.reply("-ERR SCAN max must be a non-negative int\r\n")
			return
		}
		if m < max {
			max = m
		}
	}
	items, err := cs.collectScan(lo, hi, max)
	if err != nil {
		cs.reply("-ERR " + err.Error() + "\r\n")
		return
	}
	sl := cs.take()
	buf := appendArrayHeader(sl.buf[:0], len(items))
	for _, it := range items {
		buf = strconv.AppendUint(buf, it.k, 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, it.v, 10)
		buf = append(buf, '\r', '\n')
	}
	sl.buf = buf
	cs.finish(sl)
}

// collectScan waits for read-your-writes and gathers up to max entries of
// [lo, hi] into the reused scan scratch (shared by both protocols).
func (cs *connState) collectScan(lo, hi uint64, max int) ([]scanKV, error) {
	cs.awaitWrites()
	items := cs.scanBuf[:0]
	if max > 0 {
		err := cs.sess.Scan(lo, hi, func(k, v uint64) bool {
			items = append(items, scanKV{k, v})
			return len(items) < max
		})
		if err != nil {
			cs.scanBuf = items
			return nil, err
		}
	}
	cs.scanBuf = items
	return items, nil
}

func (cs *connState) execMGet(args []string) {
	if len(args) == 0 {
		cs.reply("-ERR usage: MGET key...\r\n")
		return
	}
	keys := cs.keys[:0]
	for _, a := range args {
		k, err := strconv.ParseUint(a, 10, 64)
		if err != nil {
			cs.reply("-ERR MGET keys must be uint64\r\n")
			return
		}
		keys = append(keys, k)
	}
	cs.keys = keys
	cs.awaitWrites()
	cs.res = cs.sess.MultiGet(keys, cs.res)
	sl := cs.take()
	buf := appendArrayHeader(sl.buf[:0], len(keys))
	for _, r := range cs.res {
		buf = appendValue(buf, r.Value, r.OK)
	}
	sl.buf = buf
	cs.finish(sl)
}

// statRow is one STATS counter, rendered by either protocol.
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
	return []statRow{
		{"ops", st.Ops},
		{"reads", st.Reads},
		{"writes", st.Writes},
		{"flushes", st.Flushes},
		{"flushes_elided", st.FlushesElided},
		{"fences", st.Fences},
		{"batch_ops", bs.Ops},
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
	}
}

func (cs *connState) appendStats(buf []byte) []byte {
	stats := cs.statRows()
	buf = appendArrayHeader(buf, len(stats))
	for _, s := range stats {
		buf = append(buf, s.name...)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, s.v, 10)
		buf = append(buf, '\r', '\n')
	}
	return buf
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
	if s.st == nil { // component tests build a Server around a bare pool
		return nil
	}
	return s.st.DurableErr()
}

// parse1 and parse2 parse fixed uint64 argument lists, replying with a
// usage error on mismatch.
func parse1(cs *connState, args []string, usage string) (uint64, bool) {
	if len(args) != 1 {
		cs.reply("-ERR usage: " + usage + "\r\n")
		return 0, false
	}
	k, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		cs.reply("-ERR arguments must be uint64\r\n")
		return 0, false
	}
	return k, true
}

func parse2(cs *connState, args []string, usage string) (uint64, uint64, bool) {
	if len(args) != 2 {
		cs.reply("-ERR usage: " + usage + "\r\n")
		return 0, 0, false
	}
	k, err1 := strconv.ParseUint(args[0], 10, 64)
	v, err2 := strconv.ParseUint(args[1], 10, 64)
	if err1 != nil || err2 != nil {
		cs.reply("-ERR arguments must be uint64\r\n")
		return 0, 0, false
	}
	return k, v, true
}

// splitFields splits a request line on single spaces, trimming the
// CR/LF terminator, into dst (reused scratch).
func splitFields(line []byte, dst []string) []string {
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	start := -1
	for i := 0; i <= len(line); i++ {
		if i == len(line) || line[i] == ' ' {
			if start >= 0 {
				dst = append(dst, string(line[start:i]))
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	return dst
}

func appendValue(buf []byte, v uint64, ok bool) []byte {
	if !ok {
		return append(buf, '$', '-', '1', '\r', '\n')
	}
	buf = append(buf, '$')
	buf = strconv.AppendUint(buf, v, 10)
	return append(buf, '\r', '\n')
}

func appendArrayHeader(buf []byte, n int) []byte {
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(n), 10)
	return append(buf, '\r', '\n')
}

// appendOKReply, appendBoolReply, appendValueReply, and appendErrReply
// render a completed write's reply for either protocol (slot.Complete).
func appendOKReply(buf []byte, bin bool) []byte {
	if bin {
		return appendBinHeader(buf, binTagOK, 0)
	}
	return append(buf, "+OK\r\n"...)
}

func appendBoolReply(buf []byte, bin, ok bool) []byte {
	if bin {
		if ok {
			return appendBinHeader(buf, binTagTrue, 0)
		}
		return appendBinHeader(buf, binTagFalse, 0)
	}
	if ok {
		return append(buf, ":1\r\n"...)
	}
	return append(buf, ":0\r\n"...)
}

func appendValueReply(buf []byte, bin bool, v uint64, ok bool) []byte {
	if bin {
		return appendBinValue(buf, v, ok)
	}
	return appendValue(buf, v, ok)
}

func appendErrReply(buf []byte, bin bool, msg string) []byte {
	if bin {
		return appendBinErr(buf, msg)
	}
	buf = append(buf, "-ERR "...)
	buf = append(buf, msg...)
	return append(buf, '\r', '\n')
}

// connCount is a test hook: live connections.
func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}
