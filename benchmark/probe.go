package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pmem/vfs"
	"repro/internal/store"
)

// The traced run instruments the system from outside: wrappers around the
// store a server is built on, the listener it serves, and the file system
// its WAL writes through. They live here and nowhere in the program; spans
// inside the program are a later change.

// span is one traced interval. Spans of one request share req; parent is
// the index of the span that caused this one (-1 for a rung).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// tracer keeps spans in memory on one clock; write puts them on disk when
// the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

func (tr *tracer) add(name string, start, end int64, parent int, req uint64) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{name, start, end, parent, req})
	return len(tr.spans) - 1
}

func (tr *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}

// probe timestamps the calls a server makes into its store. A lone request
// is followed from outside by what it carries: a PUT's value holds its
// request id, and at depth 1 the only Get in flight is the client's.
type probe struct {
	tr *tracer
	// stamp turns on per-request timestamps (the depth-1 rungs); under
	// load only the counters run.
	stamp    atomic.Bool
	getEnter atomic.Int64
	applies  atomic.Uint64 // ApplyCommitted calls
	applied  atomic.Uint64 // operations they carried

	mu   sync.Mutex
	puts map[uint64]putStamps // request id -> stamps
}

type putStamps struct{ enter, commit int64 }

func (p *probe) takePut(id uint64) (putStamps, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s, ok := p.puts[id]
	delete(p.puts, id)
	return s, ok
}

// probedStore hands out probed sessions; everything else is the store's.
type probedStore struct {
	store.Store
	p *probe
}

func (s probedStore) NewSession() store.Session {
	return &probedSession{AsyncSession: s.Store.NewSession().(store.AsyncSession), p: s.p}
}

type probedSession struct {
	store.AsyncSession
	p *probe
}

func (s *probedSession) Get(key uint64) (uint64, bool) {
	if s.p.stamp.Load() {
		s.p.getEnter.Store(s.p.tr.now())
	}
	return s.AsyncSession.Get(key)
}

func (s *probedSession) ApplyCommitted(ops []store.Op, dst []store.OpResult, committed func([]int, error)) []store.OpResult {
	s.p.applies.Add(1)
	s.p.applied.Add(uint64(len(ops)))
	if !s.p.stamp.Load() {
		return s.AsyncSession.ApplyCommitted(ops, dst, committed)
	}
	enter := s.p.tr.now()
	return s.AsyncSession.ApplyCommitted(ops, dst, func(idxs []int, err error) {
		commit := s.p.tr.now()
		s.p.mu.Lock()
		for _, i := range idxs {
			s.p.puts[ops[i].Value>>20] = putStamps{enter, commit}
		}
		s.p.mu.Unlock()
		committed(idxs, err)
	})
}

// sockCounts counts what the server does to its sockets.
type sockCounts struct{ reads, writes, bytes atomic.Uint64 }

type countingListener struct {
	net.Listener
	c *sockCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.c}, nil
}

type countingConn struct {
	net.Conn
	c *sockCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(uint64(n))
	return n, err
}

// countingFS counts and times the writes and syncs of a durable directory.
type countingFS struct {
	vfs.FS
	c *fsCounts
}

type fsCounts struct {
	writes, bytes, syncs atomic.Int64

	mu                  sync.Mutex
	writeTime, syncTime hist
}

func (c *fsCounts) timed(h *hist, start time.Time) {
	took := int64(time.Since(start))
	c.mu.Lock()
	h.record(took)
	c.mu.Unlock()
}

func (f countingFS) wrap(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{file, f.c}, nil
}

func (f countingFS) Create(name string) (vfs.File, error) { return f.wrap(f.FS.Create(name)) }
func (f countingFS) Open(name string) (vfs.File, error)   { return f.wrap(f.FS.Open(name)) }
func (f countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	return f.wrap(f.FS.OpenFile(name, flag, perm))
}

func (f countingFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	f.c.writes.Add(1)
	f.c.bytes.Add(int64(len(data)))
	return f.FS.WriteFile(name, data, perm)
}

type countingFile struct {
	vfs.File
	c *fsCounts
}

func (f countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.c.timed(&f.c.writeTime, start)
	f.c.writes.Add(1)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.c.timed(&f.c.syncTime, start)
	f.c.syncs.Add(1)
	return err
}
