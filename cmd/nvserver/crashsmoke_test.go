package main

// The SIGKILL-restart smoke: the out-of-process proof that -data means
// durable. The orchestrator spawns a real nvserver child on a data
// directory, drives acknowledged inserts over the wire from several
// connections, kills the child with SIGKILL mid-load (no flush, no
// goodbye — the kernel reclaims the process), restarts it on the same
// directory, and runs the durable-linearizability checker over the
// recorded histories: every acknowledged insert must be present with its
// exact value; the handful of in-flight requests may land either way. A
// second round SIGTERMs the restarted server (exercising the
// checkpoint-on-shutdown path) and re-verifies after another restart.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/crashtest"
	"repro/internal/pmem"
	"repro/internal/server"
)

// TestMain lets the test binary stand in for the nvserver executable: the
// smoke orchestrators spawn os.Executable() — this binary — with
// NVSERVER_REEXEC=1, which routes the child invocation straight into run()
// instead of the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("NVSERVER_REEXEC") == "1" {
		if err := run(os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "nvserver:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestCrashSmokeSIGKILL is `make crash-smoke`: a real child process, a
// real SIGKILL, a real restart on the same data directory, and the
// durable-linearizability checker over the wire.
func TestCrashSmokeSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes; skipped in -short")
	}
	for _, tc := range []struct {
		name string
		cfg  smokeConfig
	}{
		{"hash-4shard", smokeConfig{kind: "hash", shards: 4, size: 1 << 14, conns: 4, acks: 2000}},
		{"skiplist-2shard", smokeConfig{kind: "skiplist", shards: 2, size: 1 << 14, conns: 2, acks: 1000}},
		{"hash-1shard", smokeConfig{kind: "hash", shards: 1, size: 1 << 14, conns: 2, acks: 1000}},
		// The live-checkpoint round: enough acked traffic that the child's
		// automatic checkpointing must have run before the SIGKILL, and the
		// replayed WAL tail must be bounded by the threshold (asserted by
		// the orchestrator when ckptBytes is set).
		{"hash-4shard-ckpt", smokeConfig{kind: "hash", shards: 4, size: 1 << 14, conns: 4, acks: 12000, ckptBytes: 16 << 10}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := runCrashSmoke(&out, tc.cfg); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			if !strings.Contains(out.String(), "crashsmoke: ok") {
				t.Fatalf("no ok line:\n%s", out.String())
			}
		})
	}
}

type smokeConfig struct {
	kind   string
	shards int
	size   int
	conns  int
	acks   uint64 // acknowledged inserts before the kill
	// ckptBytes > 0 passes -ckpt-bytes to the child and asserts, after the
	// SIGKILL restart, that an automatic checkpoint ran mid-traffic and the
	// replayed WAL tail stayed bounded by the threshold.
	ckptBytes int64
}

// smokeRecord is one insert attempt of the load phase.
type smokeRecord struct {
	key, value uint64
	acked      bool
	ok         bool
}

// smokeServer is one child nvserver process.
type smokeServer struct {
	cmd *exec.Cmd
	out *syncBuffer
}

// syncBuffer collects a child's output. exec copies the output in its own
// goroutine, so reads while the child runs (the replay line) take the lock.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func startSmokeServer(cfg smokeConfig, dir, sock string) (*smokeServer, error) {
	args := []string{
		"-data", dir,
		"-kind", cfg.kind,
		"-profile", "zero",
		"-shards", strconv.Itoa(cfg.shards),
		"-size", strconv.Itoa(cfg.size),
		"-max-conns", strconv.Itoa(cfg.conns + 8),
	}
	if cfg.ckptBytes > 0 {
		args = append(args, "-ckpt-bytes", strconv.FormatInt(cfg.ckptBytes, 10))
	}
	return startChildServer(sock, args)
}

// startChildServer spawns one nvserver child listening on sock with the
// given extra flags and waits until it answers a ping.
func startChildServer(sock string, extra []string) (*smokeServer, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-listen", "unix:" + sock}, extra...)
	s := &smokeServer{cmd: exec.Command(exe, args...), out: &syncBuffer{}}
	s.cmd.Stdout = s.out
	s.cmd.Stderr = s.out
	// NVSERVER_REEXEC routes the test binary into run() (see TestMain).
	s.cmd.Env = append(os.Environ(), "NVSERVER_REEXEC=1")
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	// Wait until the server answers a ping.
	deadline := time.Now().Add(15 * time.Second)
	for {
		cl, err := server.Dial("unix:" + sock)
		if err == nil {
			err = cl.Ping()
			cl.Close()
			if err == nil {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.cmd.Process.Kill()
			s.cmd.Wait()
			return nil, fmt.Errorf("server never came up:\n%s", s.out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runCrashSmoke runs the rounds on a fresh data directory under the
// system temp dir, which it removes on success and keeps (printing its
// path) on failure.
func runCrashSmoke(out io.Writer, cfg smokeConfig) error {
	dir, err := os.MkdirTemp("", "nvsmoke")
	if err != nil {
		return err
	}
	// The socket lives outside the data dir: the data dir must hold only
	// WAL/checkpoint state (it is uploaded as a CI artifact on failure).
	sockDir, err := os.MkdirTemp("", "nvsmoke-sock")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)
	sock := filepath.Join(sockDir, "nv.sock")

	err = crashSmokeRounds(out, cfg, dir, sock)
	if err != nil {
		fmt.Fprintf(out, "crashsmoke: FAILED; data dir preserved at %s\n", dir)
		return err
	}
	os.RemoveAll(dir)
	fmt.Fprintln(out, "crashsmoke: ok (SIGKILL recovery and clean-shutdown recovery both verified)")
	return nil
}

func crashSmokeRounds(out io.Writer, cfg smokeConfig, dir, sock string) error {
	// Round 1: load, SIGKILL mid-stream.
	srv, err := startSmokeServer(cfg, dir, sock)
	if err != nil {
		return err
	}
	records, err := smokeLoad(cfg, sock, srv)
	if err != nil {
		srv.cmd.Process.Kill()
		srv.cmd.Wait()
		return err
	}
	var acked, inflight int
	for _, rs := range records {
		for _, r := range rs {
			if r.acked {
				acked++
			} else {
				inflight++
			}
		}
	}
	fmt.Fprintf(out, "crashsmoke: killed server with %d acked inserts, %d in flight\n", acked, inflight)

	// Round 2: restart on the same directory; the replay must surface
	// every acknowledged write.
	srv2, err := startSmokeServer(cfg, dir, sock)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	if err := smokeVerify(sock, records); err != nil {
		srv2.cmd.Process.Kill()
		srv2.cmd.Wait()
		return fmt.Errorf("after SIGKILL restart: %w", err)
	}
	fmt.Fprintf(out, "crashsmoke: SIGKILL recovery checked (%d keys)\n", acked)

	// With a checkpoint threshold set, the SIGKILLed server must have been
	// checkpointing on its own: the kill skipped the clean-shutdown
	// checkpoint, so any checkpoint bytes the restart loaded were taken
	// automatically under live traffic, and the WAL tail it replayed must
	// be bounded by the threshold (plus per-shard in-flight slack) rather
	// than growing with the whole run.
	if cfg.ckptBytes > 0 {
		walBytes, ckptBytes, ok := parseReplayLine(srv2.out.String())
		if !ok {
			srv2.cmd.Process.Kill()
			srv2.cmd.Wait()
			return fmt.Errorf("no replay accounting in restarted server output:\n%s", srv2.out.String())
		}
		if ckptBytes == 0 {
			srv2.cmd.Process.Kill()
			srv2.cmd.Wait()
			return fmt.Errorf("no automatic checkpoint ran before SIGKILL (threshold %d bytes, %d acked inserts): recovery replayed the full %d-byte WAL",
				cfg.ckptBytes, acked, walBytes)
		}
		const slack = 32 << 10 // checkpoint-in-progress overshoot per shard
		if limit := uint64(cfg.shards) * uint64(cfg.ckptBytes+slack); walBytes > limit {
			srv2.cmd.Process.Kill()
			srv2.cmd.Wait()
			return fmt.Errorf("replayed WAL tail %d bytes exceeds the checkpoint bound %d (%d shards × (%d threshold + %d slack))",
				walBytes, limit, cfg.shards, cfg.ckptBytes, slack)
		}
		fmt.Fprintf(out, "crashsmoke: live checkpointing verified (replayed %d-byte WAL tail + %d checkpoint bytes, threshold %d)\n",
			walBytes, ckptBytes, cfg.ckptBytes)
	}

	// Round 3: clean shutdown (SIGTERM checkpoints and closes), restart,
	// re-verify — the checkpoint must carry the same state as the log.
	if err := srv2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := srv2.cmd.Wait(); err != nil {
		return fmt.Errorf("clean shutdown exited dirty: %v\n%s", err, srv2.out.String())
	}
	srv3, err := startSmokeServer(cfg, dir, sock)
	if err != nil {
		return fmt.Errorf("restart after clean shutdown: %w", err)
	}
	verifyErr := smokeVerify(sock, records)
	srv3.cmd.Process.Signal(syscall.SIGTERM)
	if err := srv3.cmd.Wait(); err != nil && verifyErr == nil {
		verifyErr = fmt.Errorf("final shutdown exited dirty: %v\n%s", err, srv3.out.String())
	}
	if verifyErr != nil {
		return fmt.Errorf("after checkpoint restart: %w", verifyErr)
	}
	return nil
}

// parseReplayLine extracts the WAL and checkpoint byte counts from a
// restarted child's replay line ("replayed N records / N lines / N WAL
// bytes (+N checkpoint bytes) in ...").
func parseReplayLine(out string) (walBytes, ckptBytes uint64, ok bool) {
	i := strings.Index(out, "replayed ")
	if i < 0 {
		return 0, 0, false
	}
	var records, lines uint64
	n, err := fmt.Sscanf(out[i:], "replayed %d records / %d lines / %d WAL bytes (+%d checkpoint bytes)",
		&records, &lines, &walBytes, &ckptBytes)
	return walBytes, ckptBytes, err == nil && n == 4
}

// smokeLoad drives pipelined inserts from cfg.conns connections (disjoint
// key partitions, unique key per attempt) until cfg.acks acknowledgements
// landed, then SIGKILLs the server and returns every connection's attempt
// log. Records past the last-read reply stay unacked — they were in flight
// at the kill, whatever the server managed to do with them.
func smokeLoad(cfg smokeConfig, sock string, srv *smokeServer) ([][]smokeRecord, error) {
	const window = 16
	var total atomic.Uint64
	records := make([][]smokeRecord, cfg.conns)
	errs := make([]error, cfg.conns)
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < cfg.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := server.Dial("unix:" + sock)
			if err != nil {
				errs[c] = err
				return
			}
			defer cl.Close()
			base := (uint64(c) + 1) << 32
			seq := uint64(0)
			rng := uint64(0x9e3779b97f4a7c15 * uint64(c+1))
			next := func() uint64 { rng ^= rng << 13; rng ^= rng >> 7; rng ^= rng << 17; return rng }
			sent := 0 // replies not yet read
			for {
				for sent < window {
					seq++
					k, v := base+seq, next()|1
					if err := cl.SendInsert(k, v); err != nil {
						return // connection died: the kill
					}
					records[c] = append(records[c], smokeRecord{key: k, value: v})
					sent++
				}
				if err := cl.Flush(); err != nil {
					return
				}
				rep, err := cl.ReadReply()
				if err != nil {
					return // mid-kill: everything unread stays in flight
				}
				idx := len(records[c]) - sent
				records[c][idx].acked = true
				records[c][idx].ok = !rep.IsErr() && rep.Int == 1
				sent--
				total.Add(1)
				select {
				case <-killed:
					return
				default:
				}
			}
		}(c)
	}
	for total.Load() < cfg.acks {
		if srv.cmd.ProcessState != nil {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := srv.cmd.Process.Kill(); err != nil {
		return nil, err
	}
	close(killed)
	srv.cmd.Wait()
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("conn %d: %w", c, err)
		}
	}
	if total.Load() < cfg.acks {
		return nil, fmt.Errorf("only %d inserts acknowledged before the server died (wanted %d):\n%s",
			total.Load(), cfg.acks, srv.out.String())
	}
	return records, nil
}

// remoteView adapts a wire connection to the crashtest.Set surface the
// checker consumes. Contents probes every attempted key with pipelined
// GETs — the server started empty and only attempted keys can exist, so
// the probe set is exhaustive. The *pmem.Thread parameters are unused
// (the structure lives in another process).
type remoteView struct {
	cl        *server.Client
	attempted []uint64
	err       error
}

func (r *remoteView) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

func (r *remoteView) Find(_ *pmem.Thread, k uint64) (uint64, bool) {
	v, ok, err := r.cl.Get(k)
	r.fail(err)
	return v, ok
}

func (r *remoteView) Insert(_ *pmem.Thread, k, v uint64) bool {
	ok, err := r.cl.Insert(k, v)
	r.fail(err)
	return ok
}

func (r *remoteView) Delete(_ *pmem.Thread, k uint64) bool {
	ok, err := r.cl.Del(k)
	r.fail(err)
	return ok
}

func (r *remoteView) Recover(*pmem.Thread) {}

func (r *remoteView) Contents(*pmem.Thread) []uint64 {
	const window = 64
	var present []uint64
	for i := 0; i < len(r.attempted); i += window {
		end := i + window
		if end > len(r.attempted) {
			end = len(r.attempted)
		}
		for _, k := range r.attempted[i:end] {
			if err := r.cl.SendGet(k); err != nil {
				r.fail(err)
				return present
			}
		}
		if err := r.cl.Flush(); err != nil {
			r.fail(err)
			return present
		}
		for _, k := range r.attempted[i:end] {
			rep, err := r.cl.ReadReply()
			if err != nil {
				r.fail(err)
				return present
			}
			if !rep.IsErr() && rep.Found {
				present = append(present, k)
			}
		}
	}
	return present
}

// smokeVerify replays the recorded histories through the
// durable-linearizability checker against the restarted server.
func smokeVerify(sock string, records [][]smokeRecord) error {
	cl, err := server.Dial("unix:" + sock)
	if err != nil {
		return err
	}
	defer cl.Close()
	view := &remoteView{cl: cl}
	hists := make([]*crashtest.History, len(records))
	for c, rs := range records {
		h := &crashtest.History{}
		for _, r := range rs {
			view.attempted = append(view.attempted, r.key)
			if r.acked {
				h.Completed(crashtest.OpInsert, r.key, r.value, r.ok)
			} else {
				h.InFlight(crashtest.OpInsert, r.key, r.value)
			}
		}
		hists[c] = h
	}
	violations, present := crashtest.Check(view, nil, hists, crashtest.CheckConfig{CheckValues: true})
	if view.err != nil {
		return fmt.Errorf("wire error during check: %w", view.err)
	}
	if len(violations) > 0 {
		max := len(violations)
		if max > 10 {
			max = 10
		}
		msg := ""
		for _, v := range violations[:max] {
			msg += fmt.Sprintf("\n  %s", v)
		}
		return fmt.Errorf("%d durable-linearizability violations (%d keys present):%s",
			len(violations), present, msg)
	}
	return nil
}
