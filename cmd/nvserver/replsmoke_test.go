package main

// The replication-failover smoke: the out-of-process proof that a write
// acknowledged under WAIT survives losing the primary. The orchestrator
// spawns a durable primary with -wait 2 and two replicas attached over
// -replica-of, drives pipelined inserts until enough are acknowledged —
// each acknowledgement meaning both replicas confirmed the fence group —
// then SIGKILLs the primary mid-load, promotes one replica over the wire,
// and runs the durable-linearizability checker against it: every
// acknowledged insert must be present with its exact value. WAIT-failed
// and unread replies count as in flight (durable on the primary, maybe
// not on the survivors — the contract makes no promise for them). The
// second replica must keep serving stale reads and refusing writes.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
)

// TestReplSmokeFailover is `make repl-smoke`: a real primary and two real
// replica processes on Unix sockets, WAIT-2 load, a real SIGKILL of the
// primary, a PROMOTE over the wire, and the durable-linearizability
// checker against the promoted replica. Children re-enter run() through
// the NVSERVER_REEXEC hook in TestMain.
func TestReplSmokeFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes; skipped in -short")
	}
	cfg := replSmokeConfig{kind: "hash", shards: 4, size: 1 << 14, acks: 1500}
	var out strings.Builder
	if err := runReplSmoke(&out, cfg); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "replsmoke: ok") {
		t.Fatalf("no ok line:\n%s", out.String())
	}
}

// TestReplicaFlagValidation pins the flag-combination guard around
// -replica-of: a read-only replica cannot gate writes on a quorum.
func TestReplicaFlagValidation(t *testing.T) {
	mustRefuse(t, "-replica-of", "unix:/x", "-wait", "1")
}

type replSmokeConfig struct {
	kind   string
	shards int
	size   int
	acks   uint64 // acknowledged (= quorum-confirmed) inserts before the kill
}

// runReplSmoke runs the failover with the primary's data directory under
// the system temp dir, which it removes on success and keeps (printing its
// path) on failure.
func runReplSmoke(out io.Writer, cfg replSmokeConfig) error {
	dir, err := os.MkdirTemp("", "nvrepl-data")
	if err != nil {
		return err
	}
	sockDir, err := os.MkdirTemp("", "nvrepl-sock")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)

	err = replSmokeRun(out, cfg, dir, sockDir)
	if err != nil {
		fmt.Fprintf(out, "replsmoke: FAILED; primary data dir preserved at %s\n", dir)
		return err
	}
	os.RemoveAll(dir)
	fmt.Fprintln(out, "replsmoke: ok (failover lost no acknowledged write; survivor kept serving)")
	return nil
}

func replSmokeRun(out io.Writer, cfg replSmokeConfig, dir, sockDir string) error {
	psock := filepath.Join(sockDir, "p.sock")
	r1sock := filepath.Join(sockDir, "r1.sock")
	r2sock := filepath.Join(sockDir, "r2.sock")
	common := []string{
		"-kind", cfg.kind, "-profile", "zero",
		"-shards", strconv.Itoa(cfg.shards), "-size", strconv.Itoa(cfg.size),
		"-max-conns", "16",
	}

	// Quorum 2 of 2: an acknowledged write is on BOTH replicas, so
	// promoting either one preserves it. (With -wait 1 the ack could have
	// come from the replica we do not promote.)
	prim, err := startChildServer(psock, append([]string{
		"-data", dir, "-wait", "2", "-wait-timeout", "10s",
	}, common...))
	if err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	kill := func(s *smokeServer) {
		s.cmd.Process.Kill()
		s.cmd.Wait()
	}
	r1, err := startChildServer(r1sock, append([]string{"-replica-of", "unix:" + psock}, common...))
	if err != nil {
		kill(prim)
		return fmt.Errorf("replica 1: %w", err)
	}
	defer kill(r1)
	r2, err := startChildServer(r2sock, append([]string{"-replica-of", "unix:" + psock}, common...))
	if err != nil {
		kill(prim)
		return fmt.Errorf("replica 2: %w", err)
	}
	defer kill(r2)

	if err := waitForReplicas(psock, 2); err != nil {
		kill(prim)
		return err
	}
	fmt.Fprintln(out, "replsmoke: primary sees 2 replicas, loading under WAIT 2")

	records, err := replLoad(cfg, psock, prim)
	if err != nil {
		kill(prim)
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
	fmt.Fprintf(out, "replsmoke: killed primary with %d quorum-acked inserts, %d in flight\n", acked, inflight)

	// Failover: promote replica 1 over the wire.
	r1cl, err := server.Dial("unix:" + r1sock)
	if err != nil {
		return fmt.Errorf("dial replica 1: %w", err)
	}
	if err := r1cl.Promote(); err != nil {
		r1cl.Close()
		return fmt.Errorf("promote: %w", err)
	}
	// The promoted server accepts writes.
	if err := r1cl.Put(0xfa110ced, 1); err != nil {
		r1cl.Close()
		return fmt.Errorf("write after promote: %w", err)
	}
	r1cl.Close()

	// Every acknowledged insert must have survived onto the promoted
	// replica (smokeVerify shares the crashtest checker with crashsmoke).
	if err := smokeVerify(r1sock, records); err != nil {
		return fmt.Errorf("after failover: %w", err)
	}
	fmt.Fprintf(out, "replsmoke: failover verified (%d acked keys on the promoted replica)\n", acked)

	// The second replica lost its primary but keeps serving stale reads —
	// and keeps refusing writes, typed.
	r2cl, err := server.Dial("unix:" + r2sock)
	if err != nil {
		return fmt.Errorf("dial replica 2: %w", err)
	}
	defer r2cl.Close()
	if _, _, err := r2cl.Get(1); err != nil {
		return fmt.Errorf("survivor read: %w", err)
	}
	if err := r2cl.Put(1, 1); !errors.Is(err, server.ErrReplica) {
		return fmt.Errorf("survivor write: got %v, want ErrReplica", err)
	}
	return nil
}

// waitForReplicas polls STATS until the primary reports n attached
// replicas.
func waitForReplicas(sock string, n uint64) error {
	cl, err := server.Dial("unix:" + sock)
	if err != nil {
		return err
	}
	defer cl.Close()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := cl.Stats()
		if err == nil && st["repl_replicas"] >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("primary never saw %d replicas (stats %v, err %v)", n, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// replLoad drives pipelined inserts from 4 connections (disjoint key
// partitions, unique key per attempt) until cfg.acks clean
// acknowledgements landed, then SIGKILLs the primary. Unlike smokeLoad,
// an ERR reply (a WAIT timeout) leaves the record in flight: the write is
// durable on the primary but unconfirmed, and the failover contract makes
// no promise for it.
func replLoad(cfg replSmokeConfig, sock string, prim *smokeServer) ([][]smokeRecord, error) {
	const conns, window = 4, 16
	var total atomic.Uint64
	records := make([][]smokeRecord, conns)
	errs := make([]error, conns)
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
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
			sent := 0
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
				if !rep.IsErr() {
					records[c][idx].acked = true
					records[c][idx].ok = rep.Int == 1
					total.Add(1)
				}
				sent--
				select {
				case <-killed:
					return
				default:
				}
			}
		}(c)
	}
	for total.Load() < cfg.acks {
		if prim.cmd.ProcessState != nil {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := prim.cmd.Process.Kill(); err != nil {
		return nil, err
	}
	close(killed)
	prim.cmd.Wait()
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("conn %d: %w", c, err)
		}
	}
	if total.Load() < cfg.acks {
		return nil, fmt.Errorf("only %d inserts quorum-acknowledged before the primary died (wanted %d):\n%s",
			total.Load(), cfg.acks, prim.out.String())
	}
	return records, nil
}
