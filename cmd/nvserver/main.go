// Command nvserver serves the durable key-value store over two wire
// protocols on the same listener — pipelined RESP-lite text and a
// length-prefixed binary frame protocol (negotiated by the connection's
// first byte) — with shard-affine workers group-committing one fence per
// shard group.
//
//	nvserver -listen unix:/tmp/nv.sock -shards 8
//	nvserver -listen tcp:127.0.0.1:7420 -kind skiplist -profile nvram
//	nvserver -listen unix:/tmp/nv.sock -data /var/lib/nv -ckpt-bytes 4194304
//	nvserver -listen unix:/tmp/r1.sock -replica-of unix:/tmp/nv.sock
//
// SIGINT or SIGTERM (or -serve-for running out) shuts it down cleanly: a
// durable store checkpoints and closes before the process exits. The
// server benchmark lives in benchmark/ (bash benchmark/run.sh); the
// SIGKILL-restart and replication-failover smokes are this package's tests.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvserver:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nvserver", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "unix:/tmp/nvserver.sock", "serve address: unix:/path or tcp:host:port")
		serveFor = fs.Duration("serve-for", 0, "stop serving after this long (0 = until SIGINT/SIGTERM)")

		kind     = fs.String("kind", "hash", "structure kind (hash, list, skiplist, ellenbst, nmbst)")
		policy   = fs.String("policy", "nvtraverse", "persistence policy")
		profile  = fs.String("profile", "zero", "latency profile: nvram, dram, zero")
		shards   = fs.Int("shards", 4, "shard count (at least 1)")
		size     = fs.Int("size", 1<<16, "expected key-range size hint")
		maxConns = fs.Int("max-conns", 64, "maximum concurrent connections")
		dataDir  = fs.String("data", "", "durable data directory (WAL + checkpoints; empty = in-memory only)")
		syncWAL  = fs.Bool("sync", false, "fsync the WAL at every commit fence (needs -data)")
		ckptB    = fs.Int64("ckpt-bytes", 0, "take an automatic checkpoint when a shard's WAL reaches this many bytes (0 = only on clean shutdown; needs -data)")

		replicaOf = fs.String("replica-of", "", "serve as a read-only replica of this primary (unix:/path or tcp:host:port)")
		waitK     = fs.Int("wait", 0, "write quorum: acknowledge a write only after this many replicas confirmed it (0 = never wait)")
		waitTO    = fs.Duration("wait-timeout", time.Second, "fail WAIT-gated writes after this long without quorum")

		idleTO = fs.Duration("idle-timeout", 5*time.Minute, "close connections idle, or leaving replies unread, for this long (0 = never)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	if *shards < 1 {
		return fmt.Errorf("-shards must be at least 1")
	}
	if *syncWAL && *dataDir == "" {
		return fmt.Errorf("-sync needs -data")
	}
	if *ckptB > 0 && *dataDir == "" {
		return fmt.Errorf("-ckpt-bytes needs -data")
	}
	if *replicaOf != "" && *waitK > 0 {
		return fmt.Errorf("-replica-of serves read-only; it is incompatible with -wait")
	}
	return runServe(out, *listen, *serveFor, *kind, *policy, *profile, *shards, *size,
		*maxConns, *dataDir, *syncWAL, *ckptB, *idleTO,
		*replicaOf, *waitK, *waitTO)
}

// openStore builds the store behind the server. With a data directory the
// open replays any existing WAL/checkpoint, so a restarted server resumes
// exactly the acknowledged state of its predecessor. The session budget
// covers the connections plus the shard-affine pool workers (one per
// shard) and the admin session. The write quorum waitK is the store's: the
// server's replication primary reads it from there.
func openStore(kind, policy, profile string, shards, size, maxConns int, dataDir string, syncWAL bool, ckptBytes int64, waitK int) (store.Store, error) {
	pol, ok := persist.ByName(policy)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", policy)
	}
	if !pol.Durable() {
		return nil, fmt.Errorf("policy %q is not durable; the server acknowledges writes as durable", policy)
	}
	prof, err := profileByName(profile)
	if err != nil {
		return nil, err
	}
	return store.Open(store.Config{
		Kind:         core.Kind(kind),
		Policy:       pol,
		Profile:      prof,
		Shards:       shards,
		SizeHint:     size,
		MaxSessions:  maxConns + shards + 4,
		Dir:          dataDir,
		SyncFence:    syncWAL,
		CkptBytes:    ckptBytes,
		WaitReplicas: waitK,
	})
}

func runServe(out io.Writer, listen string, serveFor time.Duration,
	kind, policy, profile string, shards, size, maxConns int,
	dataDir string, syncWAL bool, ckptBytes int64, idleTO time.Duration,
	replicaOf string, waitK int, waitTO time.Duration) error {
	st, err := openStore(kind, policy, profile, shards, size, maxConns, dataDir, syncWAL, ckptBytes, waitK)
	if err != nil {
		return err
	}
	srv := server.New(st, server.Config{MaxConns: maxConns, IdleTimeout: idleTO, WaitTimeout: waitTO})
	if replicaOf != "" {
		// A durable replica keeps its stream position next to the WAL so a
		// restart resumes tailing instead of re-copying the snapshot.
		wm := ""
		if dataDir != "" {
			wm = filepath.Join(dataDir, "repl.watermark")
		}
		if err := srv.StartReplica(replicaOf, wm); err != nil {
			st.Close()
			return fmt.Errorf("replica attach: %w", err)
		}
	}
	ln, err := server.Listen(listen)
	if err != nil {
		return err
	}
	role := ""
	switch {
	case replicaOf != "":
		role = fmt.Sprintf(", replica of %s", replicaOf)
	case waitK > 0:
		role = fmt.Sprintf(", WAIT quorum %d", waitK)
	}
	fmt.Fprintf(out, "nvserver: serving %s/%d-shard (%s, %s) on %s%s\n",
		kind, shards, policy, profile, listen, role)
	if st.Durable() {
		rs := st.ReplayStats()
		fmt.Fprintf(out, "nvserver: data dir %s: replayed %d records / %d lines / %d WAL bytes (+%d checkpoint bytes) in %s%s\n",
			dataDir, rs.Records, rs.Lines, rs.Bytes, rs.CheckpointBytes, rs.Elapsed,
			map[bool]string{true: ", torn tail truncated", false: ""}[rs.Truncated])
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	var after <-chan time.Time // nil (blocks forever) unless a duration was set
	if serveFor > 0 {
		after = time.After(serveFor)
	}
	select {
	case <-after:
	case <-stop:
	case err := <-done:
		return err
	}
	srv.Close()
	if err := <-done; err != nil {
		return err
	}
	// A run that degraded must exit nonzero even though the process kept
	// serving reads: every write since the latch was refused, and only a
	// restart + recovery (replaying the pre-damage log) clears the state.
	if err := srv.DegradedErr(); err != nil {
		st.Close()
		return fmt.Errorf("degraded: %w", err)
	}
	// A failed automatic checkpoint never lost data — the old generation
	// stayed live — but it means the WAL stopped being bounded, which only
	// the operator can judge; surface it as the run's error.
	if err := srv.CheckpointErr(); err != nil {
		return fmt.Errorf("automatic checkpoint: %w", err)
	}
	// Clean shutdown of a durable store: checkpoint (so the next open
	// replays a snapshot, not the whole log) and close the files.
	if st.Durable() {
		if err := st.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint on shutdown: %w", err)
		}
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	fmt.Fprintln(out, "nvserver: shut down cleanly")
	return nil
}

func profileByName(name string) (pmem.Profile, error) {
	switch name {
	case "nvram":
		return pmem.ProfileNVRAM, nil
	case "dram":
		return pmem.ProfileDRAM, nil
	case "zero":
		return pmem.ProfileZero, nil
	}
	return pmem.Profile{}, fmt.Errorf("unknown profile %q", name)
}
