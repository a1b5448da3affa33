// Command nvserver serves the durable key-value store over two wire
// protocols on the same listener — pipelined RESP-lite text and a
// length-prefixed binary frame protocol (negotiated by the connection's
// first byte) — with shard-affine workers group-committing one fence per
// shard group. It doubles as the load generator for those protocols.
//
// Serve:
//
//	nvserver -listen unix:/tmp/nv.sock -shards 8
//	nvserver -listen tcp:127.0.0.1:7420 -kind skiplist -profile nvram
//	nvserver -listen unix:/tmp/nv.sock -data /var/lib/nv -ckpt-bytes 4194304
//
// Load (against a running server; -bin drives the binary protocol, -rate
// switches to open-loop arrivals with coordinated-omission-free latency):
//
//	nvserver -load -connect unix:/tmp/nv.sock -conns 8 -pipeline 32 -dur 5s
//	nvserver -load -connect tcp:127.0.0.1:7420 -workload C -ops 100000
//	nvserver -load -connect unix:/tmp/nv.sock -bin -rate 200000 -poisson
//
// Self-test (serve + load in one process over a temp Unix socket; exits
// nonzero on any protocol error — the CI server-smoke gate):
//
//	nvserver -selftest -conns 4 -pipeline 8 -ops 5000
//
// The -json flag writes the load result as a BenchDoc row (same schema as
// nvbench -json), so server captures land in the same document format as
// the in-process panels.
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

	"repro/internal/bench"
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
		load     = fs.Bool("load", false, "run the load generator instead of serving")
		selftest = fs.Bool("selftest", false, "serve and load in one process over a temp unix socket")
		connect  = fs.String("connect", "unix:/tmp/nvserver.sock", "server address for -load")
		serveFor = fs.Duration("serve-for", 0, "stop serving after this long (0 = until SIGINT/SIGTERM)")

		kind     = fs.String("kind", "hash", "structure kind (hash, list, skiplist, ellenbst, nmbst)")
		policy   = fs.String("policy", "nvtraverse", "persistence policy")
		profile  = fs.String("profile", "zero", "latency profile: nvram, dram, zero")
		shards   = fs.Int("shards", 4, "shard count (0 = bare structure)")
		size     = fs.Int("size", 1<<16, "expected key-range size hint")
		maxConns = fs.Int("max-conns", 64, "maximum concurrent connections")
		dataDir  = fs.String("data", "", "durable data directory (WAL + checkpoints; empty = in-memory only)")
		syncWAL  = fs.Bool("sync", false, "fsync the WAL at every commit fence (needs -data)")
		ckptB    = fs.Int64("ckpt-bytes", 0, "take an automatic checkpoint when a shard's WAL reaches this many bytes (0 = only on clean shutdown; needs -data)")

		crashsmoke = fs.Bool("crashsmoke", false, "SIGKILL-restart smoke: spawn a -data server, kill it mid-load, restart, check every acked write")
		smokeAcks  = fs.Uint64("smoke-acks", 4000, "crashsmoke/replsmoke: acknowledged writes before the kill")
		replsmoke  = fs.Bool("replsmoke", false, "replication failover smoke: primary + 2 replicas, WAIT load, SIGKILL the primary, promote, check every acked write")

		replicaOf = fs.String("replica-of", "", "serve as a read-only replica of this primary (unix:/path or tcp:host:port)")
		waitK     = fs.Int("wait", 0, "write quorum: acknowledge a write only after this many replicas confirmed it (0 = never wait)")
		waitTO    = fs.Duration("wait-timeout", time.Second, "fail WAIT-gated writes after this long without quorum")

		maxBatch = fs.Int("maxbatch", 64, "group-commit: cap on one worker flush (a flush takes what queued during the previous one; a lone write flushes at once)")
		idleTO   = fs.Duration("idle-timeout", 5*time.Minute, "close connections idle for this long (0 = never)")

		conns    = fs.Int("conns", 4, "load: concurrent connections")
		pipeline = fs.Int("pipeline", 16, "load: requests in flight per connection")
		ops      = fs.Uint64("ops", 0, "load: total operation budget (0 = run -dur)")
		dur      = fs.Duration("dur", time.Second, "load: duration when -ops is 0")
		workload = fs.String("workload", "A", "load: YCSB workload (A, B, C, D, E, F, U)")
		keys     = fs.Uint64("range", 1<<14, "load: key range")
		theta    = fs.Float64("theta", 0, "load: Zipf skew override (0 = workload default)")
		prefill  = fs.Bool("prefill", false, "load: insert every other key before measuring")
		rate     = fs.Float64("rate", 0, "load: open-loop offered rate in ops/sec across all connections (0 = closed loop)")
		poisson  = fs.Bool("poisson", false, "load: Poisson interarrival times (with -rate)")
		binProto = fs.Bool("bin", false, "load: drive the binary frame protocol instead of text")
		jsonOut  = fs.String("json", "", "load: write the result as a BenchDoc JSON row to this path")
		label    = fs.String("label", "", "load: label recorded in the -json document")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	loadCfg := server.LoadConfig{
		Conns: *conns, Pipeline: *pipeline, Ops: *ops,
		Duration: bench.EffectiveDuration(*dur), Workload: *workload,
		Range: *keys, Theta: *theta, Prefill: *prefill,
		Rate: *rate, Poisson: *poisson, Binary: *binProto,
	}

	if *syncWAL && *dataDir == "" && !*crashsmoke {
		return fmt.Errorf("-sync needs -data")
	}
	if *ckptB > 0 && *dataDir == "" && !*crashsmoke {
		return fmt.Errorf("-ckpt-bytes needs -data")
	}

	switch {
	case *selftest && *load:
		return fmt.Errorf("-selftest and -load are mutually exclusive")
	case *replicaOf != "" && (*waitK > 0 || *load || *selftest || *crashsmoke):
		return fmt.Errorf("-replica-of serves; it is incompatible with -wait, -load, -selftest and -crashsmoke")
	case *replsmoke:
		return runReplSmoke(out, replSmokeConfig{
			kind: *kind, policy: *policy, shards: *shards, size: *size,
			dir: *dataDir, acks: *smokeAcks,
		})
	case *crashsmoke:
		return runCrashSmoke(out, smokeConfig{
			dir: *dataDir, kind: *kind, policy: *policy, shards: *shards,
			size: *size, sync: *syncWAL, conns: *conns, acks: *smokeAcks,
			ckptBytes: *ckptB,
		})
	case *selftest:
		return runSelfTest(out, *kind, *policy, *profile, *shards, *size, *maxConns,
			*maxBatch, loadCfg, *jsonOut, *label)
	case *load:
		loadCfg.Addr = *connect
		res, err := server.RunLoad(loadCfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res)
		if res.Errors > 0 {
			return fmt.Errorf("%d protocol errors", res.Errors)
		}
		return writeLoadDoc(*jsonOut, *label, loadCfg, res, out)
	default:
		return runServe(out, *listen, *serveFor, *kind, *policy, *profile, *shards, *size,
			*maxConns, *dataDir, *syncWAL, *ckptB, *idleTO, *maxBatch,
			*replicaOf, *waitK, *waitTO)
	}
}

// openStore builds the store behind the server. With a data directory the
// open replays any existing WAL/checkpoint, so a restarted server resumes
// exactly the acknowledged state of its predecessor. The session budget
// covers the connections plus the shard-affine pool workers (one per
// shard) and the admin session.
func openStore(kind, policy, profile string, shards, size, maxConns int, dataDir string, syncWAL bool, ckptBytes int64) (store.Store, error) {
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
	workers := shards
	if workers < 1 {
		workers = 1
	}
	return store.Open(store.Config{
		Kind:        core.Kind(kind),
		Policy:      pol,
		Profile:     prof,
		Shards:      shards,
		SizeHint:    size,
		MaxSessions: maxConns + workers + 4,
		Dir:         dataDir,
		SyncFence:   syncWAL,
		CkptBytes:   ckptBytes,
	})
}

func runServe(out io.Writer, listen string, serveFor time.Duration,
	kind, policy, profile string, shards, size, maxConns int,
	dataDir string, syncWAL bool, ckptBytes int64, idleTO time.Duration, maxBatch int,
	replicaOf string, waitK int, waitTO time.Duration) error {
	st, err := openStore(kind, policy, profile, shards, size, maxConns, dataDir, syncWAL, ckptBytes)
	if err != nil {
		return err
	}
	srv := server.New(st, server.Config{
		MaxConns: maxConns, MaxBatch: maxBatch, IdleTimeout: idleTO,
		WaitReplicas: waitK, WaitTimeout: waitTO,
	})
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

// runSelfTest serves on a private Unix socket and immediately drives it
// with the load generator: the zero-to-working smoke of the whole wire
// stack. Any protocol error fails the run.
func runSelfTest(out io.Writer, kind, policy, profile string, shards, size, maxConns int,
	maxBatch int, loadCfg server.LoadConfig, jsonOut, label string) error {
	st, err := openStore(kind, policy, profile, shards, size, maxConns, "", false, 0)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "nvserver-selftest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	addr := "unix:" + filepath.Join(dir, "nv.sock")
	srv := server.New(st, server.Config{MaxConns: maxConns, MaxBatch: maxBatch})
	ln, err := server.Listen(addr)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	loadCfg.Addr = addr
	if loadCfg.Ops == 0 && loadCfg.Duration <= 0 {
		loadCfg.Ops = 5000
	}
	res, err := server.RunLoad(loadCfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, res)
	srv.Close()
	if err := <-done; err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if res.Errors > 0 {
		return fmt.Errorf("selftest: %d protocol errors", res.Errors)
	}
	if res.Ops == 0 {
		return fmt.Errorf("selftest: no operations completed")
	}
	fmt.Fprintln(out, "selftest: ok (clean shutdown, zero errors)")
	return writeLoadDoc(jsonOut, label, loadCfg, res, out)
}

// writeLoadDoc lands a load result in the BenchDoc schema (nvbench -json
// compatible) under the "srv-load" panel.
func writeLoadDoc(path, label string, cfg server.LoadConfig, res server.LoadResult, out io.Writer) error {
	if path == "" {
		return nil
	}
	row := bench.RowFromResult("srv-load", bench.Result{
		Config: bench.Config{
			Kind: core.Kind("wire"), Policy: "server", Profile: pmem.Profile{Name: "-"},
			Threads: cfg.Conns, Range: cfg.Range, Workload: cfg.Workload,
		},
		Ops:     res.Ops,
		Mops:    res.OpsPerSec / 1e6,
		Elapsed: res.Elapsed,
		Lat:     res.Lat,
		Offered: res.Offered,
	})
	doc := bench.NewBenchDoc(label, []bench.JSONRow{row})
	if err := doc.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
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
