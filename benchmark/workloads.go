package main

import (
	"fmt"
	"time"

	nv "repro"
	"repro/internal/server"
)

// A workload is one set-up plus one closed loop. Closed, because a
// key-value client is a caller that waits for its reply; the load comes from
// this one process. BENCHMARK.json records why each one exists.
type workload struct {
	name  string
	setup func(e *env, seed uint64) (instance, error)
}

// instance is a set-up system under test.
type instance interface {
	// run drives the closed loop until the window ends.
	run(w window) (*tally, error)
	// verify checks the final state (read-back; after a kill and on the
	// replica where the workload has them), adding to t.
	verify(t *tally) ([]metric, error)
	// counters snapshots what the system's public calls expose.
	counters() (map[string]float64, error)
	// diskBytes is the size of the data directory, 0 without one.
	diskBytes() int64
	close()
}

// The loaded wire workloads keep 4 connections x 8 requests in flight. Two
// connections x 16 were tried first and are not measurable: with so few
// connections the server sits idle in its poller, a lonely write's 50 us
// group-commit timer fires whenever the poller next wakes (up to 1 ms),
// and the two closed loops lock into step with each other or against each
// other: 14.5k or 20.5k ops/s, the same for a whole process lifetime and
// for minutes across processes. Four connections keep the poller awake.
// The timer floor itself is priced by the ladder's depth-1 rungs.
const (
	wireConns = 4
	wireDepth = 8
)

var workloads = []workload{
	{
		// The paper's setting: structure, persist and pmem do all the work.
		name: "mem-a",
		setup: func(_ *env, seed uint64) (instance, error) {
			return setupMem(nv.HashMap, ycsbA, seed, nv.WithShards(4), nv.WithProfile(nv.NVRAM))
		},
	},
	{
		// No shards (store.Single); catches a point-op gain paid for by scans.
		name: "mem-e",
		setup: func(_ *env, seed uint64) (instance, error) {
			return setupMem(nv.Skiplist, ycsbE, seed, nv.WithProfile(nv.NVRAM))
		},
	},
	{
		// Nothing on disk: group commit, codec and sockets dominate.
		name: "wire-a",
		setup: func(e *env, seed uint64) (instance, error) {
			return setupWire(e, wireSpec{bin: true, m: ycsbA, seed: seed})
		},
	},
	{
		// Text protocol; 95 % reads run inline and bypass the batcher.
		name: "wire-b-text",
		setup: func(e *env, seed uint64) (instance, error) {
			return setupWire(e, wireSpec{m: ycsbB, seed: seed})
		},
	},
	{
		// fsync at every commit fence, no checkpoint: the WAL dominates.
		name: "wire-a-sync",
		setup: func(e *env, seed uint64) (instance, error) {
			return setupWire(e, wireSpec{bin: true, m: ycsbA, seed: seed, durable: true})
		},
	},
	{
		// Replication and quorum acknowledgement sit on the write path.
		name: "wire-a-wait1",
		setup: func(e *env, seed uint64) (instance, error) {
			return setupWire(e, wireSpec{bin: true, m: ycsbA, seed: seed, replica: true})
		},
	},
}

// wireSpec is what varies between the wire workloads.
type wireSpec struct {
	bin     bool
	m       mix
	seed    uint64
	durable bool // -data <dir> -sync; verified after SIGKILL and restart
	replica bool // -wait 1 plus one -replica-of child; verified on the replica
}

type wireInstance struct {
	e       *env
	spec    wireSpec
	flags   []string
	dir     string
	primary *child
	replica *child
	ks      *keyState
	ctl     *server.Client // STATS between windows
}

func setupWire(e *env, spec wireSpec) (_ instance, err error) {
	in := &wireInstance{e: e, spec: spec, ks: newKeyState(wireConns)}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if spec.durable {
		in.dir = e.path("d")
		in.flags = []string{"-data", in.dir, "-sync"}
	}
	if spec.replica {
		in.flags = []string{"-wait", "1"}
	}
	if in.primary, err = e.spawn(in.flags...); err != nil {
		return nil, err
	}
	if in.ctl, err = server.Dial(in.primary.addr); err != nil {
		return nil, err
	}
	if spec.replica {
		if in.replica, err = e.spawn("-replica-of", in.primary.addr); err != nil {
			return nil, err
		}
		if err := in.awaitReplica(); err != nil {
			return nil, err
		}
	}
	if err := prefill(in.primary.addr, in.ks); err != nil {
		return nil, fmt.Errorf("prefill: %w\n%s", err, in.primary.log.String())
	}
	return in, nil
}

// awaitReplica waits until the primary counts its replica as connected;
// until then a quorum write would time out.
func (in *wireInstance) awaitReplica() error {
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		st, err := in.ctl.Stats()
		if err != nil {
			return err
		}
		if st["repl_replicas"] >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica never attached\n%s", in.replica.log.String())
		}
	}
}

func (in *wireInstance) run(w window) (*tally, error) {
	t, err := runConns(in.primary.addr, in.spec.bin, in.spec.m, in.spec.seed, in.ks, wireDepth, w)
	if err != nil {
		return nil, fmt.Errorf("%w\n%s", err, in.primary.log.String())
	}
	return t, nil
}

func (in *wireInstance) counters() (map[string]float64, error) {
	st, err := in.ctl.Stats()
	if err != nil {
		return nil, err
	}
	m := make(map[string]float64, len(st))
	for k, v := range st {
		m[k] = float64(v)
	}
	return m, nil
}

func (in *wireInstance) diskBytes() int64 {
	if in.dir == "" {
		return 0
	}
	return dirBytes(in.dir)
}

func (in *wireInstance) verify(t *tally) (info []metric, err error) {
	info = append(info, metric{"proc.rss_mb", in.primary.rssMB(), "MB"})
	switch {
	case in.spec.replica:
		err = readBack(in.replica.addr, in.ks, t, "replica")
	case !in.spec.durable:
		err = readBack(in.primary.addr, in.ks, t, "live")
	}
	if err != nil {
		return nil, err
	}
	if in.spec.durable {
		// Power-loss check: SIGKILL, restart on the same directory, and
		// every acknowledged write must still be there.
		in.ctl.Close()
		in.primary.kill()
		start := time.Now()
		if in.primary, err = in.e.spawnAt(in.primary.addr, in.flags...); err != nil {
			return nil, fmt.Errorf("restart after SIGKILL: %w", err)
		}
		info = append(info, metric{"pmem.restart_s", time.Since(start).Seconds(), "s"})
		if in.ctl, err = server.Dial(in.primary.addr); err != nil {
			return nil, err
		}
		if err := readBack(in.primary.addr, in.ks, t, "post-kill"); err != nil {
			return nil, err
		}
	}
	return info, nil
}

func (in *wireInstance) close() {
	if in.ctl != nil {
		in.ctl.Close()
	}
	for _, c := range []*child{in.replica, in.primary} {
		if c != nil {
			c.kill()
		}
	}
}
