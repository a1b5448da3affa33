// Command nvcrash tortures a structure/policy combination with simulated
// crashes and checks durable linearizability after each recovery (the
// property Theorem 4.2 proves for NVTraverse structures). With -shards it
// tortures the whole sharded KV engine instead: every shard's memory
// crashes at once (mid-batch included), recovery runs in parallel, and the
// checker verifies every shard's surviving state. On ordered kinds the
// checker additionally cross-validates the post-recovery full-range scan
// (the engine's merged scan for -shards) against the recovered contents.
//
// The crash model is cache-line granular: whole 64-byte lines persist or
// vanish atomically, and the eviction lottery evicts whole lines.
//
// Usage:
//
//	nvcrash -kind list -policy nvtraverse -rounds 20
//	nvcrash -kind skiplist -policy none        # watch the checker catch it
//	nvcrash -kind queue                        # FIFO order torture
//	nvcrash -kind stack -policy izraelevitz    # LIFO order torture
//	nvcrash -kind dqueue                       # hand-tuned DurableQueue
//	nvcrash -shards 8 -batch 8 -rounds 10      # engine torture, batched ops
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/crashtest"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/queue"
	"repro/internal/stack"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nvcrash:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nvcrash", flag.ContinueOnError)
	var (
		kind    = fs.String("kind", "list", "structure: list, hash, ellenbst, nmbst, skiplist, queue, stack, dqueue")
		policy  = fs.String("policy", "nvtraverse", "persistence policy: none, nvtraverse, izraelevitz, logfree")
		rounds  = fs.Int("rounds", 10, "crash rounds")
		workers = fs.Int("workers", 4, "concurrent workers")
		keys    = fs.Uint64("keys", 128, "key range")
		ops     = fs.Uint64("ops", 500, "operations before the crash")
		evict   = fs.Float64("evict", 0.25, "probability an unpersisted line survives (cache eviction)")
		seed    = fs.Int64("seed", 1, "base RNG seed")
		shards  = fs.Int("shards", 0, "torture the sharded engine with this many shards (0 = single structure)")
		batch   = fs.Int("batch", 0, "ops per session batch in engine torture (0/1 = single ops)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	pol, ok := persist.ByName(*policy)
	if !ok {
		return fmt.Errorf("unknown policy %q", *policy)
	}
	k := core.Kind(*kind)
	ordered := *kind == "queue" || *kind == "stack" || *kind == "dqueue"
	valid := ordered
	for _, known := range core.Kinds() {
		valid = valid || known == k
	}
	if !valid {
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if ordered && *shards > 0 {
		return fmt.Errorf("-shards tortures the KV engine; %q is not a set structure", *kind)
	}
	// Reject flags a kind would silently ignore: a user running the
	// documented "-policy none" ablation against dqueue (whose flushes are
	// hand-placed, not policy-driven) must not read an OK verdict as "none
	// is durable here", and -keys only parameterizes the set structures.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *kind == "dqueue" && set["policy"] {
		return fmt.Errorf("-policy does not apply to dqueue: its flushes are hand-placed (PPoPP'18), not policy-driven")
	}
	if ordered && set["keys"] {
		return fmt.Errorf("-keys does not apply to %q: ordered containers have no key range", *kind)
	}

	// Ordered kinds read only -workers, -ops, -evict and -seed (each round
	// prefills 16 values and adds on 60% of steps).
	var target crashtest.Target
	switch {
	case *kind == "queue":
		target = crashtest.Queue(func(mem *pmem.Memory) *queue.Queue { return queue.New(mem, pol) })
	case *kind == "dqueue":
		target = crashtest.Queue(queue.NewDurable)
	case *kind == "stack":
		target = crashtest.Stack(func(mem *pmem.Memory) *stack.Stack { return stack.New(mem, pol) })
	case *shards > 0:
		target = crashtest.Engine(*shards, k, pol, *batch)
	default:
		target = crashtest.Structure(func(mem *pmem.Memory) crashtest.Set {
			s, err := core.NewSet(k, mem, pol, core.Params{SizeHint: int(*keys)})
			if err != nil {
				panic(err)
			}
			return s
		})
	}

	bad := 0
	for r := 0; r < *rounds; r++ {
		res := crashtest.Run(crashtest.Options{
			Workers:        *workers,
			Keys:           *keys,
			PrefillEvery:   2,
			OpsBeforeCrash: *ops,
			UpdateRatio:    80,
			EvictProb:      *evict,
			Seed:           *seed + int64(r),
		}, target)
		status := "OK"
		if len(res.Violations) > 0 {
			status = "VIOLATED"
			bad++
		}
		fmt.Fprintf(out, "round %2d: %-8s completed=%d in-flight=%d survivors=%d violations=%d\n",
			r, status, res.Completed, res.InFlight, res.Survivors, len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(out, "    %s\n", v)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d/%d rounds violated durable linearizability", bad, *rounds)
	}
	fmt.Fprintf(out, "\nall %d rounds durably linearizable\n", *rounds)
	return nil
}
