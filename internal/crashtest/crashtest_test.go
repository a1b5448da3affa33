package crashtest

import (
	"testing"

	"repro/internal/ellenbst"
	"repro/internal/hashtable"
	"repro/internal/list"
	"repro/internal/nmbst"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/skiplist"
)

func listFactory(pol persist.Policy) Target {
	return Structure(func(mem *pmem.Memory) Set { return list.New(mem, pol) })
}

func tableFactory(pol persist.Policy, buckets int) Target {
	return Structure(func(mem *pmem.Memory) Set { return hashtable.New(mem, pol, buckets) })
}

func runRounds(t *testing.T, rounds int, opts Options, f Target) {
	t.Helper()
	for r := 0; r < rounds; r++ {
		opts.Seed = int64(r + 1)
		res := Run(opts, f)
		if res.Completed < opts.OpsBeforeCrash {
			t.Fatalf("round %d: only %d ops completed", r, res.Completed)
		}
		for _, v := range res.Violations {
			t.Errorf("round %d: %s", r, v)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

func TestListNVTraverseDurable(t *testing.T) {
	runRounds(t, 8, Options{
		Workers: 4, Keys: 64, PrefillEvery: 2,
		OpsBeforeCrash: 400, UpdateRatio: 80,
	}, listFactory(persist.NVTraverse{}))
}

func TestListNVTraverseDurableWithEviction(t *testing.T) {
	// Random cache evictions persist extra writes; durability must hold
	// regardless (evictions only ever persist more, never less).
	runRounds(t, 6, Options{
		Workers: 4, Keys: 64, PrefillEvery: 2,
		OpsBeforeCrash: 400, UpdateRatio: 80, EvictProb: 0.5,
	}, listFactory(persist.NVTraverse{}))
}

func TestListIzraelevitzDurable(t *testing.T) {
	runRounds(t, 6, Options{
		Workers: 4, Keys: 64, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, listFactory(persist.Izraelevitz{}))
}

func TestListLinkAndPersistDurable(t *testing.T) {
	runRounds(t, 6, Options{
		Workers: 4, Keys: 64, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, listFactory(persist.LinkAndPersist{}))
}

func TestListDisjointValuesDurable(t *testing.T) {
	runRounds(t, 6, Options{
		Workers: 4, Keys: 64, PrefillEvery: 2, Disjoint: true,
		OpsBeforeCrash: 400, UpdateRatio: 80,
	}, listFactory(persist.NVTraverse{}))
}

func TestHashTableNVTraverseDurable(t *testing.T) {
	runRounds(t, 6, Options{
		Workers: 4, Keys: 256, PrefillEvery: 2,
		OpsBeforeCrash: 500, UpdateRatio: 80,
	}, tableFactory(persist.NVTraverse{}, 32))
}

func TestHashTableLinkAndPersistDurable(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 256, PrefillEvery: 2,
		OpsBeforeCrash: 400, UpdateRatio: 80,
	}, tableFactory(persist.LinkAndPersist{}, 32))
}

// TestNonePolicyCaught is the negative control: without any persistence the
// checker must detect lost completed operations. This demonstrates the
// checker has teeth — the durable-policy tests above are not vacuous.
func TestNonePolicyCaught(t *testing.T) {
	caught := false
	for r := 0; r < 5 && !caught; r++ {
		res := Run(Options{
			Workers: 4, Keys: 64, PrefillEvery: 4,
			OpsBeforeCrash: 500, UpdateRatio: 100, Seed: int64(r),
		}, listFactory(persist.None{}))
		caught = len(res.Violations) > 0
	}
	if !caught {
		t.Fatalf("500 completed unpersisted updates survived a crash undetected")
	}
}

func TestResultFields(t *testing.T) {
	res := Run(Options{
		Workers: 2, Keys: 32, PrefillEvery: 1,
		OpsBeforeCrash: 50, UpdateRatio: 50, Seed: 9,
	}, listFactory(persist.NVTraverse{}))
	if res.Completed < 50 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Survivors == 0 {
		t.Fatalf("no survivors despite full prefill")
	}
	if res.InFlight > 2 {
		t.Fatalf("more in-flight ops than workers: %d", res.InFlight)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Key: 7, Detail: "lost"}
	if v.String() != "key 7: lost" {
		t.Fatalf("String() = %q", v.String())
	}
}

func TestAllowedStates(t *testing.T) {
	cases := []struct {
		name                string
		s                   keyState
		pre                 bool
		absentOK, presentOK bool
		feasible            bool
	}{
		{"untouched-absent", keyState{}, false, true, false, true},
		{"untouched-present", keyState{}, true, false, true, true},
		{"one-insert", keyState{inserts: 1}, false, false, true, true},
		{"insert-delete", keyState{inserts: 1, deletes: 1}, false, true, false, true},
		{"pre-one-delete", keyState{deletes: 1}, true, true, false, true},
		{"pre-delete-insert", keyState{deletes: 1, inserts: 1}, true, false, true, true},
		{"infeasible", keyState{inserts: 3}, false, false, false, false},
		{"inflight-insert", keyState{inflightIns: 1}, false, true, true, true},
		{"inflight-delete-pre", keyState{inflightDel: 1}, true, true, true, true},
		// A completed delete on an absent key is only explainable if the
		// in-flight insert took effect first.
		{"delete-enabled-by-inflight", keyState{deletes: 1, inflightIns: 1}, false, true, false, true},
	}
	for _, c := range cases {
		a, p, f := c.s.allowedStates(c.pre)
		if a != c.absentOK || p != c.presentOK || f != c.feasible {
			t.Errorf("%s: allowedStates = %v,%v,%v want %v,%v,%v",
				c.name, a, p, f, c.absentOK, c.presentOK, c.feasible)
		}
	}
}

func skipFactory(pol persist.Policy) Target {
	return Structure(func(mem *pmem.Memory) Set { return skiplist.New(mem, pol) })
}

func TestSkiplistNVTraverseDurable(t *testing.T) {
	runRounds(t, 6, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 400, UpdateRatio: 80,
	}, skipFactory(persist.NVTraverse{}))
}

func TestSkiplistIzraelevitzDurable(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, skipFactory(persist.Izraelevitz{}))
}

func TestSkiplistLinkAndPersistDurable(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, skipFactory(persist.LinkAndPersist{}))
}

func TestSkiplistNonePolicyCaught(t *testing.T) {
	caught := false
	for r := 0; r < 5 && !caught; r++ {
		res := Run(Options{
			Workers: 4, Keys: 64, PrefillEvery: 4,
			OpsBeforeCrash: 500, UpdateRatio: 100, Seed: int64(r),
		}, skipFactory(persist.None{}))
		caught = len(res.Violations) > 0
	}
	if !caught {
		t.Fatalf("unpersisted skiplist updates survived undetected")
	}
}

func ellenFactory(pol persist.Policy) Target {
	return Structure(func(mem *pmem.Memory) Set { return ellenbst.New(mem, pol) })
}

func TestEllenBSTNVTraverseDurable(t *testing.T) {
	runRounds(t, 8, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 400, UpdateRatio: 80,
	}, ellenFactory(persist.NVTraverse{}))
}

func TestEllenBSTNVTraverseDurableWithEviction(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 400, UpdateRatio: 80, EvictProb: 0.5,
	}, ellenFactory(persist.NVTraverse{}))
}

func TestEllenBSTIzraelevitzDurable(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, ellenFactory(persist.Izraelevitz{}))
}

func TestEllenBSTLinkAndPersistDurable(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, ellenFactory(persist.LinkAndPersist{}))
}

func TestEllenBSTNonePolicyCaught(t *testing.T) {
	caught := false
	for r := 0; r < 5 && !caught; r++ {
		res := Run(Options{
			Workers: 4, Keys: 64, PrefillEvery: 4,
			OpsBeforeCrash: 500, UpdateRatio: 100, Seed: int64(r),
		}, ellenFactory(persist.None{}))
		caught = len(res.Violations) > 0
	}
	if !caught {
		t.Fatalf("unpersisted BST updates survived undetected")
	}
}

func nmFactory(pol persist.Policy) Target {
	return Structure(func(mem *pmem.Memory) Set { return nmbst.New(mem, pol) })
}

func TestNMBSTNVTraverseDurable(t *testing.T) {
	runRounds(t, 8, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 400, UpdateRatio: 80,
	}, nmFactory(persist.NVTraverse{}))
}

func TestNMBSTNVTraverseDurableWithEviction(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 400, UpdateRatio: 80, EvictProb: 0.5,
	}, nmFactory(persist.NVTraverse{}))
}

func TestNMBSTIzraelevitzDurable(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, nmFactory(persist.Izraelevitz{}))
}

func TestNMBSTLinkAndPersistDurable(t *testing.T) {
	runRounds(t, 4, Options{
		Workers: 4, Keys: 128, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, nmFactory(persist.LinkAndPersist{}))
}

func TestNMBSTNonePolicyCaught(t *testing.T) {
	caught := false
	for r := 0; r < 5 && !caught; r++ {
		res := Run(Options{
			Workers: 4, Keys: 64, PrefillEvery: 4,
			OpsBeforeCrash: 500, UpdateRatio: 100, Seed: int64(r),
		}, nmFactory(persist.None{}))
		caught = len(res.Violations) > 0
	}
	if !caught {
		t.Fatalf("unpersisted NM BST updates survived undetected")
	}
}

func TestListOriginalParentDurable(t *testing.T) {
	runRounds(t, 6, Options{
		Workers: 4, Keys: 64, PrefillEvery: 2,
		OpsBeforeCrash: 300, UpdateRatio: 80,
	}, Structure(func(mem *pmem.Memory) Set {
		return list.NewWithOriginalParent(mem, persist.NVTraverse{})
	}))
}

// TestRepeatedCrashRecoverCycles drives one structure through several
// crash / recover / resume cycles on the same memory: recovery itself is
// persisted, so a second crash right after recovery must not undo it.
func TestRepeatedCrashRecoverCycles(t *testing.T) {
	mem := pmem.New(pmem.Config{Mode: pmem.ModeTracked, Profile: pmem.ProfileZero, MaxThreads: 16})
	ds := list.New(mem, persist.NVTraverse{})
	th := mem.NewThread()
	acked := map[uint64]bool{}
	for k := uint64(1); k <= 32; k++ {
		ds.Insert(th, k, k)
		acked[k] = true
	}
	mem.PersistAll()
	for cycle := 0; cycle < 5; cycle++ {
		// Some more completed work on a fresh thread each cycle.
		w := mem.NewThread()
		base := uint64(100*(cycle+1) + 1)
		for k := base; k < base+10; k++ {
			if ds.Insert(w, k, k) {
				acked[k] = true
			}
		}
		if ds.Delete(w, uint64(cycle)+1) {
			delete(acked, uint64(cycle)+1)
		}
		mem.Crash()
		mem.FinishCrash(0.3, int64(cycle))
		mem.Restart()
		rec := mem.NewThread()
		ds.Recover(rec)
		for k := range acked {
			if _, ok := ds.Find(rec, k); !ok {
				t.Fatalf("cycle %d: acknowledged key %d lost", cycle, k)
			}
		}
		if err := ds.Validate(rec); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
}
