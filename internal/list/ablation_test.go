package list

// Ablation tests: §4.3 of the paper argues the prescribed flushes and
// fences are necessary — "removing any of them could violate the
// correctness of some NVTraverse data structure". These tests construct
// the violating schedules deterministically: each stages a concurrent
// operation stopped at its vulnerable point, runs a complete operation
// under either the full NVTraverse policy or an ablated variant, crashes,
// and shows that the full policy survives while the ablated one loses a
// completed operation's effect.

import (
	"testing"

	"repro/internal/persist"
	"repro/internal/pmem"
)

// dropEnsureReachable is NVTraverse without Protocol 1's ensureReachable:
// PostTraverse flushes the fields read in the returned nodes but not the
// parent link of the topmost returned node (cells[0] by construction).
type dropEnsureReachable struct{ persist.NVTraverse }

func (dropEnsureReachable) Name() string { return "nvtraverse-minus-ensurereachable" }

func (dropEnsureReachable) PostTraverse(t *pmem.Thread, cells []*pmem.Cell) {
	for _, c := range cells[1:] {
		t.Flush(c)
	}
}

// dropMakePersistent is NVTraverse without Protocol 1 entirely: PostTraverse
// flushes nothing, so the critical method's fences have none of the
// traversal destination to persist.
type dropMakePersistent struct{ persist.NVTraverse }

func (dropMakePersistent) Name() string { return "nvtraverse-minus-posttraverse" }

func (dropMakePersistent) PostTraverse(t *pmem.Thread, cells []*pmem.Cell) {}

// stageUnpersistedInsert hand-executes an insert of key k1 up to and
// including its link CAS but *stops before its flush and fence*, exactly
// like a thread suspended mid-critical-method: node k1 is reachable in
// volatile memory but the link that reaches it is not persistent.
func stageUnpersistedInsert(t *testing.T, l *List, th *pmem.Thread, k1 uint64) {
	t.Helper()
	tr := l.acquireTraversal(th)
	l.traverse(th, l.head, k1, tr)
	if len(tr.marked) != 0 {
		t.Fatalf("staging: unexpected marked nodes")
	}
	idx := l.sh.Ar.Alloc(th.ID)
	n := l.node(idx)
	th.Store(&n.Key, k1)
	th.Store(&n.Value, k1)
	th.Store(&n.Next, pmem.Dirty(pmem.MakeRef(tr.right)))
	// The in-flight inserter did flush its node fields and fence before
	// the CAS (that part of its critical method already ran)...
	th.Flush(&n.Key)
	th.Flush(&n.Value)
	th.Flush(&n.Next)
	th.Fence()
	if !th.CAS(&l.node(tr.left).Next, tr.leftNext, pmem.Dirty(pmem.MakeRef(idx))) {
		t.Fatalf("staging: link CAS failed")
	}
	// ...but crashed before flushing the link CAS: left.Next -> k1 is
	// volatile only.
}

// runStagedScenario returns whether key want survived the crash.
//
// Schedule: keys {10, 30} persisted; thread A's insert(20) is in flight,
// stopped right after its link CAS (10 -> 20 volatile only); thread B then
// runs op, a complete operation under the given policy that must report
// success; then the crash, with eviction 0.
func runStagedScenario(t *testing.T, pol persist.Policy, op func(b *pmem.Thread, l *List) bool, want uint64) bool {
	t.Helper()
	_, ok := runStagedCrash(t, pol, op, want, 0, 0, 1)
	return ok
}

// runStagedCrash is runStagedScenario's schedule with the crash placed
// anywhere: at B's atFence-th fence (B's op is then cut off there), or
// after B's op completes when atFence is 0. The crash evicts each dirty
// line with probability evict, drawn from seed. It returns want's value
// after recovery and whether want is present.
func runStagedCrash(t *testing.T, pol persist.Policy, op func(b *pmem.Thread, l *List) bool, want uint64,
	atFence int, evict float64, seed int64) (uint64, bool) {
	t.Helper()
	mem := pmem.New(pmem.Config{Mode: pmem.ModeTracked, Profile: pmem.ProfileZero, MaxThreads: 8})
	l := New(mem, pol)
	setup := mem.NewThread()
	l.Insert(setup, 10, 10)
	l.Insert(setup, 30, 30)
	mem.PersistAll()

	a := mem.NewThread()
	stageUnpersistedInsert(t, l, a, 20)

	b := mem.NewThread()
	if atFence > 0 {
		mem.CrashAtFence(atFence)
		if !pmem.RunOp(func() { op(b, l) }) {
			t.Fatalf("%s: B's operation finished before its fence %d", pol.Name(), atFence)
		}
	} else {
		if !op(b, l) {
			t.Fatalf("%s: B's operation failed", pol.Name())
		}
		// B's operation COMPLETED. Crash now.
		mem.Crash()
	}
	mem.FinishCrash(evict, seed)
	mem.Restart()
	rec := mem.NewThread()
	l.Recover(rec)
	if err := l.Validate(rec); err != nil {
		t.Fatalf("structure invalid after crash: %v", err)
	}
	return l.Find(rec, want)
}

// runEnsureReachableScenario returns whether B's Insert(25) survived. B's
// traversal stops at left=20: B's link CAS writes into node 20, whose own
// reachability hinges on A's unpersisted link. ensureReachable makes B
// flush the parent link (10.Next) before B's critical method; without it,
// B returns "inserted" while 25 hangs off an unreachable node.
func runEnsureReachableScenario(t *testing.T, pol persist.Policy) bool {
	insert := func(b *pmem.Thread, l *List) bool { return l.Insert(b, 25, 25) }
	return runStagedScenario(t, pol, insert, 25)
}

func TestEnsureReachableIsNecessary(t *testing.T) {
	if !runEnsureReachableScenario(t, persist.NVTraverse{}) {
		t.Fatalf("full NVTraverse lost a completed insert")
	}
	if runEnsureReachableScenario(t, dropEnsureReachable{}) {
		t.Fatalf("ablated policy unexpectedly survived: the scenario no longer demonstrates necessity")
	}
}

// runMakePersistentScenario returns whether the crash-surviving state is
// consistent with B's completed Find.
//
// Schedule: key 20 persisted; thread A's delete(20) is in flight, stopped
// right after its (unflushed) mark CAS; thread B then runs a complete
// Find(20) under the given policy and observes "absent" (it saw the mark).
// B's answer depends on A's unpersisted mark: makePersistent makes B flush
// the marked link before returning. Without it, the crash rolls the mark
// back and 20 is present again — contradicting B's completed operation.
func runMakePersistentScenario(t *testing.T, pol persist.Policy) bool {
	t.Helper()
	mem := pmem.New(pmem.Config{Mode: pmem.ModeTracked, Profile: pmem.ProfileZero, MaxThreads: 8})
	l := New(mem, pol)
	setup := mem.NewThread()
	l.Insert(setup, 10, 10)
	l.Insert(setup, 20, 20)
	l.Insert(setup, 30, 30)
	mem.PersistAll()

	// Thread A: logical delete of 20 (mark CAS), no flush, no fence.
	a := mem.NewThread()
	idx := findHandle(t, l, a, 20)
	n := l.node(idx)
	nx := a.Load(&n.Next)
	if !a.CAS(&n.Next, nx, pmem.WithMark(nx)) {
		t.Fatalf("staging: mark CAS failed")
	}

	// Thread B: a complete Find(20) must answer "absent".
	b := mem.NewThread()
	if _, ok := l.Find(b, 20); ok {
		t.Fatalf("B did not observe the mark")
	}
	mem.Crash()
	mem.FinishCrash(0, 1)
	mem.Restart()
	rec := mem.NewThread()
	l.Recover(rec)
	_, present := l.Find(rec, 20)
	// Consistent iff 20 stayed deleted (B's completed answer holds).
	return !present
}

func TestMakePersistentIsNecessary(t *testing.T) {
	if !runMakePersistentScenario(t, persist.NVTraverse{}) {
		t.Fatalf("full NVTraverse: a completed find's observation was lost")
	}
	if runMakePersistentScenario(t, dropMakePersistent{}) {
		t.Fatalf("ablated policy unexpectedly survived: the scenario no longer demonstrates necessity")
	}
}

// dropReturnFence is NVTraverse without Protocol 2's fence-before-return.
// PostTraverse fences nothing of its own, so in a read-only operation the
// return fence is the only one that persists what the traversal returned.
type dropReturnFence struct{ persist.NVTraverse }

func (dropReturnFence) Name() string                { return "nvtraverse-minus-returnfence" }
func (dropReturnFence) BeforeReturn(t *pmem.Thread) {}

// TestReadPersistsWhatItReturns: a completed Find and a completed RangeScan
// that report A's key 20 persist it, though PostTraverse issues no fence.
// B's answer depends on A's unpersisted link: PostTraverse flushes the link
// and the return fence makes it durable, so the same reads without the
// return fence let the crash take the key back.
func TestReadPersistsWhatItReturns(t *testing.T) {
	reads := map[string]func(b *pmem.Thread, l *List) bool{
		"Find": func(b *pmem.Thread, l *List) bool {
			v, ok := l.Find(b, 20)
			return ok && v == 20
		},
		"RangeScan": func(b *pmem.Thread, l *List) bool {
			saw := false
			if err := l.RangeScan(b, 15, 25, func(k, v uint64) bool {
				saw = saw || (k == 20 && v == 20)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			return saw
		},
	}
	for name, read := range reads {
		if !runStagedScenario(t, persist.NVTraverse{}, read, 20) {
			t.Errorf("%s: full NVTraverse lost the key a completed read returned", name)
		}
		if runStagedScenario(t, dropReturnFence{}, read, 20) {
			t.Errorf("%s: ablated policy unexpectedly survived: the scenario no longer shows the return fence persists a read", name)
		}
	}
}

// updateTo99 is B's in-place Update of A's unpersisted key 20.
func updateTo99(b *pmem.Thread, l *List) bool {
	v, ok := l.Update(b, 20, func(uint64) uint64 { return 99 })
	return ok && v == 99
}

// TestUpdatePersistsWhatItReturns: no fence precedes the value CAS, so the
// commit fence is B's only one, and a completed Update(20) on A's
// unpersisted insert must still survive the crash: the fence persists the
// parent link PostTraverse flushed together with the new value WroteData
// flushed. Without the return fence nothing of it persists and the update
// is lost.
func TestUpdatePersistsWhatItReturns(t *testing.T) {
	oneFence := func(b *pmem.Thread, l *List) bool {
		ok := updateTo99(b, l)
		if f := b.StatsSnapshot().Fences; f != 1 {
			t.Errorf("B's Update issued %d fences, want 1: its commit fence", f)
		}
		return ok
	}
	if v, ok := runStagedCrash(t, persist.NVTraverse{}, oneFence, 20, 0, 0, 1); !ok || v != 99 {
		t.Errorf("full NVTraverse: after a completed Update(20) -> 99, 20 present=%v value=%d", ok, v)
	}
	if v, ok := runStagedCrash(t, dropReturnFence{}, updateTo99, 20, 0, 0, 1); ok && v == 99 {
		t.Errorf("ablated policy unexpectedly kept the update: the scenario no longer shows the return fence persists it")
	}
}

// TestUpdateCrashAtCommitFence cuts B's Update off at its first fence,
// which is its commit fence, and lets the crash evict each dirty line with
// probability 0.5. Neither A's insert nor B's update was acknowledged, so
// every surviving state must be one some order of the two explains: 20
// absent, 20 holding A's value, or 20 holding B's.
func TestUpdateCrashAtCommitFence(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(0); seed < 64; seed++ {
		v, ok := runStagedCrash(t, persist.NVTraverse{}, updateTo99, 20, 1, 0.5, seed)
		switch {
		case !ok:
			seen["absent"] = true
		case v == 20:
			seen["old"] = true
		case v == 99:
			seen["new"] = true
		default:
			t.Fatalf("seed %d: 20 holds %d, neither A's value nor B's", seed, v)
		}
	}
	t.Logf("outcomes over 64 seeds: %v", seen)
}

// dropCriticalFlushes is NVTraverse without Protocol 2's flush-after-CAS:
// updates reach volatile memory and are fenced, but nothing was flushed,
// so the fences have nothing to persist.
type dropCriticalFlushes struct{ persist.NVTraverse }

func (dropCriticalFlushes) Name() string                           { return "nvtraverse-minus-wrote" }
func (dropCriticalFlushes) Wrote(t *pmem.Thread, c *pmem.Cell)     {}
func (dropCriticalFlushes) InitWrite(t *pmem.Thread, c *pmem.Cell) {}

func TestCriticalFlushesAreNecessary(t *testing.T) {
	run := func(pol persist.Policy) bool {
		mem := pmem.New(pmem.Config{Mode: pmem.ModeTracked, Profile: pmem.ProfileZero, MaxThreads: 4})
		l := New(mem, pol)
		th := mem.NewThread()
		mem.PersistAll()
		if !l.Insert(th, 7, 7) { // a completed insert
			t.Fatalf("insert failed")
		}
		mem.Crash()
		mem.FinishCrash(0, 1)
		mem.Restart()
		rec := mem.NewThread()
		l.Recover(rec)
		_, ok := l.Find(rec, 7)
		return ok
	}
	if !run(persist.NVTraverse{}) {
		t.Fatalf("full NVTraverse lost a completed insert")
	}
	if run(dropCriticalFlushes{}) {
		t.Fatalf("ablated policy unexpectedly survived")
	}
}

// dropFences is NVTraverse without any fence: flushes are issued but never
// forced to persistent memory, so in the simulated clwb/sfence semantics
// nothing ever persists.
type dropFences struct{ persist.NVTraverse }

func (dropFences) Name() string { return "nvtraverse-minus-fences" }

func (dropFences) PostTraverse(t *pmem.Thread, cells []*pmem.Cell) {
	for _, c := range cells {
		t.Flush(c)
	}
}
func (dropFences) BeforeCAS(t *pmem.Thread)    {}
func (dropFences) BeforeReturn(t *pmem.Thread) {}

func TestFencesAreNecessary(t *testing.T) {
	run := func(pol persist.Policy) bool {
		mem := pmem.New(pmem.Config{Mode: pmem.ModeTracked, Profile: pmem.ProfileZero, MaxThreads: 4})
		l := New(mem, pol)
		th := mem.NewThread()
		mem.PersistAll()
		if !l.Insert(th, 7, 7) {
			t.Fatalf("insert failed")
		}
		mem.Crash()
		mem.FinishCrash(0, 1)
		mem.Restart()
		rec := mem.NewThread()
		l.Recover(rec)
		_, ok := l.Find(rec, 7)
		return ok
	}
	if !run(persist.NVTraverse{}) {
		t.Fatalf("full NVTraverse lost a completed insert")
	}
	if run(dropFences{}) {
		t.Fatalf("ablated policy unexpectedly survived")
	}
}
