package core_test

// File-backend crash torture: the same durable-linearizability rounds the
// tracked simulation runs, but against the WAL-backed pmem directory. The
// crash uses SIGKILL semantics — the crashed memory is abandoned outright
// (its unflushed userspace WAL buffer dies with it, no FinishCrash), and a
// fresh memory + structure reopen the directory, replay the log, and
// recover. Every acknowledged operation must still be visible: each
// policy's BeforeReturn commit fence flushes the record before the op
// returns, so acked state is on disk by the time the history records it.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/crashtest"
	"repro/internal/persist"
	"repro/internal/pmem"
)

func fileTortureRounds(t *testing.T) int {
	if testing.Short() {
		return 1
	}
	return 3
}

func runFileTorture(t *testing.T, kind core.Kind, pol persist.Policy) {
	t.Helper()
	for r := 0; r < fileTortureRounds(t); r++ {
		res := crashtest.Run(crashtest.Options{
			Workers:        4,
			Keys:           256,
			Disjoint:       true,
			PrefillEvery:   4,
			OpsBeforeCrash: 300,
			Seed:           int64(r)*7919 + int64(len(kind)),
			Dir:            t.TempDir(),
		}, crashtest.Structure(func(mem *pmem.Memory) crashtest.Set {
			s, err := core.NewSet(kind, mem, pol, core.Params{SizeHint: 256})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}))
		if len(res.Violations) > 0 {
			for _, v := range res.Violations {
				t.Errorf("round %d: %s", r, v)
			}
			t.Fatalf("round %d: %d violations (completed=%d inflight=%d survivors=%d)",
				r, len(res.Violations), res.Completed, res.InFlight, res.Survivors)
		}
		if res.Completed < 300 {
			t.Fatalf("round %d: only %d ops completed", r, res.Completed)
		}
	}
}

func TestFileBackendCrashTorture(t *testing.T) {
	for _, kind := range core.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			runFileTorture(t, kind, persist.NVTraverse{})
		})
	}
}

// LinkAndPersist acks some operations without a commit fence (the link tag
// defers the flush), closing that window through DurableSync instead — worth
// its own torture pass over a structure that exercises the tagged-link path.
func TestFileBackendCrashTortureLinkAndPersist(t *testing.T) {
	runFileTorture(t, core.KindList, persist.LinkAndPersist{})
}

// TestFileBackendFencePoints crashes one operation at every fence of its
// execution against the file backend: build + prefill on a durable tracked
// memory, arm CrashAtFence(k), run the op, abandon the crashed memory
// without ceremony, reopen the directory with a fresh memory + structure,
// and require the recovered key set to be one some linearization of the
// interrupted operation explains — prefill intact, target either way.
func TestFileBackendFencePoints(t *testing.T) {
	prefill := []uint64{10, 20, 30, 40}
	scenarios := []struct {
		name   string
		key    uint64
		insert bool
	}{
		{"insert-new", 25, true},
		{"insert-dup", 20, true},
		{"delete-present", 30, false},
		{"delete-absent", 35, false},
	}
	for _, kind := range core.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			for _, sc := range scenarios {
				dir := t.TempDir()
				cfg := pmem.Config{Mode: pmem.ModeTracked, Profile: pmem.ProfileZero,
					MaxThreads: 4, Dir: dir}
				build := func() (*pmem.Memory, core.Set, *pmem.Thread) {
					mem := pmem.New(cfg)
					s, err := core.NewSet(kind, mem, persist.NVTraverse{}, core.Params{SizeHint: 64})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := mem.RecoverFiles(); err != nil {
						t.Fatalf("%s: recover: %v", sc.name, err)
					}
					return mem, s, mem.NewThread()
				}

				// Count the fences one clean execution issues (fresh dir so
				// the counting round leaves no state behind for the real one).
				fences := func() int {
					cnt := cfg
					cnt.Dir = t.TempDir()
					mem := pmem.New(cnt)
					s, err := core.NewSet(kind, mem, persist.NVTraverse{}, core.Params{SizeHint: 64})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := mem.RecoverFiles(); err != nil {
						t.Fatal(err)
					}
					th := mem.NewThread()
					for _, k := range prefill {
						s.Insert(th, k, k)
					}
					before := mem.Stats().Fences
					runOp(s, th, sc.key, sc.insert)
					n := int(mem.Stats().Fences - before)
					mem.Close()
					return n
				}()
				if fences == 0 {
					t.Fatalf("%s: op issues no fences", sc.name)
				}

				for k := 1; k <= fences; k++ {
					mem, s, th := build()
					for _, key := range prefill {
						s.Insert(th, key, key)
					}
					mem.CrashAtFence(k)
					crashed := pmem.RunOp(func() { runOp(s, th, sc.key, sc.insert) })
					if !crashed {
						t.Fatalf("%s: fence %d/%d did not crash", sc.name, k, fences)
					}
					// SIGKILL semantics: abandon mem, reopen from the files.
					mem2, s2, rec := build()
					s2.Recover(rec)
					if v, ok := s2.(core.Validator); ok {
						if err := v.Validate(rec); err != nil {
							t.Fatalf("%s: fence %d/%d: invalid after file recovery: %v",
								sc.name, k, fences, err)
						}
					}
					if err := checkFileFenceContents(s2, rec, prefill, sc.key, sc.insert); err != nil {
						t.Fatalf("%s: fence %d/%d: %v", sc.name, k, fences, err)
					}
					// The recovered structure accepts new operations.
					if !s2.Insert(rec, 999, 999) {
						t.Fatalf("%s: fence %d/%d: post-recovery insert failed", sc.name, k, fences)
					}
					mem2.Close()
					// Fresh directory for the next fence point.
					dir = t.TempDir()
					cfg.Dir = dir
				}
			}
		})
	}
}

func runOp(s core.Set, th *pmem.Thread, key uint64, insert bool) {
	if insert {
		s.Insert(th, key, key)
	} else {
		s.Delete(th, key)
	}
}

// checkFileFenceContents verifies prefill keys survive (except possibly the
// target), no foreign keys appear, and the target's presence is explainable
// by the interrupted operation landing fully or not at all.
func checkFileFenceContents(s core.Set, rec *pmem.Thread, prefill []uint64, target uint64, insert bool) error {
	got := map[uint64]bool{}
	for _, k := range s.Contents(rec) {
		got[k] = true
	}
	preTarget := false
	for _, k := range prefill {
		if k == target {
			preTarget = true
			continue
		}
		if !got[k] {
			return fmt.Errorf("prefilled key %d lost", k)
		}
		delete(got, k)
	}
	targetPresent := got[target]
	delete(got, target)
	if len(got) != 0 {
		extra := make([]uint64, 0, len(got))
		for k := range got {
			extra = append(extra, k)
		}
		sort.Slice(extra, func(i, j int) bool { return extra[i] < extra[j] })
		return fmt.Errorf("foreign keys present: %v", extra)
	}
	// Interrupted mutation: pre-state or post-state both explain the set.
	allowed := []bool{preTarget}
	if insert {
		allowed = append(allowed, true)
	} else {
		allowed = append(allowed, false)
	}
	for _, w := range allowed {
		if targetPresent == w {
			return nil
		}
	}
	return fmt.Errorf("target %d present=%v, allowed %v (prefilled=%v)",
		target, targetPresent, allowed, preTarget)
}
