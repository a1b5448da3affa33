package store_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crashtest"
	"repro/internal/persist"
)

// TestTortureDurableAcrossShardCounts is the engine-level durable-
// linearizability test: crash the whole engine mid-traffic (including
// mid-batch), recover all shards in parallel, and check every shard's
// surviving state against the recorded history.
func TestTortureDurableAcrossShardCounts(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for _, shards := range []int{1, 4, 8} {
		for r := 0; r < rounds; r++ {
			res := crashtest.Run(crashtest.Options{
				Workers:        4,
				Keys:           256,
				PrefillEvery:   2,
				OpsBeforeCrash: 400,
				EvictProb:      0.25,
				Seed:           int64(shards*100 + r),
			}, crashtest.Engine(shards, core.KindHash, persist.NVTraverse{}, 0))
			if len(res.Violations) > 0 {
				t.Fatalf("shards=%d round=%d: %d violations, first: %s",
					shards, r, len(res.Violations), res.Violations[0])
			}
			if res.Completed < 400 {
				t.Fatalf("shards=%d round=%d: only %d ops completed", shards, r, res.Completed)
			}
		}
	}
}

// TestTortureMidBatch crashes sessions inside Apply batches: a batch's
// commit fences are deferred to each shard group's EndBatch, so a crash
// mid-batch leaves many operations in flight at once — all of which must
// still be individually all-or-nothing.
func TestTortureMidBatch(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for _, kind := range []core.Kind{core.KindHash, core.KindSkiplist, core.KindList} {
		for r := 0; r < rounds; r++ {
			res := crashtest.Run(crashtest.Options{
				Workers:        4,
				Keys:           192,
				PrefillEvery:   2,
				OpsBeforeCrash: 300,
				EvictProb:      0.25,
				Seed:           int64(9000 + r),
			}, crashtest.Engine(4, kind, persist.NVTraverse{}, 8))
			if len(res.Violations) > 0 {
				t.Fatalf("%s round %d: %d violations, first: %s",
					kind, r, len(res.Violations), res.Violations[0])
			}
		}
	}
}

// TestTortureFileBackend runs the engine torture against the durable file
// backend: the crash abandons the whole engine (SIGKILL semantics — every
// shard's unflushed WAL buffer dies) and a fresh engine reopens the
// per-shard files for the check, exercising parallel per-shard replay
// under concurrent batched traffic.
func TestTortureFileBackend(t *testing.T) {
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for _, kind := range []core.Kind{core.KindHash, core.KindSkiplist} {
		for r := 0; r < rounds; r++ {
			res := crashtest.Run(crashtest.Options{
				Workers:        4,
				Keys:           256,
				PrefillEvery:   2,
				OpsBeforeCrash: 300,
				Seed:           int64(4200 + r),
				Dir:            t.TempDir(),
			}, crashtest.Engine(4, kind, persist.NVTraverse{}, 8))
			if len(res.Violations) > 0 {
				t.Fatalf("%s round %d: %d violations, first: %s",
					kind, r, len(res.Violations), res.Violations[0])
			}
			if res.Completed < 300 {
				t.Fatalf("%s round %d: only %d ops completed", kind, r, res.Completed)
			}
		}
	}
}

// TestTortureCatchesNonDurablePolicy proves the engine-level checker has
// teeth: with the persistence-free policy and no eviction luck, completed
// operations are rolled back wholesale and the checker must notice.
func TestTortureCatchesNonDurablePolicy(t *testing.T) {
	res := crashtest.Run(crashtest.Options{
		Workers:        4,
		Keys:           256,
		PrefillEvery:   0, // nothing prefilled: survivors can only come from ops
		OpsBeforeCrash: 600,
		EvictProb:      0,
		Seed:           5,
	}, crashtest.Engine(4, core.KindHash, persist.None{}, 0))
	if len(res.Violations) == 0 {
		t.Fatal("policy=none survived an engine crash test: checker is blind")
	}
}

// TestTortureAllPolicies: every durable policy must pass engine torture.
func TestTortureAllPolicies(t *testing.T) {
	for _, pol := range []persist.Policy{persist.NVTraverse{}, persist.Izraelevitz{}, persist.LinkAndPersist{}} {
		res := crashtest.Run(crashtest.Options{
			Workers:        4,
			Keys:           256,
			PrefillEvery:   2,
			OpsBeforeCrash: 300,
			EvictProb:      0.25,
			Seed:           77,
		}, crashtest.Engine(4, core.KindHash, pol, 4))
		if len(res.Violations) > 0 {
			t.Fatalf("%s: %d violations, first: %s", pol.Name(), len(res.Violations), res.Violations[0])
		}
	}
}
