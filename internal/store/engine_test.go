package store

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pmem"
)

// openEngine opens a store and returns its engine.
func openEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*Engine)
}

func newFast(t *testing.T, shards int, kind core.Kind) *Engine {
	t.Helper()
	return openEngine(t, Config{Shards: shards, Kind: kind, Profile: pmem.ProfileZero, SizeHint: 4096})
}

func TestShardForIsDeterministicAndInRange(t *testing.T) {
	e := newFast(t, 16, core.KindHash)
	counts := make([]int, 16)
	for k := uint64(1); k <= 10000; k++ {
		i := e.ShardFor(k)
		if i != e.ShardFor(k) {
			t.Fatalf("ShardFor(%d) not deterministic", k)
		}
		if i < 0 || i >= 16 {
			t.Fatalf("ShardFor(%d) = %d out of range", k, i)
		}
		counts[i]++
	}
	// The splitmix finalizer should spread sequential keys roughly evenly:
	// each shard expects 625 of 10000 keys.
	for i, c := range counts {
		if c < 400 || c > 900 {
			t.Fatalf("shard %d got %d of 10000 keys: hash is badly skewed (%v)", i, c, counts)
		}
	}
}

func TestEngineBasicOps(t *testing.T) {
	for _, kind := range core.Kinds() {
		e := newFast(t, 4, kind)
		s := e.NewSession()
		for k := uint64(1); k <= 200; k++ {
			if !s.Insert(k, k*10) {
				t.Fatalf("%s: Insert(%d) failed", kind, k)
			}
		}
		if s.Insert(7, 1) {
			t.Fatalf("%s: duplicate insert succeeded", kind)
		}
		for k := uint64(1); k <= 200; k++ {
			if v, ok := s.Get(k); !ok || v != k*10 {
				t.Fatalf("%s: Get(%d) = %d,%v", kind, k, v, ok)
			}
		}
		s.Put(7, 999) // upsert over an existing key
		if v, ok := s.Get(7); !ok || v != 999 {
			t.Fatalf("%s: Put did not replace: %d,%v", kind, v, ok)
		}
		s.Put(1000, 1) // upsert of an absent key
		if _, ok := s.Get(1000); !ok {
			t.Fatalf("%s: Put of absent key lost", kind)
		}
		if !s.Delete(5) || s.Delete(5) {
			t.Fatalf("%s: delete semantics wrong", kind)
		}
		if got := countKeys(t, s); got != 200 { // 200 inserted - 1 deleted + 1 put
			t.Fatalf("%s: whole-range scan = %d keys, want 200", kind, got)
		}
		if err := e.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestApplyAndMultiGetAlignment(t *testing.T) {
	e := newFast(t, 8, core.KindHash)
	s := e.NewSession()
	ops := make([]Op, 0, 64)
	for k := uint64(1); k <= 64; k++ {
		ops = append(ops, Op{Kind: OpInsert, Key: k, Value: k + 100})
	}
	res := s.Apply(ops, nil)
	for i, r := range res {
		if !r.OK {
			t.Fatalf("batched insert %d failed", i)
		}
	}
	keys := []uint64{64, 1, 33, 999, 17}
	got := s.MultiGet(keys, nil)
	want := []OpResult{{164, true}, {101, true}, {133, true}, {0, false}, {117, true}}
	for i := range keys {
		if got[i] != want[i] {
			t.Fatalf("MultiGet[%d] (key %d) = %+v, want %+v", i, keys[i], got[i], want[i])
		}
	}
	// Mixed batch: results stay positionally aligned across shards.
	mixed := []Op{
		{Kind: OpDelete, Key: 3},
		{Kind: OpGet, Key: 3},
		{Kind: OpPut, Key: 3, Value: 42},
		{Kind: OpGet, Key: 999},
	}
	mres := s.Apply(mixed, res)
	if !mres[0].OK || mres[1].OK != false || !mres[2].OK || mres[3].OK {
		t.Fatalf("mixed batch results wrong: %+v", mres)
	}
}

func TestBatchingSavesFences(t *testing.T) {
	const n = 512
	run := func(batch bool) pmem.Stats {
		e := newFast(t, 2, core.KindHash)
		s := e.NewSession()
		ops := make([]Op, 0, n)
		for k := uint64(1); k <= n; k++ {
			ops = append(ops, Op{Kind: OpInsert, Key: k, Value: k})
		}
		e.ResetStats()
		if batch {
			s.Apply(ops, nil)
		} else {
			for _, op := range ops {
				s.Insert(op.Key, op.Value)
			}
		}
		return e.Stats()
	}
	single := run(false)
	batched := run(true)
	// The policies make the same Flush calls either way; batching only
	// lengthens the fence windows, so it may coalesce MORE of them away
	// (line flush coalescing), never issue extra.
	if batched.Flushes+batched.FlushesElided != single.Flushes+single.FlushesElided {
		t.Fatalf("batching changed flush calls: %d+%d vs %d+%d",
			batched.Flushes, batched.FlushesElided, single.Flushes, single.FlushesElided)
	}
	if batched.Flushes > single.Flushes {
		t.Fatalf("batching issued more flushes: %d vs %d", batched.Flushes, single.Flushes)
	}
	// Batching defers the commit fence (one per op) into one fence per
	// shard group: with 2 shards and one Apply, ~n commit fences collapse
	// into 2. The ordering fences remain, so the saving is about n.
	saved := int64(single.Fences) - int64(batched.Fences)
	if saved < n/2 {
		t.Fatalf("batching saved only %d fences (single=%d batched=%d)",
			saved, single.Fences, batched.Fences)
	}
}

func TestStatsSurfaceFlushCoalescing(t *testing.T) {
	// The per-line flush accounting must flow through the engine's
	// aggregated stats: inserts flush several fields of one freshly
	// initialized node, which share its cache line, so some flushes
	// coalesce.
	e := newFast(t, 2, core.KindHash)
	s := e.NewSession()
	for k := uint64(1); k <= 256; k++ {
		s.Insert(k, k)
	}
	total := e.Stats()
	if total.Flushes == 0 || total.FlushesElided == 0 {
		t.Fatalf("flush accounting not surfaced: %+v", total)
	}
	var sum uint64
	for i := 0; i < e.Shards(); i++ {
		sum += e.shards[i].mem.Stats().FlushesElided
	}
	if sum != total.FlushesElided {
		t.Fatalf("per-shard elided %d != total %d", sum, total.FlushesElided)
	}
}

func TestStatsAggregation(t *testing.T) {
	e := newFast(t, 4, core.KindHash)
	s := e.NewSession()
	for k := uint64(1); k <= 100; k++ {
		s.Insert(k, k)
	}
	total := e.Stats()
	var sum pmem.Stats
	touched := 0
	for i := 0; i < e.Shards(); i++ {
		ps := e.shards[i].mem.Stats()
		sum.Add(ps)
		if ps.Writes > 0 {
			touched++
		}
	}
	if sum != total {
		t.Fatalf("Stats %+v != sum of shards %+v", total, sum)
	}
	if touched < 3 {
		t.Fatalf("only %d/4 shards touched by 100 keys", touched)
	}
	e.ResetStats()
	if got := e.Stats(); got.Writes != 0 || got.Flushes != 0 {
		t.Fatalf("ResetStats left %+v", got)
	}
}

func TestEngineCrashRecoverRoundTrip(t *testing.T) {
	e := openEngine(t, Config{Shards: 8, Kind: core.KindSkiplist, Tracked: true, SizeHint: 1024})
	s := e.NewSession()
	for k := uint64(1); k <= 512; k++ {
		s.Insert(k, k*7)
	}
	// Every insert was acknowledged (commit-fenced), so every key must
	// survive the crash even with no eviction luck.
	e.Crash()
	e.FinishCrash(0, 42)
	e.Restart()
	e.Recover()
	rec := e.NewSession()
	for k := uint64(1); k <= 512; k++ {
		if v, ok := rec.Get(k); !ok || v != k*7 {
			t.Fatalf("key %d lost or corrupted across crash: %d,%v", k, v, ok)
		}
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateCatchesMisplacedKey: Validate's shard-isolation check
// reports a key that sits on a shard it does not hash to.
func TestValidateCatchesMisplacedKey(t *testing.T) {
	e := newFast(t, 4, core.KindHash)
	const k = 1
	wrong := (e.ShardFor(k) + 1) % 4
	e.shards[wrong].set.Insert(e.admin.th[wrong], k, k)
	if err := e.Validate(); err == nil || !strings.Contains(err.Error(), "hashes to shard") {
		t.Fatalf("Validate = %v, want a misplaced-key error", err)
	}
}

func TestDefaultsAndParamsSplit(t *testing.T) {
	e := openEngine(t, Config{})
	if e.Shards() != 1 || e.Kind() != core.KindHash {
		t.Fatalf("defaults wrong: shards=%d kind=%s", e.Shards(), e.Kind())
	}
	if _, err := Open(Config{Kind: core.Kind("bogus")}); err == nil {
		t.Fatal("bogus kind accepted")
	}
}
