package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/shard"
)

// Workload is a YCSB-style operation mix over a skewed key distribution.
// The percentages sum to 100. Updates are atomic upserts (in-place Update
// with a GetOrInsert fallback); inserts create fresh, monotonically
// increasing keys (workload D); read-modify-write reads a key and upserts
// it back (workload F); scans visit a Zipf-distributed number of
// consecutive keys from a Zipf-chosen start (workload E); atomic RMW
// increments in place through the structure's Update critical section
// (workload U).
type Workload struct {
	Name       string
	ReadPct    int
	UpdatePct  int
	InsertPct  int
	RMWPct     int
	ScanPct    int     // range scans (workload E); needs an ordered kind
	AtomicPct  int     // in-place atomic Update/GetOrInsert (workload U)
	MaxScanLen int     // upper bound on scan lengths (default 100)
	ReadLatest bool    // reads target recently inserted keys (workload D)
	Theta      float64 // Zipf skew; 0 draws keys uniformly
}

// Workloads returns the YCSB core workloads this suite implements, in
// letter order, plus the RMW-heavy extension U. E (range scans) runs only
// on ordered kinds — list, skiplist, and both BSTs.
func Workloads() []Workload {
	return []Workload{
		{Name: "A", ReadPct: 50, UpdatePct: 50, Theta: 0.99},
		{Name: "B", ReadPct: 95, UpdatePct: 5, Theta: 0.99},
		{Name: "C", ReadPct: 100, Theta: 0.99},
		{Name: "D", ReadPct: 95, InsertPct: 5, ReadLatest: true, Theta: 0.99},
		{Name: "E", ScanPct: 95, InsertPct: 5, MaxScanLen: 100, Theta: 0.99},
		{Name: "F", ReadPct: 50, RMWPct: 50, Theta: 0.99},
		{Name: "U", ReadPct: 20, AtomicPct: 80, Theta: 0.99},
	}
}

// workloadByName resolves "A" or "ycsb-a" (case-insensitive).
func workloadByName(name string) (Workload, bool) {
	for _, w := range Workloads() {
		if strings.EqualFold(w.Name, name) || strings.EqualFold("ycsb-"+w.Name, name) {
			return w, true
		}
	}
	return Workload{}, false
}

// kvCtx is one worker's operation surface: either a thread on a single
// structure or a session on a sharded engine.
type kvCtx interface {
	get(k uint64) (uint64, bool)
	put(k, v uint64)
	insert(k, v uint64) bool
	// scan visits keys of [lo, hi] ascending, at most max, and reports how
	// many it saw. Only called when the workload has ScanPct > 0 (RunYCSB
	// rejects those configurations on scanless targets up front).
	scan(lo, hi uint64, max int) int
	// update atomically increments k in place; reports whether k existed.
	update(k uint64) bool
	getOrInsert(k, v uint64) (uint64, bool)
	multiGet(keys []uint64, dst []shard.OpResult) []shard.OpResult
	rand() uint64
}

// singleCtx drives a single structure. multiGet degenerates to a loop: a
// single structure has no per-shard fence batching to exploit. sc holds
// the full v2 surface when the target is a core structure; it is nil for
// onefile targets, which then only support the point-op workloads.
type singleCtx struct {
	s  Target
	sc core.Set
	th *pmem.Thread
}

func (c *singleCtx) get(k uint64) (uint64, bool) { return c.s.Find(c.th, k) }
func (c *singleCtx) insert(k, v uint64) bool     { return c.s.Insert(c.th, k, v) }
func (c *singleCtx) rand() uint64                { return c.th.Rand() }

func (c *singleCtx) put(k, v uint64) {
	if c.sc == nil {
		// OneFile target: no in-place update; upsert by delete+insert.
		for !c.s.Insert(c.th, k, v) {
			c.s.Delete(c.th, k)
		}
		return
	}
	core.Upsert(c.sc, c.th, k, v)
}

func (c *singleCtx) scan(lo, hi uint64, max int) int {
	n := 0
	c.sc.RangeScan(c.th, lo, hi, func(uint64, uint64) bool {
		n++
		return n < max
	})
	return n
}

func (c *singleCtx) update(k uint64) bool {
	_, ok := c.sc.Update(c.th, k, func(old uint64) uint64 { return old + 1 })
	return ok
}

func (c *singleCtx) getOrInsert(k, v uint64) (uint64, bool) {
	return c.sc.GetOrInsert(c.th, k, v)
}

func (c *singleCtx) multiGet(keys []uint64, dst []shard.OpResult) []shard.OpResult {
	if cap(dst) < len(keys) {
		dst = make([]shard.OpResult, len(keys))
	}
	dst = dst[:len(keys)]
	for i, k := range keys {
		v, ok := c.s.Find(c.th, k)
		dst[i] = shard.OpResult{Value: v, OK: ok}
	}
	return dst
}

// engineCtx drives a sharded engine through one session.
type engineCtx struct{ s *shard.Session }

func (c *engineCtx) get(k uint64) (uint64, bool) { return c.s.Get(k) }
func (c *engineCtx) put(k, v uint64)             { c.s.Put(k, v) }
func (c *engineCtx) insert(k, v uint64) bool     { return c.s.Insert(k, v) }
func (c *engineCtx) rand() uint64                { return c.s.Rand() }
func (c *engineCtx) multiGet(keys []uint64, dst []shard.OpResult) []shard.OpResult {
	return c.s.MultiGet(keys, dst)
}

func (c *engineCtx) scan(lo, hi uint64, max int) int {
	n := 0
	c.s.Scan(lo, hi, func(uint64, uint64) bool {
		n++
		return n < max
	})
	return n
}

func (c *engineCtx) update(k uint64) bool {
	_, ok := c.s.Update(k, func(old uint64) uint64 { return old + 1 })
	return ok
}

func (c *engineCtx) getOrInsert(k, v uint64) (uint64, bool) {
	return c.s.GetOrInsert(k, v)
}

// RunYCSB executes a YCSB-workload configuration against a single
// structure (cfg.Shards == 0) or a sharded engine. An empty cfg.Workload
// with cfg.Shards > 0 runs a uniform read/upsert mix with cfg.UpdatePct
// writes against the engine.
func RunYCSB(cfg Config) (Result, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	var wl Workload
	if cfg.Workload == "" {
		wl = Workload{Name: "", ReadPct: 100 - cfg.UpdatePct, UpdatePct: cfg.UpdatePct}
	} else {
		var ok bool
		wl, ok = workloadByName(cfg.Workload)
		if !ok {
			return Result{}, fmt.Errorf("bench: unknown YCSB workload %q", cfg.Workload)
		}
		cfg.Workload = wl.Name
	}
	if cfg.Theta > 0 {
		wl.Theta = cfg.Theta
	}
	// Report the write fraction of the workload in the update column.
	cfg.UpdatePct = wl.UpdatePct + wl.InsertPct + wl.RMWPct + wl.AtomicPct

	// Scans need a key order: reject unordered kinds (and the OneFile
	// baseline, which predates the v2 surface) with a clear error instead
	// of a silent zero row. The atomic-RMW workload needs the v2 surface
	// but no order.
	if wl.ScanPct > 0 {
		if !core.Ordered(cfg.Kind) {
			return Result{}, fmt.Errorf(
				"bench: YCSB %s needs range scans, but kind %q is unordered — pick one of %v",
				wl.Name, cfg.Kind, core.OrderedKinds())
		}
		if cfg.Policy == "onefile" {
			return Result{}, fmt.Errorf("bench: YCSB %s needs range scans, which the onefile baseline does not implement", wl.Name)
		}
	}
	if wl.AtomicPct > 0 && cfg.Policy == "onefile" {
		return Result{}, fmt.Errorf("bench: YCSB %s needs atomic in-place updates, which the onefile baseline does not implement", wl.Name)
	}

	if cfg.Shards <= 0 {
		s, mem, err := Build(cfg)
		if err != nil {
			return Result{}, err
		}
		Prefill(s, mem, cfg)
		threads := mem.Threads()
		sc, _ := s.(core.Set)
		ctxs := make([]kvCtx, cfg.Threads)
		for i := range ctxs {
			var th *pmem.Thread
			if i < len(threads) {
				th = threads[i]
			} else {
				th = mem.NewThread()
			}
			ctxs[i] = &singleCtx{s: s, sc: sc, th: th}
		}
		mem.ResetStats()
		return measureWorkload(cfg, wl, ctxs, mem.Stats), nil
	}

	pol, ok := persist.ByName(cfg.Policy)
	if !ok {
		return Result{}, fmt.Errorf("bench: engine runs need a persist policy, got %q", cfg.Policy)
	}
	eng, err := shard.New(shard.Config{
		Shards:      cfg.Shards,
		Kind:        cfg.Kind,
		Policy:      pol,
		Profile:     cfg.Profile,
		MaxSessions: cfg.Threads + 2,
		Params:      core.Params{SizeHint: int(cfg.Range)},
	})
	if err != nil {
		return Result{}, err
	}
	sessions := make([]*shard.Session, cfg.Threads)
	for i := range sessions {
		sessions[i] = eng.NewSession()
	}
	prefillEngine(sessions, cfg)
	ctxs := make([]kvCtx, cfg.Threads)
	for i := range ctxs {
		ctxs[i] = &engineCtx{s: sessions[i]}
	}
	eng.ResetStats()
	return measureWorkload(cfg, wl, ctxs, func() pmem.Stats { return eng.Stats().Total }), nil
}

// prefillEngine inserts every other key of [1, Range] through up to eight
// sessions in parallel, shuffled per worker (see Prefill for why order
// matters).
func prefillEngine(sessions []*shard.Session, cfg Config) {
	workers := len(sessions)
	if workers > 8 {
		workers = 8
	}
	prefillShuffled(cfg.Range, workers,
		func(w int) uint64 { return sessions[w].Rand() },
		func(w int, k uint64) { sessions[w].Insert(k, k) })
}

// measureWorkload runs the timed phase of a YCSB configuration over the
// per-worker contexts and assembles the result from the stats snapshot.
func measureWorkload(cfg Config, wl Workload, ctxs []kvCtx, stats func() pmem.Stats) Result {
	dur := EffectiveDuration(cfg.Duration)
	var stop atomic.Bool
	var total atomic.Uint64
	// latest tracks the newest inserted key for the read-latest
	// distribution; workload D's inserts advance it.
	var latest atomic.Uint64
	latest.Store(cfg.Range)
	hists := make([]*Histogram, len(ctxs))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, c := range ctxs {
		hists[ci] = &Histogram{}
		wg.Add(1)
		go func(c kvCtx, h *Histogram) {
			defer wg.Done()
			var z *Zipf
			if wl.Theta > 0 {
				z = NewZipf(cfg.Range, wl.Theta)
			}
			key := func() uint64 {
				r := c.rand()
				var k uint64
				if z != nil {
					k = z.Next(r)
				} else {
					k = r%cfg.Range + 1
				}
				if wl.ReadLatest {
					// k is a recency offset: 1 = the newest key.
					max := latest.Load()
					if k > max {
						k = max
					}
					k = max - k + 1
				}
				return k
			}
			// Scan lengths draw from their own Zipf (YCSB E: most scans
			// short, occasional long ones).
			var zscan *Zipf
			if wl.ScanPct > 0 {
				maxLen := wl.MaxScanLen
				if maxLen <= 0 {
					maxLen = 100
				}
				zscan = NewZipf(uint64(maxLen), 0.99)
			}
			batch := cfg.BatchSize
			var rkeys []uint64
			var rres []shard.OpResult
			var ops uint64
			// Do-while (see Measure): every worker contributes at least one
			// block even when the stop flag wins the first-schedule race.
			for {
				n := 32
				if batch > 1 {
					n = batch
				}
				rkeys = rkeys[:0]
				for j := 0; j < n; j++ {
					r := int(c.rand() % 100)
					// Sample one in latSampleMask+1 operations into the
					// latency histogram. Batched reads are deferred into one
					// MultiGet below, so their per-op latency is not
					// attributable here and they go unsampled.
					sample := ops&latSampleMask == 0 && batch <= 1
					var t0 time.Time
					if sample {
						t0 = time.Now()
					}
					switch {
					case r < wl.ReadPct:
						if batch > 1 {
							rkeys = append(rkeys, key())
						} else {
							c.get(key())
						}
					case r < wl.ReadPct+wl.UpdatePct:
						c.put(key(), c.rand())
					case r < wl.ReadPct+wl.UpdatePct+wl.InsertPct:
						c.insert(latest.Add(1), c.rand())
					case r < wl.ReadPct+wl.UpdatePct+wl.InsertPct+wl.RMWPct:
						// Read-modify-write, YCSB F style: a read followed
						// by an upsert of the modified value.
						k := key()
						v, _ := c.get(k)
						c.put(k, v+1)
					case r < wl.ReadPct+wl.UpdatePct+wl.InsertPct+wl.RMWPct+wl.ScanPct:
						// Range scan, YCSB E style: zipf start key, zipf
						// item count; the key-space bound assumes the
						// prefill's every-other-key density, and the scan
						// stops early once it has seen its item count.
						lo := key()
						want := int(zscan.Next(c.rand()))
						c.scan(lo, lo+4*uint64(want), want)
					default:
						// Atomic RMW (workload U): an in-place increment
						// through the structure's critical section, seeding
						// absent keys with GetOrInsert.
						k := key()
						if !c.update(k) {
							c.getOrInsert(k, c.rand())
						}
					}
					if sample {
						h.Record(time.Since(t0))
					}
					ops++
				}
				if len(rkeys) > 0 {
					rres = c.multiGet(rkeys, rres)
				}
				if stop.Load() {
					break
				}
			}
			total.Add(ops)
		}(c, hists[ci])
	}
	timer := time.NewTimer(dur)
	<-timer.C
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	st := stats()
	ops := total.Load()
	lat := &Histogram{}
	for _, h := range hists {
		lat.Merge(h)
	}
	res := Result{
		Config:  cfg,
		Ops:     ops,
		Mops:    float64(ops) / elapsed.Seconds() / 1e6,
		Elapsed: elapsed,
		Lat:     lat,
	}
	if ops > 0 {
		res.FlushPerOp = float64(st.Flushes) / float64(ops)
		res.ElidePerOp = float64(st.FlushesElided) / float64(ops)
		res.FencePerOp = float64(st.Fences) / float64(ops)
	}
	return res
}
