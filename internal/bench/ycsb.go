package bench

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/store"
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

// RunYCSB executes a YCSB-workload configuration against a store opened
// with store.Open (cfg.Shards ≤ 0 opens one shard), one session per worker.
// An empty cfg.Workload runs a uniform read/upsert mix with cfg.UpdatePct
// writes.
func RunYCSB(cfg Config) (Result, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 100 * time.Millisecond
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Range == 0 {
		return Result{}, fmt.Errorf("bench: YCSB runs need a key range of at least 1")
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
	// Report the write fraction of the workload in the update column.
	cfg.UpdatePct = wl.UpdatePct + wl.InsertPct + wl.RMWPct + wl.AtomicPct

	// Scans need a key order: reject unordered kinds with a clear error
	// instead of a silent zero row.
	if wl.ScanPct > 0 && !core.Ordered(cfg.Kind) {
		return Result{}, fmt.Errorf(
			"bench: YCSB %s needs range scans, but kind %q is unordered — pick one of %v",
			wl.Name, cfg.Kind, core.OrderedKinds())
	}
	pol, ok := persist.ByName(cfg.Policy)
	if !ok {
		return Result{}, fmt.Errorf("bench: YCSB runs need a persist policy, got %q", cfg.Policy)
	}
	st, err := store.Open(store.Config{
		Kind:        cfg.Kind,
		Policy:      pol,
		Profile:     cfg.Profile,
		SizeHint:    int(cfg.Range),
		Shards:      cfg.Shards,
		MaxSessions: cfg.Threads + 2,
	})
	if err != nil {
		return Result{}, err
	}
	sessions := make([]store.Session, cfg.Threads)
	for i := range sessions {
		sessions[i] = st.NewSession()
	}
	// Prefill every other key through up to eight sessions in parallel,
	// shuffled per worker (see Prefill for why order matters).
	prefillShuffled(cfg.Range, min(len(sessions), 8),
		func(w int) uint64 { return sessions[w].Rand() },
		func(w int, k uint64) { sessions[w].Insert(k, k) })
	st.ResetStats()
	return measureWorkload(cfg, wl, sessions, st.Stats), nil
}

// measureWorkload runs the timed phase of a YCSB configuration over the
// per-worker sessions and assembles the result from the stats snapshot.
func measureWorkload(cfg Config, wl Workload, sessions []store.Session, stats func() pmem.Stats) Result {
	// latest tracks the newest inserted key for the read-latest
	// distribution; workload D's inserts advance it.
	var latest atomic.Uint64
	latest.Store(cfg.Range)
	return timed(cfg, len(sessions), func(i int, stop *atomic.Bool) uint64 {
		s := sessions[i]
		var z *Zipf
		if wl.Theta > 0 {
			z = NewZipf(cfg.Range, wl.Theta)
		}
		key := func() uint64 {
			r := s.Rand()
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
		var rres []store.OpResult
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
				r := int(s.Rand() % 100)
				switch {
				case r < wl.ReadPct:
					if batch > 1 {
						rkeys = append(rkeys, key())
					} else {
						s.Get(key())
					}
				case r < wl.ReadPct+wl.UpdatePct:
					s.Put(key(), s.Rand())
				case r < wl.ReadPct+wl.UpdatePct+wl.InsertPct:
					s.Insert(latest.Add(1), s.Rand())
				case r < wl.ReadPct+wl.UpdatePct+wl.InsertPct+wl.RMWPct:
					// Read-modify-write, YCSB F style: a read followed
					// by an upsert of the modified value.
					k := key()
					v, _ := s.Get(k)
					s.Put(k, v+1)
				case r < wl.ReadPct+wl.UpdatePct+wl.InsertPct+wl.RMWPct+wl.ScanPct:
					// Range scan, YCSB E style: zipf start key, zipf
					// item count; the key-space bound assumes the
					// prefill's every-other-key density, and the scan
					// stops early once it has seen its item count. Scan
					// fails only on unordered kinds, which RunYCSB rejects.
					lo := key()
					want := int(zscan.Next(s.Rand()))
					seen := 0
					_ = s.Scan(lo, lo+4*uint64(want), func(uint64, uint64) bool {
						seen++
						return seen < want
					})
				default:
					// Atomic RMW (workload U): an in-place increment
					// through the structure's critical section, seeding
					// absent keys with GetOrInsert.
					k := key()
					if _, ok := s.Update(k, func(old uint64) uint64 { return old + 1 }); !ok {
						s.GetOrInsert(k, s.Rand())
					}
				}
				ops++
			}
			if len(rkeys) > 0 {
				rres = s.MultiGet(rkeys, rres)
			}
			if stop.Load() {
				return ops
			}
		}
	}, stats)
}
