// Exact persistence counts, and the paper's claims checked on them.
//
// The paper's claim is about where persistence is paid: NVTraverse flushes
// and fences only at the destination of a traversal, so its per-operation
// cost stays flat however long the traversal is, while the general
// transformation (Izraelevitz et al.) pays at every node it reads. Counts
// carry that claim, and counts can be exact: a tracked memory keys lines by
// their exact address and versions every write (fast mode compares a line's
// content instead, so there a same-value store elides), and one goroutine
// running a seeded op stream after a seeded prefill issues the same flushes
// and fences on every run. ClaimRuns lists the runs and Claims the paper's
// findings as relations over their counts; TestPaperClaims also pins every
// run's totals, and nvbench -flushstats prints the table.
package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/list"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// The claims runs: every kind under the three durable policies at two
// sizes, the ensureReachable ablation, and the YCSB read/update mixes on
// the list, the NM-BST and the Ellen BST. Every run is claimOps operations after the
// prefill, every random choice drawn from generators seeded with claimSeed.
// Sized so that all runs take about half a second, and under half a minute
// with the race detector on two CPUs.
const (
	claimSmall = 256
	claimLarge = 4096
	claimOps   = 2000
	claimSeed  = 42
)

var claimSizes = []uint64{claimSmall, claimLarge}

// ClaimRun is one deterministic counter run: the odd keys of [1, Range]
// prefilled in shuffled order, then claimOps operations of the workload on
// one goroutine.
type ClaimRun struct {
	Kind   core.Kind
	Policy string // a persist.ByName name
	Range  uint64 // claimSmall or a multiple of it
	// Workload is "" for the paper's mix — 80% finds, 10% inserts and 10%
	// deletes — or one of the YCSB read/update workloads A, B and C: reads
	// and upserts on Zipf keys over [1, Range].
	Workload string
	// OrigParent builds the list with Supplement 2's originalParent field
	// (list.NewWithOriginalParent): the ensureReachable ablation.
	OrigParent bool
}

// Name identifies the run in the claims table, e.g. "list/nvtraverse/256"
// or "nmbst/izraelevitz/256/A".
func (r ClaimRun) Name() string {
	pol := r.Policy
	if r.OrigParent {
		pol += "+origparent"
	}
	n := fmt.Sprintf("%s/%s/%d", r.Kind, pol, r.Range)
	if r.Workload != "" {
		n += "/" + r.Workload
	}
	return n
}

// Counts are the persistence instructions a run's claimOps operations
// issued (the prefill is not counted).
type Counts struct {
	Flushes uint64 // clwbs issued
	Elided  uint64 // Flush calls coalesced into a pending clwb of the same line
	Fences  uint64
}

// FlushPerOp, ElidePerOp and FencePerOp are the counts per operation.
func (c Counts) FlushPerOp() float64 { return float64(c.Flushes) / claimOps }
func (c Counts) ElidePerOp() float64 { return float64(c.Elided) / claimOps }
func (c Counts) FencePerOp() float64 { return float64(c.Fences) / claimOps }

// count executes the run on a fresh tracked memory. The paper's mix names
// claimSmall keys, in pairs spread over [1, Range] at a stride of
// Range/claimSmall: pair p is the prefilled key 2p·stride+1 and the absent
// key after it. Runs that differ only in Range therefore perform the same
// operations with the same outcomes (see prefillCounted), and differ only
// in how far each traversal goes.
func (r ClaimRun) count() (Counts, error) {
	pol, ok := persist.ByName(r.Policy)
	if !ok {
		return Counts{}, fmt.Errorf("bench: unknown policy %q", r.Policy)
	}
	mem := pmem.New(pmem.Config{Mode: pmem.ModeTracked, Profile: pmem.ProfileZero, MaxThreads: 4})
	var s core.Set
	if r.OrigParent {
		s = list.NewWithOriginalParent(mem, pol)
	} else {
		var err error
		if s, err = core.NewSet(r.Kind, mem, pol, core.Params{SizeHint: int(r.Range)}); err != nil {
			return Counts{}, err
		}
	}
	stride := r.Range / claimSmall
	th := mem.NewThread()
	prefillCounted(s, th, mem.NewThread(), r.Range, stride)
	mem.ResetStats()

	rng := rand.New(rand.NewSource(claimSeed))
	var wl Workload
	var z *Zipf
	if r.Workload != "" {
		wl, _ = workloadByName(r.Workload)
		z = NewZipf(r.Range, wl.Theta)
	}
	for i := 0; i < claimOps; i++ {
		op := rng.Intn(100)
		if z != nil {
			if k := z.Next(rng.Uint64()); op < wl.ReadPct {
				s.Find(th, k)
			} else {
				core.Upsert(s, th, k, rng.Uint64())
			}
			continue
		}
		u := rng.Uint64() % claimSmall
		k := u/2*2*stride + 1 + u&1
		switch {
		case op < 10:
			s.Insert(th, k, k)
		case op < 20:
			s.Delete(th, k)
		default:
			s.Find(th, k)
		}
	}
	st := mem.Stats()
	return Counts{Flushes: st.Flushes, Elided: st.FlushesElided, Fences: st.Fences}, nil
}

// prefillCounted inserts every odd key of [1, rangeMax] in one uniformly
// shuffled order. The targets — the prefilled keys the op stream names — are
// shuffled by their own generator and inserted by th, the op stream's
// thread; the other odd keys are shuffled by a second generator, inserted
// by a thread of their own, and merged in at random (a random merge of two
// shuffles is a shuffle of the union). Whatever the range, the targets are
// allocated, and their skiplist towers drawn, in the same order, and th
// starts the op stream in the same state.
func prefillCounted(s core.Set, th, filler *pmem.Thread, rangeMax, stride uint64) {
	var targets, fillers []uint64
	for k := uint64(1); k <= rangeMax; k += 2 {
		if (k-1)%(2*stride) == 0 {
			targets = append(targets, k)
		} else {
			fillers = append(fillers, k)
		}
	}
	tr, fr := rand.New(rand.NewSource(claimSeed)), rand.New(rand.NewSource(claimSeed+1))
	tr.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	fr.Shuffle(len(fillers), func(i, j int) { fillers[i], fillers[j] = fillers[j], fillers[i] })
	for len(targets)+len(fillers) > 0 {
		if fr.Intn(len(targets)+len(fillers)) < len(targets) {
			s.Insert(th, targets[0], targets[0])
			targets = targets[1:]
		} else {
			s.Insert(filler, fillers[0], fillers[0])
			fillers = fillers[1:]
		}
	}
}

// claimRun is the run of kind under policy at size; wl names a YCSB
// workload, or "+origparent" the ablation.
func claimRun(kind core.Kind, policy string, size uint64, wl string) ClaimRun {
	r := ClaimRun{Kind: kind, Policy: policy, Range: size, Workload: wl}
	if wl == "+origparent" {
		r.Workload, r.OrigParent = "", true
	}
	return r
}

// ClaimRuns returns the runs the claims are checked on, in table order.
func ClaimRuns() []ClaimRun {
	ts := tuples(core.Kinds(), claimSizes, "", "nvtraverse", "izraelevitz", "logfree")
	ts = append(ts, tuples([]core.Kind{core.KindList}, []uint64{claimSmall}, "+origparent", "nvtraverse")...)
	ts = append(ts, ycsbTuples(core.KindList, core.KindNMBST)...)
	ts = append(ts, ycsbTuples(core.KindEllenBST)...)
	var rs []ClaimRun
	for _, t := range ts {
		rs = append(rs, t...)
	}
	return rs
}

// ycsbTuples pairs NVTraverse's and Izraelevitz's YCSB runs on kinds.
func ycsbTuples(kinds ...core.Kind) [][]ClaimRun {
	var ts [][]ClaimRun
	for _, wl := range []string{"A", "B", "C"} {
		ts = append(ts, tuples(kinds, []uint64{claimSmall}, wl, "nvtraverse", "izraelevitz")...)
	}
	return ts
}

// RunClaimCounts executes every claims run, GOMAXPROCS at a time, and
// returns the counts by run name. Each run is one goroutine on its own
// memory, so running them side by side changes no count.
func RunClaimCounts() (map[string]Counts, error) {
	runs := ClaimRuns()
	counts := make([]Counts, len(runs))
	errs := make([]error, len(runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
				counts[i], errs[i] = runs[i].count()
			}
		}()
	}
	wg.Wait()
	out := make(map[string]Counts, len(runs))
	for i, r := range runs {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", r.Name(), errs[i])
		}
		out[r.Name()] = counts[i]
	}
	return out, nil
}

// Claim is one of the paper's findings as a relation over the claims runs'
// counts, keyed by ClaimRun.Name; Check returns its first violation.
type Claim struct {
	Finding string
	Check   func(counts map[string]Counts) error
}

// relation is the Claim that holds when ok holds on the counts of each
// tuple of runs.
func relation(finding string, tuples [][]ClaimRun, ok func(c []Counts) bool) Claim {
	return Claim{finding, func(counts map[string]Counts) error {
		for _, t := range tuples {
			names, c := make([]string, len(t)), make([]Counts, len(t))
			for i, r := range t {
				names[i], c[i] = r.Name(), counts[r.Name()]
			}
			if !ok(c) {
				return fmt.Errorf("%v: %+v", names, c)
			}
		}
		return nil
	}}
}

// tuples returns, for each kind and size, the runs of the policies in order.
func tuples(kinds []core.Kind, sizes []uint64, wl string, pols ...string) [][]ClaimRun {
	var ts [][]ClaimRun
	for _, kind := range kinds {
		for _, size := range sizes {
			var t []ClaimRun
			for _, pol := range pols {
				t = append(t, claimRun(kind, pol, size, wl))
			}
			ts = append(ts, t)
		}
	}
	return ts
}

// zip concatenates the tuples of a and b pairwise.
func zip(a, b [][]ClaimRun) [][]ClaimRun {
	out := make([][]ClaimRun, len(a))
	for i := range a {
		out[i] = append(append([]ClaimRun(nil), a[i]...), b[i]...)
	}
	return out
}

// Claims returns the paper's findings the claims table checks.
func Claims() []Claim {
	const nv, iz = "nvtraverse", "izraelevitz"
	all, list, hash := core.Kinds(), []core.Kind{core.KindList}, []core.Kind{core.KindHash}
	small, large := []uint64{claimSmall}, []uint64{claimLarge}
	deep := []core.Kind{core.KindList, core.KindEllenBST, core.KindNMBST}
	ratio := func(nv, iz Counts) float64 { return float64(iz.Flushes) / float64(nv.Flushes) }
	flat := func(a, b float64) bool { return b <= 1.02*a && b >= 0.98*a }
	return []Claim{
		relation("NVTraverse issues strictly fewer flushes and fewer fences per op than Izraelevitz on every kind",
			tuples(all, claimSizes, "", nv, iz),
			func(c []Counts) bool { return c[0].Flushes < c[1].Flushes && c[0].Fences < c[1].Fences }),
		relation("Izraelevitz issues at least 10x NVTraverse's flushes on the list, whose traversals are the longest",
			tuples(list, claimSizes, "", nv, iz),
			func(c []Counts) bool { return ratio(c[0], c[1]) >= 10 }),
		relation("The Izraelevitz/NVTraverse flush ratio is list >> hash: at least 10 times larger",
			zip(tuples(list, claimSizes, "", nv, iz), tuples(hash, claimSizes, "", nv, iz)),
			func(c []Counts) bool { return ratio(c[0], c[1]) >= 10*ratio(c[2], c[3]) }),
		relation("The Izraelevitz/NVTraverse flush ratio grows with size on the list, Ellen BST and NM-BST",
			zip(tuples(deep, small, "", nv, iz), tuples(deep, large, "", nv, iz)),
			func(c []Counts) bool { return ratio(c[2], c[3]) > ratio(c[0], c[1]) }),
		relation("NVTraverse's flushes and fences per op are flat in size, within 2%: it persists only the destination",
			zip(tuples(all, small, "", nv), tuples(all, large, "", nv)),
			func(c []Counts) bool {
				return flat(c[0].FlushPerOp(), c[1].FlushPerOp()) && flat(c[0].FencePerOp(), c[1].FencePerOp())
			}),
		relation("NVTraverse's repeat flushes of a pending, unchanged line coalesce: elide/op > 0 on every kind",
			tuples(all, claimSizes, "", nv),
			func(c []Counts) bool { return c[0].Elided > 0 }),
		relation("ensureReachable through Supplement 2's originalParent flushes at least as much as through the current parent, within 5%, with equal fences",
			zip(tuples(list, small, "", nv), tuples(list, small, "+origparent", nv)),
			func(c []Counts) bool {
				return c[1].Flushes >= c[0].Flushes && float64(c[1].Flushes) <= 1.05*float64(c[0].Flushes) && c[1].Fences == c[0].Fences
			}),
		relation("On the YCSB A/B/C read/update mixes Izraelevitz issues at least 1.5x NVTraverse's flushes and more fences (list, NM-BST)",
			ycsbTuples(core.KindList, core.KindNMBST),
			func(c []Counts) bool { return ratio(c[0], c[1]) >= 1.5 && c[1].Fences > c[0].Fences }),
	}
}
