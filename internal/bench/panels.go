package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
)

// Panel is one figure panel of the paper's evaluation: a sweep of
// configurations whose results form the panel's series.
type Panel struct {
	ID      string // e.g. "5a"
	Title   string
	Configs []Config
}

// PanelOptions scales the paper's grids to the host.
//
// SizeScale divides the paper's structure sizes (the paper prefills up to
// 8M keys on a 48-core Optane box; dividing sizes preserves the relative
// ordering of the competitors because every competitor shares the same
// substrate). ThreadCap truncates thread sweeps. Duration is per point.
type PanelOptions struct {
	SizeScale int
	ThreadCap int
	Duration  time.Duration
}

// DefaultPanelOptions are sized for a laptop-class host.
func DefaultPanelOptions() PanelOptions {
	return PanelOptions{SizeScale: 16, ThreadCap: 8, Duration: 120 * time.Millisecond}
}

func (o PanelOptions) size(paper uint64) uint64 {
	s := paper / uint64(o.SizeScale)
	if s < 64 {
		s = 64
	}
	return s
}

func (o PanelOptions) threads(paper []int) []int {
	var out []int
	for _, t := range paper {
		if t <= o.ThreadCap {
			out = append(out, t)
		}
	}
	if len(out) == 0 {
		out = []int{1}
	}
	return out
}

// standard competitor sets per panel, in the paper's order.
var (
	nvramPolicies = []string{"none", "nvtraverse", "izraelevitz", "onefile"}
	dramPolicies  = []string{"none", "nvtraverse", "izraelevitz", "logfree"}
)

// Panels returns every table/figure panel of the paper's evaluation. The
// per-panel comments give the paper's exact workload; sizes and threads
// are scaled by o.
func Panels(o PanelOptions) []Panel {
	var ps []Panel
	add := func(id, title string, cfgs []Config) {
		ps = append(ps, Panel{ID: id, Title: title, Configs: cfgs})
	}
	grid := func(kind core.Kind, profile pmem.Profile, policies []string,
		threads []int, sizes []uint64, updates []int) []Config {
		var cs []Config
		for _, pol := range policies {
			if pol == "onefile" && kind != core.KindList && kind != core.KindEllenBST && kind != core.KindNMBST {
				continue
			}
			for _, th := range threads {
				for _, sz := range sizes {
					for _, up := range updates {
						cs = append(cs, Config{
							Kind: kind, Policy: pol, Profile: profile,
							Threads: th, Range: sz, UpdatePct: up,
							Duration: o.Duration,
						})
					}
				}
			}
		}
		return cs
	}

	// --- Figure 5: NVRAM machine (Optane profile) ---
	// (a) Linked-List, varying threads, 80% lookups, 512 keys (range 1024).
	add("5a", "List scalability (NVRAM): 80% lookups, range 1024",
		grid(core.KindList, pmem.ProfileNVRAM, nvramPolicies,
			o.threads([]int{1, 2, 4, 8, 16, 24, 32, 48}), []uint64{1024}, []int{20}))
	// (b) Linked-List, varying size, 16 threads, 80% lookups.
	add("5b", "List size sweep (NVRAM): 16 threads, 80% lookups",
		grid(core.KindList, pmem.ProfileNVRAM, nvramPolicies,
			o.threads([]int{16}), []uint64{256, 512, 1024, 2048, 4096, 8192}, []int{20}))
	// (c) Linked-List, varying update pct, 16 threads, 500 nodes (range 1000).
	add("5c", "List update% sweep (NVRAM): 16 threads, range 1000",
		grid(core.KindList, pmem.ProfileNVRAM, nvramPolicies,
			o.threads([]int{16}), []uint64{1000}, []int{0, 5, 10, 20, 50, 100}))
	// (d) Hash-Table, varying update pct, 16 threads, 1M nodes (range 2M).
	add("5d", "Hash update% sweep (NVRAM): 16 threads, range 2M",
		grid(core.KindHash, pmem.ProfileNVRAM, []string{"none", "nvtraverse", "izraelevitz"},
			o.threads([]int{16}), []uint64{o.size(2 << 20)}, []int{0, 10, 20, 50, 100}))
	// (e) BST, varying update pct, 16 threads, 1M nodes: both BSTs + OneFile.
	add("5e", "BST update% sweep (NVRAM): 16 threads, range 2M",
		append(
			grid(core.KindNMBST, pmem.ProfileNVRAM, nvramPolicies,
				o.threads([]int{16}), []uint64{o.size(2 << 20)}, []int{0, 10, 20, 50, 100}),
			grid(core.KindEllenBST, pmem.ProfileNVRAM, []string{"none", "nvtraverse", "izraelevitz"},
				o.threads([]int{16}), []uint64{o.size(2 << 20)}, []int{0, 10, 20, 50, 100})...))
	// (f) Skip-List, varying update pct, 16 threads, 1M nodes.
	add("5f", "Skiplist update% sweep (NVRAM): 16 threads, range 2M",
		grid(core.KindSkiplist, pmem.ProfileNVRAM, []string{"none", "nvtraverse", "izraelevitz"},
			o.threads([]int{16}), []uint64{o.size(2 << 20)}, []int{0, 10, 20, 50, 100}))

	// --- Figure 6: DRAM machine (includes David et al. log-free) ---
	// (g) List, varying threads, 80% lookups, 8000 nodes (range 16384).
	add("6g", "List scalability (DRAM): 80% lookups, range 16384",
		grid(core.KindList, pmem.ProfileDRAM, dramPolicies,
			o.threads([]int{1, 2, 4, 8, 16, 32, 64}), []uint64{o.size(16384) * 4}, []int{20}))
	// (h) List, varying update pct, 64 threads, 8000 nodes.
	add("6h", "List update% sweep (DRAM): range 16384",
		grid(core.KindList, pmem.ProfileDRAM, append(dramPolicies, "onefile"),
			o.threads([]int{64, 8})[:1], []uint64{o.size(16384) * 4}, []int{0, 20, 50, 100}))
	// (i) List, varying size, 64 threads, 80% lookups.
	add("6i", "List size sweep (DRAM): 80% lookups",
		grid(core.KindList, pmem.ProfileDRAM, dramPolicies,
			o.threads([]int{64, 8})[:1], []uint64{512, 2048, 8192, 16384}, []int{20}))
	// (j) Hash, varying threads, 80% lookups, 8M nodes.
	add("6j", "Hash scalability (DRAM): 80% lookups, range 16M",
		grid(core.KindHash, pmem.ProfileDRAM, dramPolicies,
			o.threads([]int{1, 2, 4, 8, 16, 32, 64}), []uint64{o.size(16 << 20)}, []int{20}))
	// (k) Hash, varying update pct, 16 threads, 8M nodes.
	add("6k", "Hash update% sweep (DRAM): 16 threads, range 16M",
		grid(core.KindHash, pmem.ProfileDRAM, dramPolicies,
			o.threads([]int{16}), []uint64{o.size(16 << 20)}, []int{0, 10, 20, 50, 100}))
	// (l) Hash, varying size, 16 threads, 20% updates.
	add("6l", "Hash size sweep (DRAM): 16 threads, 20% updates",
		grid(core.KindHash, pmem.ProfileDRAM, dramPolicies,
			o.threads([]int{16}), []uint64{o.size(1 << 20), o.size(4 << 20), o.size(16 << 20)}, []int{20}))
	// (m) BST, varying update pct, 16 threads, 8M nodes: both BSTs.
	add("6m", "BST update% sweep (DRAM): 16 threads, range 16M",
		append(
			grid(core.KindNMBST, pmem.ProfileDRAM, dramPolicies,
				o.threads([]int{16}), []uint64{o.size(16 << 20)}, []int{0, 10, 20, 50, 100}),
			grid(core.KindEllenBST, pmem.ProfileDRAM, []string{"none", "nvtraverse", "izraelevitz"},
				o.threads([]int{16}), []uint64{o.size(16 << 20)}, []int{0, 10, 20, 50, 100})...))
	// (n) Skiplist, varying threads, 80% lookups, 8M nodes, 20% updates.
	add("6n", "Skiplist scalability (DRAM): 20% updates, range 16M",
		grid(core.KindSkiplist, pmem.ProfileDRAM, dramPolicies,
			o.threads([]int{1, 2, 4, 8, 16, 32, 64}), []uint64{o.size(16 << 20)}, []int{20}))
	// (o) Skiplist, varying update pct, 64 threads, 8M nodes.
	add("6o", "Skiplist update% sweep (DRAM): range 16M",
		grid(core.KindSkiplist, pmem.ProfileDRAM, dramPolicies,
			o.threads([]int{64, 8})[:1], []uint64{o.size(16 << 20)}, []int{0, 20, 50, 100}))

	// --- Sharded engine: YCSB shard-scaling (system extension beyond the
	// paper: zipf-skewed YCSB workloads against the hash-sharded engine,
	// sweeping shard count × threads; the shard-scaling curve is the
	// panel's series) ---
	for _, wl := range []string{"A", "B", "C"} {
		var cs []Config
		for _, sh := range []int{1, 4, 16} {
			for _, th := range o.threads([]int{1, 2, 4, 8, 16}) {
				cs = append(cs, Config{
					Kind: core.KindHash, Policy: "nvtraverse",
					Profile: pmem.ProfileNVRAM, Threads: th,
					Range: o.size(1 << 20), Duration: o.Duration,
					Workload: wl, Shards: sh,
				})
			}
		}
		add("s"+wl, "Sharded engine YCSB-"+wl+" scaling (NVRAM): shards 1/4/16 x threads", cs)
	}

	// --- Store API v2 workloads: YCSB E (range scans, the workload the
	// point-op surface could not express) over every ordered kind, 1-shard
	// and 4-shard store (the 4-shard store merges per-shard ordered scans),
	// under the three durable policies ---
	{
		var cs []Config
		th := o.threads([]int{4})[0]
		for _, kind := range core.OrderedKinds() {
			for _, pol := range []string{"nvtraverse", "izraelevitz", "logfree"} {
				for _, sh := range []int{1, 4} {
					cs = append(cs, Config{
						Kind: kind, Policy: pol, Profile: pmem.ProfileNVRAM,
						Threads: th, Range: o.size(1 << 16), Duration: o.Duration,
						Workload: "E", Shards: sh,
					})
				}
			}
		}
		add("yE", "YCSB-E range scans: ordered kinds x durable policies, 1-shard + 4-shard store", cs)
	}

	// --- RMW-heavy panel: workload U hammers the atomic in-place Update
	// path (with GetOrInsert seeding) on every kind, 1-shard + 4-shard ---
	{
		var cs []Config
		th := o.threads([]int{4})[0]
		for _, kind := range core.Kinds() {
			for _, pol := range []string{"nvtraverse", "logfree"} {
				for _, sh := range []int{1, 4} {
					cs = append(cs, Config{
						Kind: kind, Policy: pol, Profile: pmem.ProfileNVRAM,
						Threads: th, Range: o.size(1 << 16), Duration: o.Duration,
						Workload: "U", Shards: sh,
					})
				}
			}
		}
		add("yU", "YCSB-U atomic RMW: in-place Update across kinds, 1-shard + 4-shard store", cs)
	}

	// --- Flush-accounting ablation: the paper's quantitative claim as a
	// panel. For every structure, NVTraverse vs the flush-everything
	// baseline (plus the hand-tuned link-and-persist) on YCSB A/B/C, zero
	// latency profile: the flush/op and elide/op columns are the
	// hardware-independent evidence, not throughput. ---
	for _, wl := range []string{"A", "B", "C"} {
		var cs []Config
		th := o.threads([]int{4})[0]
		for _, kind := range core.Kinds() {
			for _, pol := range []string{"nvtraverse", "izraelevitz", "logfree"} {
				cs = append(cs, Config{
					Kind: kind, Policy: pol, Profile: pmem.ProfileZero,
					Threads: th, Range: o.size(1 << 16), Duration: o.Duration,
					Workload: wl,
				})
			}
		}
		add("f"+wl, "Flush ablation YCSB-"+wl+": flushes/op, NVTraverse vs flush-everything", cs)
	}
	return ps
}

// PanelByID returns the panel with the given ID.
func PanelByID(o PanelOptions, id string) (Panel, error) {
	for _, p := range Panels(o) {
		if p.ID == id {
			return p, nil
		}
	}
	return Panel{}, fmt.Errorf("bench: unknown panel %q", id)
}
