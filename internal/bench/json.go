// JSON baseline harness: a small fixed panel of throughput rows that is
// cheap enough to run on every change, written as a machine-readable
// document (BENCH_N.json) so perf PRs can quote measured speedups against a
// baseline captured with the *same harness* at the previous commit, and CI
// can archive the trajectory as a workflow artifact.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pmem"
)

// JSONRow is one benchmark row of a BenchDoc. The latency percentile
// fields (schema 2) are in microseconds and come from an HDR-style sampled
// histogram (see Histogram); they are zero/omitted on rows whose harness
// recorded no samples, and on documents captured before schema 2.
type JSONRow struct {
	Panel      string  `json:"panel"`
	Kind       string  `json:"kind"`
	Policy     string  `json:"policy"`
	Profile    string  `json:"profile"`
	Threads    int     `json:"threads"`
	Range      uint64  `json:"range,omitempty"`
	Workload   string  `json:"workload,omitempty"`
	Shards     int     `json:"shards,omitempty"`
	Ops        uint64  `json:"ops"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	FlushPerOp float64 `json:"flush_per_op"`
	ElidePerOp float64 `json:"elide_per_op"`
	FencePerOp float64 `json:"fence_per_op"`
	LatSamples uint64  `json:"lat_samples,omitempty"`
	P50us      float64 `json:"p50_us,omitempty"`
	P95us      float64 `json:"p95_us,omitempty"`
	P99us      float64 `json:"p99_us,omitempty"`
	P999us     float64 `json:"p999_us,omitempty"`
	// ReplayRecords/ReplayBytes (schema 3) are set on recovery rows: the
	// WAL records and bytes replayed during a file-backed cold start. On
	// such rows Ops counts replayed records and OpsPerSec is records/s.
	ReplayRecords uint64 `json:"replay_records,omitempty"`
	ReplayBytes   uint64 `json:"replay_bytes,omitempty"`
}

// SpeedupRow compares one panel row against the same row of a baseline doc.
type SpeedupRow struct {
	Panel         string  `json:"panel"`
	BaseOpsPerSec float64 `json:"base_ops_per_sec"`
	NewOpsPerSec  float64 `json:"new_ops_per_sec"`
	Speedup       float64 `json:"speedup"`
}

// BenchDoc is the on-disk format of a benchmark capture (BENCH_N.json).
// When the capture was compared against a baseline, the baseline's rows and
// the per-panel speedups are embedded so the document is self-contained.
type BenchDoc struct {
	Schema    int          `json:"schema"`
	Label     string       `json:"label,omitempty"`
	GoVersion string       `json:"go_version"`
	NumCPU    int          `json:"num_cpu"`
	Rows      []JSONRow    `json:"rows"`
	Baseline  []JSONRow    `json:"baseline,omitempty"`
	Speedups  []SpeedupRow `json:"speedups,omitempty"`
	// BaselineNumCPU and BaselineGo record the compared document's machine
	// (set by Compare): absolute ops/s only gate meaningfully between
	// comparable machines, so mismatches are surfaced next to the speedups.
	BaselineNumCPU int    `json:"baseline_num_cpu,omitempty"`
	BaselineGo     string `json:"baseline_go_version,omitempty"`
}

// MachineMismatch reports a human-readable capture/baseline machine
// difference, or "" when the machines look comparable. Callers print it
// next to gate results so a cross-machine comparison can't fail silently
// confusingly.
func (d *BenchDoc) MachineMismatch() string {
	if d.BaselineNumCPU != 0 && d.BaselineNumCPU != d.NumCPU {
		return fmt.Sprintf("baseline captured with %d CPUs, this capture has %d — absolute ops/s are not comparable",
			d.BaselineNumCPU, d.NumCPU)
	}
	return ""
}

// RowFromResult flattens a Result into a JSONRow under a panel id.
func RowFromResult(panel string, r Result) JSONRow {
	row := JSONRow{
		Panel:      panel,
		Kind:       string(r.Kind),
		Policy:     r.Policy,
		Profile:    r.Profile.Name,
		Threads:    r.Threads,
		Range:      r.Range,
		Workload:   r.Workload,
		Shards:     r.Shards,
		Ops:        r.Ops,
		OpsPerSec:  r.Mops * 1e6,
		FlushPerOp: r.FlushPerOp,
		ElidePerOp: r.ElidePerOp,
		FencePerOp: r.FencePerOp,
	}
	if r.Lat != nil && r.Lat.Count() > 0 {
		row.LatSamples = r.Lat.Count()
		row.P50us = float64(r.Lat.Quantile(0.50)) / 1e3
		row.P95us = float64(r.Lat.Quantile(0.95)) / 1e3
		row.P99us = float64(r.Lat.Quantile(0.99)) / 1e3
		row.P999us = float64(r.Lat.Quantile(0.999)) / 1e3
	}
	return row
}

// BaselineConfig is one named row of the baseline suite.
type BaselineConfig struct {
	Panel string
	Cfg   Config // ignored when Tracked or Recovery
	// Tracked rows run the TrackedThroughput proxy instead of a workload.
	Tracked bool
	// Recovery rows run RecoveryRow: write a file-backed store, reopen it,
	// and report WAL replay throughput instead of a workload.
	Recovery bool
}

// BaselineSuite is the fixed panel behind nvbench -json: a read-heavy
// fast-mode row (the stats-bound hot path), a write-heavy row, the paper's
// small-list row (fence-bound), an engine row, and the tracked-mode torture
// throughput proxy (the lock-bound path). dur is the measurement time per
// row (NVBENCH_DUR still overrides).
func BaselineSuite(dur time.Duration) []BaselineConfig {
	return []BaselineConfig{
		{Panel: "fastC-skip8", Cfg: Config{
			Kind: core.KindSkiplist, Policy: "nvtraverse", Profile: pmem.ProfileZero,
			Threads: 8, Range: 1 << 16, Workload: "C", Duration: dur,
		}},
		{Panel: "fastA-hash4", Cfg: Config{
			Kind: core.KindHash, Policy: "nvtraverse", Profile: pmem.ProfileNVRAM,
			Threads: 4, Range: 1 << 16, Workload: "A", Duration: dur,
		}},
		{Panel: "list-nvram4", Cfg: Config{
			Kind: core.KindList, Policy: "nvtraverse", Profile: pmem.ProfileNVRAM,
			Threads: 4, Range: 1024, UpdatePct: 20, Duration: dur,
		}},
		{Panel: "engineC-4sh", Cfg: Config{
			Kind: core.KindHash, Policy: "nvtraverse", Profile: pmem.ProfileZero,
			Threads: 4, Range: 1 << 16, Workload: "C", Shards: 4, Duration: dur,
		}},
		{Panel: "tracked-4t", Cfg: Config{Threads: 4, Duration: dur}, Tracked: true},
		{Panel: "recovery", Recovery: true},
	}
}

// RunBaseline executes the baseline suite and returns its rows. progress,
// when non-nil, receives one line per completed row.
func RunBaseline(dur time.Duration, progress func(string)) ([]JSONRow, error) {
	var rows []JSONRow
	for _, bc := range BaselineSuite(dur) {
		if bc.Recovery {
			r, err := RecoveryRow(bc.Panel)
			if err != nil {
				return nil, fmt.Errorf("bench: baseline row %s: %w", bc.Panel, err)
			}
			rows = append(rows, r)
			if progress != nil {
				progress(fmt.Sprintf("%-12s %10.0f rec/s  replayed %d records / %d bytes",
					r.Panel, r.OpsPerSec, r.ReplayRecords, r.ReplayBytes))
			}
			continue
		}
		var (
			res Result
			err error
		)
		if bc.Tracked {
			res = TrackedThroughput(bc.Cfg.Threads, bc.Cfg.Duration)
		} else {
			res, err = Run(bc.Cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: baseline row %s: %w", bc.Panel, err)
		}
		row := RowFromResult(bc.Panel, res)
		rows = append(rows, row)
		if progress != nil {
			progress(fmt.Sprintf("%-12s %10.0f ops/s  flush/op %.2f  elide/op %.2f  fence/op %.2f  p50 %.1fµs  p99 %.1fµs",
				row.Panel, row.OpsPerSec, row.FlushPerOp, row.ElidePerOp, row.FencePerOp, row.P50us, row.P99us))
		}
	}
	return rows, nil
}

// CurrentSchema is the BenchDoc schema this harness writes. Schema 2 added
// the latency percentile fields; schema 3 added the recovery-replay fields
// (ReplayRecords/ReplayBytes); schema 4 added an offered-rate field to the
// wire-protocol server rows (srv-*), which the server benchmark under
// benchmark/ has since replaced. Documents holding those rows still load
// (the decoder ignores the unknown field); the rows match no row of a new
// capture, so they gate nothing. Older documents still load and compare
// (throughput gating is unaffected).
const CurrentSchema = 4

// NewBenchDoc assembles a document from captured rows.
func NewBenchDoc(label string, rows []JSONRow) *BenchDoc {
	return &BenchDoc{
		Schema:    CurrentSchema,
		Label:     label,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Rows:      rows,
	}
}

// Compare embeds base's rows into doc and computes per-panel speedups
// (new ops/s divided by base ops/s, matched by panel id).
func (d *BenchDoc) Compare(base *BenchDoc) {
	d.Baseline = base.Rows
	d.BaselineNumCPU = base.NumCPU
	d.BaselineGo = base.GoVersion
	byPanel := make(map[string]JSONRow, len(base.Rows))
	for _, r := range base.Rows {
		byPanel[r.Panel] = r
	}
	d.Speedups = d.Speedups[:0]
	for _, r := range d.Rows {
		b, ok := byPanel[r.Panel]
		if !ok || b.OpsPerSec <= 0 {
			continue
		}
		d.Speedups = append(d.Speedups, SpeedupRow{
			Panel:         r.Panel,
			BaseOpsPerSec: b.OpsPerSec,
			NewOpsPerSec:  r.OpsPerSec,
			Speedup:       r.OpsPerSec / b.OpsPerSec,
		})
	}
}

// Verify checks the structural invariants bench-smoke asserts: at least one
// row, every row measured a nonzero throughput, and — on schema-2 documents
// — rows that recorded latency samples carry monotone percentiles.
func (d *BenchDoc) Verify() error {
	if d.Schema < 1 || d.Schema > CurrentSchema {
		return fmt.Errorf("bench: unknown BenchDoc schema %d", d.Schema)
	}
	if len(d.Rows) == 0 {
		return fmt.Errorf("bench: BenchDoc has no rows")
	}
	for _, r := range d.Rows {
		if r.OpsPerSec <= 0 || r.Ops == 0 {
			return fmt.Errorf("bench: row %s has zero throughput (ops=%d)", r.Panel, r.Ops)
		}
		if r.LatSamples > 0 {
			if r.P50us <= 0 || r.P50us > r.P95us || r.P95us > r.P99us || r.P99us > r.P999us {
				return fmt.Errorf("bench: row %s has non-monotone latency percentiles (%.2f/%.2f/%.2f/%.2f µs)",
					r.Panel, r.P50us, r.P95us, r.P99us, r.P999us)
			}
		}
	}
	return nil
}

// GateRegressions is the CI bench-regression gate: after Compare, every
// pinned panel — the zero-profile rows, whose throughput is CPU-bound
// rather than dominated by the calibrated spin costs — must not have
// regressed by more than tolerance (0.35 fails below 0.65x). Rows present
// on only one side gate nothing (new panels are allowed to appear).
func (d *BenchDoc) GateRegressions(tolerance float64) error {
	if len(d.Speedups) == 0 {
		return fmt.Errorf("bench: regression gate needs a compared document (run with -cmp)")
	}
	profile := make(map[string]string, len(d.Rows))
	for _, r := range d.Rows {
		profile[r.Panel] = r.Profile
	}
	var failures []string
	for _, s := range d.Speedups {
		if profile[s.Panel] != "zero" {
			continue
		}
		if s.Speedup < 1-tolerance {
			failures = append(failures, fmt.Sprintf(
				"%s: %.0f -> %.0f ops/s (%.2fx, floor %.2fx)",
				s.Panel, s.BaseOpsPerSec, s.NewOpsPerSec, s.Speedup, 1-tolerance))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench: throughput regression beyond %.0f%% tolerance:\n  %s",
			tolerance*100, strings.Join(failures, "\n  "))
	}
	return nil
}

// WriteFile writes the document as indented JSON.
func (d *BenchDoc) WriteFile(path string) error {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// LoadBenchDoc reads a document written by WriteFile.
func LoadBenchDoc(path string) (*BenchDoc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d BenchDoc
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &d, nil
}
