// Package store is the durable key-value store of the repository — Store
// API v2 — built on one backend: the hash-sharded Engine, N independent
// (pmem.Memory, core.Set) shards. Open is its only constructor; a store
// of one shard is an engine of one shard, whose point operations and scans
// go straight to the single structure.
//
// Sharding serves two system goals the paper's single-structure
// microbenchmarks do not exercise. First, scale: shards share no cache
// lines and no fences, so throughput scales with shard count until the
// workload's skew concentrates traffic on few shards. Second, batching:
// a Session executes a batch grouped per shard with
// pmem.Thread.BeginBatch/EndBatch around each shard group, so the
// fence-before-return that durable linearizability demands is paid once
// per shard group rather than once per operation. A group is acknowledged
// only after its closing fence, so the engine stays durably linearizable
// at batch granularity: a crash mid-batch leaves each unacknowledged
// operation either fully applied or fully absent, which crashtest.Run
// verifies on a crashtest.Engine target.
//
// Callers hold a Session — the per-goroutine operation handle and the one
// way to drive a store in process: the YCSB harness, the group-commit
// batcher, CLIs, examples and the typed Map facade all target it. Store
// stays an interface so callers can wrap it (instrumentation, the replica
// attachment). A whole-engine Crash/Recover mirrors a machine failure:
// every shard's memory crashes together, and recovery runs the
// per-structure recovery procedures of all shards in parallel.
package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/pmem/vfs"
)

// OpKind names a batched operation.
type OpKind uint8

// The batched operation vocabulary. OpPut is an atomic upsert; OpInsert
// and OpDelete keep the underlying structures' set semantics (fail if
// present/absent), which is what the crash-test checker models. OpUpdate
// is the atomic read-modify-write (Op.Fn, or "set to Op.Value if present"
// when Fn is nil); OpScan counts the keys of [Op.Key, Op.Hi] across all
// shards.
const (
	OpGet OpKind = iota
	OpPut
	OpInsert
	OpDelete
	OpUpdate
	OpScan
)

// Read reports whether an operation of kind k only reads (OpGet, OpScan).
// A read needs no durability to acknowledge: it completes on a degraded
// store and never waits for replication. Every other kind is a write.
func (k OpKind) Read() bool { return k == OpGet || k == OpScan }

// Op is one operation of a batch.
type Op struct {
	Kind       OpKind
	Key, Value uint64
	// Hi is OpScan's inclusive upper bound ([Key, Hi]).
	Hi uint64
	// Fn is OpUpdate's transform over the present value. A nil Fn makes
	// OpUpdate a conditional overwrite: set to Value if the key is present.
	Fn func(old uint64) uint64
}

// OpResult is the outcome of one batch operation: the value for gets, and
// whether the operation succeeded (found / inserted / deleted).
type OpResult struct {
	Value uint64
	OK    bool
}

// Session is the per-goroutine handle on a Store. One goroutine at a time;
// scans' fn must not re-enter the same session.
type Session interface {
	// Get looks up a key.
	Get(key uint64) (uint64, bool)
	// Put upserts atomically: afterwards the key maps to value.
	Put(key, value uint64)
	// Insert adds key with value; false if the key is already present.
	Insert(key, value uint64) bool
	// Delete removes a key; false if absent.
	Delete(key uint64) bool
	// Update atomically read-modify-writes key's value in place; see
	// core.Set.Update.
	Update(key uint64, fn func(old uint64) uint64) (uint64, bool)
	// GetOrInsert atomically returns the present value or inserts value.
	GetOrInsert(key, value uint64) (v uint64, inserted bool)
	// Scan visits every present key in [lo, hi] ascending; kinds without a
	// key order scan only [kv.MinKey, kv.MaxKey], in no key order, and
	// return ErrUnordered on any narrower range. See core.Set.RangeScan for
	// consistency.
	Scan(lo, hi uint64, fn func(key, value uint64) bool) error
	// Apply executes a batch with one commit fence per fence group.
	Apply(ops []Op, dst []OpResult) []OpResult
	// ApplyCommitted executes a batch like Apply but invokes
	// committed(idxs, err) the moment the results at those batch indexes
	// are safe to acknowledge — once per fence group, right after that
	// group's commit fence lands, and once for scans (reads need no fence).
	// A non-nil err means the group's commit could not be made durable (the
	// backend latched a sticky disk failure, see Store.DurableErr) and the
	// results at idxs must not be acknowledged. idxs aliases internal
	// scratch and is valid only during the callback. The group-commit
	// batcher (internal/batcher) builds on it.
	ApplyCommitted(ops []Op, dst []OpResult, committed func(idxs []int, err error)) []OpResult
	// MultiGet batch-reads keys.
	MultiGet(keys []uint64, dst []OpResult) []OpResult
	// Rand draws from the session's per-goroutine RNG.
	Rand() uint64
}

// AsyncSession is an alias of Session, kept for callers that still name
// it; every Session has ApplyCommitted.
type AsyncSession = Session

// ReplRole names a store's position in a replication topology.
type ReplRole uint8

const (
	// RoleNone: the store is not part of a replication topology.
	RoleNone ReplRole = iota
	// RolePrimary: the store accepts writes and streams committed fence
	// groups to attached replicas.
	RolePrimary
	// RoleReplica: the store applies a primary's stream and serves reads.
	RoleReplica
)

// ReplStats is the replication view of a store. The zero value is what an
// unreplicated store reports, so callers never branch on topology: lag is
// zero, no replicas are connected, no quorum is required. A store serving
// as a replication primary or replica reports live figures (the repl
// package attaches itself through Engine.SetReplSource).
type ReplStats struct {
	// Role is the store's current topology role.
	Role ReplRole
	// Replicas counts connected replicas on a primary; on a replica it is
	// 1 while the upstream link is live and 0 after it failed.
	Replicas int
	// WaitReplicas is the configured write quorum K (0 = acks never wait
	// for replication).
	WaitReplicas int
	// MaxLagGroups and MaxLagBytes are the largest per-replica backlog of
	// streamed-but-unacknowledged fence groups (and their encoded bytes)
	// across connected replicas; both are 0 when every replica is caught
	// up. On a replica they report its own backlog behind the primary.
	MaxLagGroups uint64
	MaxLagBytes  uint64
	// LastAckSeq is the highest fence-group sequence any replica has
	// acknowledged (primary), or the highest applied sequence (replica) —
	// the last-acknowledged watermark, summed across shards.
	LastAckSeq uint64
	// AppliedGroups and AppliedOps count the stream batches and operations
	// a replica has applied (0 on a primary).
	AppliedGroups uint64
	AppliedOps    uint64
}

// Store is one durable key-value store.
type Store interface {
	// NewSession registers a per-goroutine handle.
	NewSession() Session
	// Kind reports the underlying structure kind.
	Kind() core.Kind
	// Shards reports the shard count (at least 1).
	Shards() int
	// Ordered reports whether Scan takes any range; see Session.Scan.
	Ordered() bool
	// Recover runs the paper's recovery phase (after a crash, before any
	// other operation; quiescent).
	Recover()
	// Stats aggregates the persistence-instruction counters.
	Stats() pmem.Stats
	// ResetStats clears the counters. Call it only while no session is
	// mid-operation (between measurement runs).
	ResetStats()
	// Durable reports whether the store is file-backed (Config.Dir).
	Durable() bool
	// DurableErr reports the sticky damage state of the durable backend:
	// nil while healthy (or on a non-durable store), and the first
	// write/fsync failure forever after. A damaged store keeps serving
	// reads but must not acknowledge writes; only a restart plus recovery
	// clears the condition (see pmem.Memory.DurableErr).
	DurableErr() error
	// ReplayStats reports the cost of the file recovery Open performed
	// (zero on non-durable stores).
	ReplayStats() pmem.ReplayStats
	// ShardFor reports which shard a key routes to (always 0 on one
	// shard). Shard-affine callers — the batcher's worker pool — use it
	// to keep a key's operations on the worker that owns its shard group.
	ShardFor(key uint64) int
	// Repl reports the store's replication view: the zero ReplStats value
	// on an unreplicated store, live topology figures when the store
	// serves as a replication primary or replica (see ReplStats).
	Repl() ReplStats
	// Boot reports the durable backend's boot counter (0 on non-durable
	// stores): a value that uniquely names this process lifetime of the
	// data directory, bumped on every successful open. Replication uses it
	// as the primary's run identity in the catch-up watermark.
	Boot() uint64
	// Checkpoint snapshots the store's memories and truncates their WALs.
	// Safe under live traffic (fences stall for the duration of a shard's
	// dump; see pmem.Memory.Checkpoint); no-op on non-durable stores.
	Checkpoint() error
	// MaybeCheckpoint checkpoints every memory whose WAL has reached
	// Config.CkptBytes, returning how many checkpoints ran. No-op (0, nil)
	// when CkptBytes is unset or the store is not durable; cheap enough to
	// call after every group commit (one atomic load per shard when under
	// the threshold).
	MaybeCheckpoint() (int, error)
	// Close flushes and closes the backing files (no-op on non-durable
	// stores; safe to call twice; quiescent use).
	Close() error
}

// Config parameterizes Open. The zero value opens a one-shard NVTraverse
// hash table on a fast memory.
type Config struct {
	// Kind is the structure kind (default core.KindHash).
	Kind core.Kind
	// Policy is the persistence transformation (default persist.NVTraverse).
	Policy persist.Policy
	// Profile is the latency profile for fast-mode memories.
	Profile pmem.Profile
	// SizeHint is the expected key-range size.
	SizeHint int
	// Buckets overrides the hash bucket count (hash kind only).
	Buckets int
	// Tracked builds tracked memories (crash testing) instead of fast ones.
	Tracked bool
	// Shards is the shard count; ≤ 0 opens one shard. The manifest records
	// the count actually used.
	Shards int
	// MaxSessions bounds NewSession calls (default 64).
	MaxSessions int
	// Dir, when non-empty, backs the store with the durable file backend
	// (WAL + checkpoint per memory; shard i journals under Dir/shard-i).
	// Open writes a MANIFEST.json recording the layout-determining
	// parameters on first use and refuses to open a directory whose
	// manifest disagrees — replay writes into deterministically
	// reconstructed regions, so kind/shards/buckets must match exactly.
	// Open recovers the files before returning; the store is immediately
	// consistent with every previously acknowledged operation.
	Dir string
	// SyncFence makes every commit fence fsync the WAL (durability against
	// power loss, not just process death). Only meaningful with Dir.
	SyncFence bool
	// CkptBytes, when > 0, is the per-memory WAL size at which
	// MaybeCheckpoint takes an automatic checkpoint, bounding replay work
	// after a kill. Not layout-determining (absent from the manifest): a
	// directory may be reopened with a different threshold. Only meaningful
	// with Dir.
	CkptBytes int64
	// FS overrides the durable backend's file operations (nil = the real
	// filesystem). Fault-injection tests pass a vfs.ErrFS here. Not
	// layout-determining (absent from the manifest). Only meaningful with
	// Dir.
	FS vfs.FS
	// WaitReplicas is the write quorum K, and its only source: a write
	// acknowledged under WAIT mode has been confirmed by K replicas. The
	// store itself does not enforce it — the replication primary the
	// server wires into the group-commit pool reads it through
	// Repl().WaitReplicas and does. Not layout-determining.
	WaitReplicas int
}

// manifest is the on-disk record of the layout-determining Config fields.
type manifest struct {
	Version  int    `json:"version"`
	Kind     string `json:"kind"`
	Policy   string `json:"policy"`
	Shards   int    `json:"shards"`
	SizeHint int    `json:"size_hint"`
	Buckets  int    `json:"buckets"`
}

const manifestName = "MANIFEST.json"

// formatManifest renders the manifest file's contents.
func formatManifest(m manifest) []byte {
	buf, _ := json.MarshalIndent(m, "", "  ") // strings and ints: cannot fail
	return append(buf, '\n')
}

// parseManifest reads exactly what formatManifest writes: anything else
// (other spacing or key order, unknown or missing fields, a missing
// newline) is refused.
func parseManifest(data []byte) (m manifest, ok bool) {
	ok = json.Unmarshal(data, &m) == nil && bytes.Equal(formatManifest(m), data)
	return m, ok
}

// checkManifest writes cfg's manifest into dir on first open, and on later
// opens verifies the directory was built with the same layout parameters.
// A manifest not in the exact form formatManifest writes is refused too.
func checkManifest(dir string, cfg Config) error {
	want := manifest{
		Version:  1,
		Kind:     string(cfg.Kind),
		Policy:   cfg.Policy.Name(),
		Shards:   cfg.Shards,
		SizeHint: cfg.SizeHint,
		Buckets:  cfg.Buckets,
	}
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, formatManifest(want), 0o644); err != nil {
			return fmt.Errorf("store: manifest: %w", err)
		}
		if err := os.Rename(tmp, path); err != nil {
			return fmt.Errorf("store: manifest: %w", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	got, ok := parseManifest(data)
	if !ok {
		return fmt.Errorf("store: %s is not a manifest this store writes; refusing to open", path)
	}
	if got != want {
		return fmt.Errorf("store: %s was built with %+v; refusing to open as %+v", dir, got, want)
	}
	return nil
}

// Open builds the sharded engine for cfg; Shards ≤ 0 opens one shard.
// With Dir it builds the shards (no file IO), then checks or writes the
// manifest, then replays the files and runs the recovery phase, so a
// refused configuration leaves the directory as it found it. On error
// every file Open opened is closed.
func Open(cfg Config) (Store, error) {
	if cfg.Kind == "" {
		cfg.Kind = core.KindHash
	}
	if cfg.Policy == nil {
		cfg.Policy = persist.NVTraverse{}
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if e.durable {
		if err := checkManifest(cfg.Dir, cfg); err != nil {
			return nil, err
		}
		if e.replay, err = e.recoverFiles(); err != nil {
			e.Close()
			return nil, fmt.Errorf("store: recover %s: %w", cfg.Dir, err)
		}
	}
	e.admin = e.newSession()
	if e.durable {
		// The paper's recovery phase runs on every durable open: on a
		// fresh directory it is a no-op scan, after a crash it rebuilds
		// the auxiliary state the replayed image needs.
		e.Recover()
	}
	return e, nil
}
