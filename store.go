package nvtraverse

import (
	"path/filepath"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/repl"
	"repro/internal/store"
)

// Store is the unified durable-store surface (Store API v2) over the
// hash-sharded engine. Open is the constructor; StoreSession is the
// per-goroutine handle.
type Store = store.Store

// StoreSession is the per-goroutine operation handle of a Store: point
// ops, atomic read-modify-write (Update, GetOrInsert, atomic Put), range
// scans (Scan: any range in key order on an ordered kind, only the whole
// key range on the hash kind), and batched Apply/MultiGet, plus
// ApplyCommitted, which reports each fence group's results as soon as its
// commit fence lands. Scan is the one way to read a whole live store. The
// handle is the same for one shard and for many.
type StoreSession = store.Session

// ErrUnordered is returned by Scan/RangeScan on kinds without a key order
// (the hash table) for any range narrower than the whole key space, which
// they scan in no key order.
var ErrUnordered = core.ErrUnordered

// openConfig is the full Open configuration: the store.Config core plus
// facade-level concerns (replication attachment) the store layer never
// sees.
type openConfig struct {
	cfg       store.Config
	replicaOf string
}

// Option configures Open.
type Option func(*openConfig)

// WithPolicy selects the persistence transformation (default
// PolicyNVTraverse).
func WithPolicy(pol persist.Policy) Option {
	return func(c *openConfig) { c.cfg.Policy = pol }
}

// WithProfile selects the simulated latency profile (default NVRAM).
func WithProfile(p pmem.Profile) Option {
	return func(c *openConfig) { c.cfg.Profile = p }
}

// WithSizeHint declares the expected key-range size (hash bucket sizing,
// shard sizing).
func WithSizeHint(n int) Option {
	return func(c *openConfig) { c.cfg.SizeHint = n }
}

// WithBuckets overrides the hash bucket count (hash kind only).
func WithBuckets(n int) Option {
	return func(c *openConfig) { c.cfg.Buckets = n }
}

// WithTracked builds the store on tracked memories for crash testing
// (slower; supports Crash/FinishCrash via the backend accessors).
func WithTracked() Option {
	return func(c *openConfig) { c.cfg.Tracked = true }
}

// WithShards sets the shard count (default 1; n ≤ 0 means 1). Scans merge
// the per-shard ordered streams.
func WithShards(n int) Option {
	return func(c *openConfig) { c.cfg.Shards = n }
}

// WithMaxSessions bounds NewSession calls (default 64).
func WithMaxSessions(n int) Option {
	return func(c *openConfig) { c.cfg.MaxSessions = n }
}

// WithDir backs the store with the durable file backend: every commit
// fence journals its line set into a WAL under dir (one subdirectory per
// shard), Open replays the files before returning, and Close/Checkpoint
// manage the log. A store reopened on the same directory sees every
// previously acknowledged operation, even after SIGKILL.
func WithDir(dir string) Option {
	return func(c *openConfig) { c.cfg.Dir = dir }
}

// WithSyncFence makes every commit fence fsync the WAL — durability
// against power loss rather than just process death. Only meaningful
// together with WithDir.
func WithSyncFence() Option {
	return func(c *openConfig) { c.cfg.SyncFence = true }
}

// WithReplicaOf attaches the opened store to a replication primary at addr
// ("unix:/path" or "host:port", an nvserver wire-protocol listener). The
// store bootstraps from the primary's snapshot, then applies its committed
// fence groups continuously; Repl() reports the link and Close detaches
// it. Reads see the replicated data with bounded staleness (the stream is
// asynchronous); local writes through sessions are NOT forwarded to the
// primary and can be overwritten by the stream — a replica handle is for
// reading. With WithDir, the stream position survives reopen (the replica
// resumes tailing instead of re-copying the snapshot).
func WithReplicaOf(addr string) Option {
	return func(c *openConfig) { c.replicaOf = addr }
}

// WithWaitReplicas declares the write quorum K the serving layer enforces
// on this store: a WAIT-mode write is acknowledged only after K replicas
// confirmed the fence group containing it. The store itself does not gate
// on it — nvserver's replication primary does — but recording it here lets
// one Open call express the full durability contract, and Repl() surfaces
// it.
func WithWaitReplicas(k int) Option {
	return func(c *openConfig) { c.cfg.WaitReplicas = k }
}

// Open builds a durable store of the given structure kind.
//
//	st, _ := nvtraverse.Open(nvtraverse.Skiplist,
//	        nvtraverse.WithPolicy(nvtraverse.PolicyNVTraverse),
//	        nvtraverse.WithShards(8),
//	        nvtraverse.WithSizeHint(1<<20))
//	h := st.NewSession() // one per goroutine
//	h.Put(42, 420)
//	h.Scan(1, 100, func(k, v uint64) bool { ...; return true })
//
// With no options the store is one shard of an NVTraverse structure on a
// fast memory.
func Open(kind Kind, opts ...Option) (Store, error) {
	oc := openConfig{cfg: store.Config{Kind: kind}}
	for _, o := range opts {
		o(&oc)
	}
	st, err := store.Open(oc.cfg)
	if err != nil {
		return nil, err
	}
	if oc.replicaOf == "" {
		return st, nil
	}
	// Replica attachment: a durable replica persists its stream position
	// next to the WAL so reopening resumes the tail instead of re-copying
	// the primary's snapshot.
	wm := ""
	if oc.cfg.Dir != "" {
		wm = filepath.Join(oc.cfg.Dir, "repl.watermark")
	}
	rep, err := repl.StartReplica(st, repl.ReplicaConfig{
		Primary:       oc.replicaOf,
		WatermarkPath: wm,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	return &replicaStore{Store: st, rep: rep}, nil
}

// replicaStore wraps a replica-attached store so Close detaches the
// stream (persisting the watermark) before closing the backend.
type replicaStore struct {
	Store
	rep *repl.Replica
}

func (r *replicaStore) Close() error {
	r.rep.Close()
	return r.Store.Close()
}

// Kind names a structure kind (see the re-exported constants List,
// HashMap, EllenBST, NMBST, Skiplist).
type Kind = core.Kind

// Ordered reports whether a kind supports range scans narrower than the
// whole key range.
func Ordered(kind Kind) bool { return core.Ordered(kind) }
