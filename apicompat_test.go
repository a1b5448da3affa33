package nvtraverse

// This file is the API-compatibility guard the CI `apicheck` target runs:
// compile-time assertions that the v1 facade symbols still exist with
// their v1 signatures. It is the in-repo equivalent of an apidiff gate —
// removing or re-signing any v1 symbol breaks this file before it breaks a
// downstream caller. The v2 surface (Open, Store, Map) is asserted below
// too, so the next redesign extends rather than replaces it.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/store"
)

// v1 construction surface.
var (
	_ func(pmem.Profile) *Memory                                 = NewMemory
	_ func(core.Kind, *Memory, persist.Policy) (Set, error)      = NewSet
	_ func(core.Kind, *Memory, persist.Policy, int) (Set, error) = NewSetSized
	_ func(*Memory, persist.Policy) *Queue                       = NewQueue
	_ func(EngineConfig) (*Engine, error)                        = NewEngine
)

// v1 policy and profile values.
var (
	_ persist.Policy = PolicyNone
	_ persist.Policy = PolicyNVTraverse
	_ persist.Policy = PolicyIzraelevitz
	_ persist.Policy = PolicyLogFree
	_ pmem.Profile   = NVRAM
	_ pmem.Profile   = DRAM
)

// v1 kind constants and op kinds.
var (
	_ = []core.Kind{List, HashMap, EllenBST, NMBST, Skiplist}
	_ = []Op{{Kind: OpGet}, {Kind: OpPut}, {Kind: OpInsert}, {Kind: OpDelete}}
)

// v2 surface: options-based construction, unified store, typed map.
var (
	_ func(Kind, ...Option) (Store, error) = Open
	_                                      = []Option{
		WithPolicy(PolicyNVTraverse), WithProfile(NVRAM), WithSizeHint(1),
		WithBuckets(1), WithTracked(), WithShards(1), WithMaxSessions(1),
	}
	_ = []Op{{Kind: OpUpdate}, {Kind: OpScan}}
)

// The v1 Set alias must keep satisfying the v2 contract so old callers
// gain the new operations without a type change.
var _ interface {
	Insert(t *Thread, key, value uint64) bool
	Delete(t *Thread, key uint64) bool
	Find(t *Thread, key uint64) (uint64, bool)
	Update(t *Thread, key uint64, fn func(old uint64) uint64) (uint64, bool)
	GetOrInsert(t *Thread, key, value uint64) (uint64, bool)
	RangeScan(t *Thread, lo, hi uint64, fn func(key, value uint64) bool) error
	Recover(t *Thread)
	Contents(t *Thread) []uint64
} = Set(nil)

// v3 surface: replication options on the facade, the replication view on
// the store, and the single-constructor client Dial.
var (
	_ = []Option{WithReplicaOf("unix:/x"), WithWaitReplicas(1)}
	_ interface {
		Repl() store.ReplStats
		Boot() uint64
	} = Store(nil)
)

// The redesigned client constructor and its options.
var (
	_ func(string, ...server.DialOption) (*server.Client, error) = server.Dial
	_                                                            = []server.DialOption{
		server.WithBinaryProto(),
		server.WithDialTimeout(time.Second),
		server.WithReadFrom(server.ReadPrimary),
		server.WithReadFrom(server.ReadReplica),
		server.WithReadFrom(server.ReadNearest),
		server.WithReplicaAddrs("unix:/x"),
	}
	_ func() error      = (*server.Client)(nil).Promote
	_ error             = server.ErrWait
	_ error             = server.ErrReplica
	_ store.ReplRole    = store.RoleNone
	_ []store.ReplStats = nil
)

// TestV1FacadeSymbols exists so `go test -run TestV1Facade` has a named
// anchor; the real checking is the compile of this file.
func TestV1FacadeSymbols(t *testing.T) {
	if _, err := Open(Skiplist); err != nil {
		t.Fatal(err)
	}
}
