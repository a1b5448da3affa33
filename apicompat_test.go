package nvtraverse

// This file is the API-compatibility guard the CI `apicheck` target runs:
// compile-time assertions that the facade symbols still exist with their
// signatures. It is the in-repo equivalent of an apidiff gate — removing or
// re-signing a pinned symbol breaks this file before it breaks a downstream
// caller. It pins the queue's construction surface, the policy, profile,
// kind and op values, the v2 store surface (Open and its options) and the
// v3 replication and client surface.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/store"
)

// The queue's surface.
var (
	_ func(pmem.Profile) *Memory           = NewMemory
	_ func(*Memory, persist.Policy) *Queue = NewQueue
	_ func(*Queue, *Thread, uint64)        = (*Queue).Enqueue
	_ func(*Queue, *Thread) (uint64, bool) = (*Queue).Dequeue
)

// Policy and profile values.
var (
	_ persist.Policy = PolicyNone
	_ persist.Policy = PolicyNVTraverse
	_ persist.Policy = PolicyIzraelevitz
	_ persist.Policy = PolicyLogFree
	_ pmem.Profile   = NVRAM
	_ pmem.Profile   = DRAM
)

// Kind constants and op kinds.
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

// TestFacadeSymbols exists so `go test -run TestFacadeSymbols` has a named
// anchor; the real checking is the compile of this file.
func TestFacadeSymbols(t *testing.T) {
	if _, err := Open(Skiplist); err != nil {
		t.Fatal(err)
	}
}
