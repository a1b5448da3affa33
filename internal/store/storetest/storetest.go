// Package storetest stands a store.Store consumer — the group-commit pool,
// the server — on stub sessions, for component tests that script what a
// shard's session does.
package storetest

import (
	"testing"

	"repro/internal/store"
)

// Sessions embeds a real store, for every call its consumer makes besides
// the three below, but reports one shard per entry of List, hands the i-th
// NewSession call List[i], and routes key k to shard Route(k) (shard 0 when
// Route is nil).
type Sessions struct {
	store.Store
	List  []store.Session
	Route func(key uint64) int
	next  int
}

func (s *Sessions) Shards() int { return len(s.List) }

func (s *Sessions) NewSession() store.Session {
	s.next++
	return s.List[s.next-1]
}

func (s *Sessions) ShardFor(key uint64) int {
	if s.Route == nil {
		return 0
	}
	return s.Route(key)
}

// Stub returns Sessions over the given sessions, embedding an empty
// in-memory store.
func Stub(t testing.TB, route func(key uint64) int, sessions ...store.Session) *Sessions {
	t.Helper()
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return &Sessions{Store: st, List: sessions, Route: route}
}
