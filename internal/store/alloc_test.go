package store

import (
	"testing"

	"repro/internal/core"
	"repro/internal/persist"
	"repro/internal/pmem"
)

// Session.Get is the engine's hottest call — one hash, one shard pick, one
// structure Find — and it sits inside every YCSB read loop. Pin it at zero
// allocations so the engine's read path cannot silently regress.
func TestSessionGetAllocs(t *testing.T) {
	pol, _ := persist.ByName("nvtraverse")
	st, err := Open(Config{Shards: 4, Kind: core.KindHash, Policy: pol, Profile: pmem.ProfileZero, SizeHint: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s := st.NewSession()
	for k := uint64(1); k <= 1024; k += 2 {
		s.Insert(k, k)
	}
	for i := 0; i < 64; i++ { // warm up
		s.Get(uint64(2*i + 1))
	}
	if avg := testing.AllocsPerRun(200, func() {
		s.Get(321)
		s.Get(844) // absent key: miss path must be clean too
	}); avg != 0 {
		t.Errorf("Session.Get: %v allocs per 2 gets, want 0", avg)
	}
}
