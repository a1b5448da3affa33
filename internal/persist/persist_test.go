package persist

import (
	"testing"

	"repro/internal/pmem"
)

func newThread() (*pmem.Memory, *pmem.Thread) {
	m := pmem.NewFast(pmem.ProfileZero)
	return m, m.NewThread()
}

// stats publishes th's owner-written counters (these tests drive
// persistence instructions directly, between operation boundaries) and
// returns the memory's aggregate.
func stats(m *pmem.Memory, th *pmem.Thread) pmem.Stats {
	th.PublishStats()
	return m.Stats()
}

func TestByName(t *testing.T) {
	cases := map[string]string{
		"none":           "none",
		"izraelevitz":    "izraelevitz",
		"izra":           "izraelevitz",
		"nvtraverse":     "nvtraverse",
		"traverse":       "nvtraverse",
		"logfree":        "logfree",
		"lap":            "logfree",
		"linkandpersist": "logfree",
	}
	for in, want := range cases {
		p, ok := ByName(in)
		if !ok || p.Name() != want {
			t.Fatalf("ByName(%q) = %v,%v", in, p, ok)
		}
	}
	if _, ok := ByName("bogus"); ok {
		t.Fatalf("ByName accepted bogus")
	}
}

func TestDurabilityFlags(t *testing.T) {
	for _, p := range All() {
		want := p.Name() != "none"
		if p.Durable() != want {
			t.Fatalf("%s.Durable() = %v", p.Name(), p.Durable())
		}
	}
}

func TestNoneIsFree(t *testing.T) {
	m, th := newThread()
	var c pmem.Cell
	p := None{}
	p.TraverseRead(th, &c)
	p.PostTraverse(th, []*pmem.Cell{&c})
	p.Read(th, &c)
	p.ReadData(th, &c)
	p.InitWrite(th, &c)
	p.Wrote(th, &c)
	p.BeforeCAS(th)
	p.BeforeReturn(th)
	if s := stats(m, th); s.Flushes != 0 || s.Fences != 0 {
		t.Fatalf("None persisted: %+v", s)
	}
}

func TestIzraelevitzFlushesEveryAccess(t *testing.T) {
	m, th := newThread()
	var c pmem.Cell
	p := Izraelevitz{}
	p.TraverseRead(th, &c)
	p.Read(th, &c)
	p.Wrote(th, &c)
	s := stats(m, th)
	if s.Flushes != 3 || s.Fences != 3 {
		t.Fatalf("Izraelevitz: %+v", s)
	}
}

func TestNVTraversePlacement(t *testing.T) {
	m, th := newThread()
	// Three cells on three distinct lines, so every flush is issued rather
	// than line-coalesced (coalescing has its own tests in pmem).
	lines := pmem.AllocLines(3)
	a, b, c := &lines[0][0], &lines[1][0], &lines[2][0]
	p := NVTraverse{}
	p.TraverseRead(th, a) // free
	if s := stats(m, th); s.Flushes != 0 {
		t.Fatalf("traverse read flushed")
	}
	p.PostTraverse(th, []*pmem.Cell{a, b, c})
	s := stats(m, th)
	if s.Flushes != 3 || s.Fences != 0 || th.Unfenced() != 3 {
		t.Fatalf("PostTraverse: %+v, %d unfenced; want 3 flushes, no fence", s, th.Unfenced())
	}
	p.Read(th, a) // a's unchanged line is already pending: coalesces
	s = stats(m, th)
	if s.Flushes != 3 || s.FlushesElided != 1 {
		t.Fatalf("critical read of a destination line: %+v", s)
	}
	p.BeforeCAS(th) // the first protocol fence covers PostTraverse's flushes
	if s := stats(m, th); s.Fences != 1 || th.Unfenced() != 0 {
		t.Fatalf("first BeforeCAS: %+v, %d unfenced", s, th.Unfenced())
	}
	th.Store(b, 1)
	p.Wrote(th, b) // flush, no fence
	s = stats(m, th)
	if s.Flushes != 4 || s.Fences != 1 {
		t.Fatalf("critical write: %+v", s)
	}
	p.BeforeReturn(th)
	if s := stats(m, th); s.Fences != 2 {
		t.Fatalf("fences: %+v", s)
	}

	// An in-place update: PostTraverse over the parent link and the
	// destination, the value read (its line is the destination's, already
	// pending), the value CAS with no fence before it, its flush, and the
	// commit fence — 3 flushes and 1 fence.
	m, th = newThread()
	lines = pmem.AllocLines(2)
	parent, dest, val := &lines[0][0], &lines[1][0], &lines[1][1]
	p.PostTraverse(th, []*pmem.Cell{parent, dest})
	p.ReadData(th, val)
	if !th.CAS(val, 0, 7) {
		t.Fatalf("value CAS failed")
	}
	p.WroteData(th, val)
	p.BeforeReturn(th)
	if s := stats(m, th); s.Flushes != 3 || s.FlushesElided != 1 || s.Fences != 1 || th.Unfenced() != 0 {
		t.Fatalf("in-place update: %+v, %d unfenced; want 3 flushes, 1 elided, 1 fence", s, th.Unfenced())
	}
}

// TestNVTraversePostTraverseFencedByNext: in tracked mode, with eviction 0,
// the traversal destination's flushes persist nothing until the critical
// method's first protocol fence, and then persist all of it — whether that
// fence is BeforeCAS or BeforeReturn.
func TestNVTraversePostTraverseFencedByNext(t *testing.T) {
	for _, fence := range []struct {
		name string
		hook func(Policy, *pmem.Thread)
	}{
		{"BeforeCAS", Policy.BeforeCAS},
		{"BeforeReturn", Policy.BeforeReturn},
	} {
		for _, fenced := range []bool{false, true} {
			m := pmem.NewTracked()
			th := m.NewThread()
			lines := pmem.AllocLines(2)
			a, b := &lines[0][0], &lines[1][0]
			m.PersistAll()
			th.Store(a, pmem.MakeRef(1))
			th.Store(b, pmem.MakeRef(2))
			var p Policy = NVTraverse{}
			p.PostTraverse(th, []*pmem.Cell{a, b})
			if fenced {
				fence.hook(p, th)
			}
			m.Crash()
			m.FinishCrash(0, 1)
			m.Restart()
			kept := th.Load(a) == pmem.MakeRef(1) && th.Load(b) == pmem.MakeRef(2)
			if kept != fenced {
				t.Errorf("%s fenced=%v: destination survived=%v", fence.name, fenced, kept)
			}
		}
	}
}

func TestLinkAndPersistTagging(t *testing.T) {
	m, th := newThread()
	var c pmem.Cell
	th.Store(&c, pmem.MakeRef(9))
	p := LinkAndPersist{}

	p.Read(th, &c)
	if th.Load(&c)&pmem.PersistBit == 0 {
		t.Fatalf("flush did not tag the cell")
	}
	s := stats(m, th)
	if s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("first flush: %+v", s)
	}

	// Tagged: all subsequent flushes of this word are free.
	p.Read(th, &c)
	p.Wrote(th, &c)
	p.PostTraverse(th, []*pmem.Cell{&c})
	s = stats(m, th)
	if s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("tagged flushes not elided: %+v", s)
	}

	// A store clears the tag (new values are dirty by construction).
	th.Store(&c, pmem.Dirty(pmem.MakeRef(10)))
	p.Read(th, &c)
	if s := stats(m, th); s.Flushes != 2 {
		t.Fatalf("flush after store elided: %+v", s)
	}
}

func TestLinkAndPersistFenceElision(t *testing.T) {
	m, th := newThread()
	p := LinkAndPersist{}
	p.BeforeCAS(th)
	p.BeforeReturn(th)
	if s := stats(m, th); s.Fences != 0 {
		t.Fatalf("fences with nothing unfenced: %+v", s)
	}
	var c pmem.Cell
	th.Flush(&c) // raw unfenced flush
	p.BeforeCAS(th)
	if s := stats(m, th); s.Fences != 1 {
		t.Fatalf("fence with pending flush elided: %+v", s)
	}
}

func TestLinkAndPersistTagIsDurabilitySafe(t *testing.T) {
	// The tag may only appear on values that are genuinely persistent:
	// crash immediately after flushTagged and check the value survived.
	m := pmem.NewTracked()
	th := m.NewThread()
	var c pmem.Cell
	th.Store(&c, pmem.MakeRef(5))
	m.PersistAll()
	th.Store(&c, pmem.MakeRef(6))
	LinkAndPersist{}.Read(th, &c)
	if th.Load(&c)&pmem.PersistBit == 0 {
		t.Fatalf("cell not tagged")
	}
	m.Crash()
	m.FinishCrash(0, 1)
	m.Restart()
	if got := pmem.ClearTags(th.Load(&c)); got != pmem.MakeRef(6) {
		t.Fatalf("tagged value lost in crash: %x", got)
	}
}

func TestAllOrder(t *testing.T) {
	names := []string{"none", "nvtraverse", "izraelevitz", "logfree"}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() = %d policies", len(all))
	}
	for i, p := range all {
		if p.Name() != names[i] {
			t.Fatalf("All()[%d] = %s, want %s", i, p.Name(), names[i])
		}
	}
}
