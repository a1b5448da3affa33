package pmem

// lineSet is the per-thread pending-flush line set: an open-addressed hash
// set keyed by line holding the write version (or, for a fast-mode line
// without one, the content mix) each line had when it was last captured.
// It answers the only question Flush asks — "is this line already
// pending, unchanged?" — in O(1), replacing the O(pending) linear scan over
// the flush slice that made Flush quadratic inside large Apply batches.
//
// Reset is a generation bump, not a clear: a slot belongs to the set iff its
// gen field equals the set's current generation, so Fence invalidates every
// entry by incrementing gen — O(1), no memory traffic over the table. Stale
// slots double as tombstone-free empties: a probe chain ends at the first
// slot whose gen is not current, which is exactly the open-addressing
// invariant because entries are only ever added within one generation (the
// table never deletes individual keys).
//
// The set is owned by a single Thread and is never accessed concurrently.
type lineSet struct {
	slots []lineSetSlot
	mask  uintptr
	gen   uint64
	n     int
}

type lineSetSlot struct {
	gen  uint64
	line uintptr
	ver  uint64
}

// lineSetMinSlots is the initial table size: large enough that typical
// operations (a handful of distinct lines between fences) never grow it,
// small enough to stay cache-resident.
const lineSetMinSlots = 64

// put records that line is pending at write version ver. It returns false —
// flush elided — iff the line is already pending at exactly that version;
// otherwise (absent, or pending at an older version) it inserts or updates
// the capture and returns true.
func (s *lineSet) put(line uintptr, ver uint64) bool {
	if s.slots == nil {
		s.slots = make([]lineSetSlot, lineSetMinSlots)
		s.mask = lineSetMinSlots - 1
		s.gen = 1
	}
	i := s.probe(line)
	for {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			*sl = lineSetSlot{gen: s.gen, line: line, ver: ver}
			s.n++
			if s.n*2 > len(s.slots) {
				s.grow()
			}
			return true
		}
		if sl.line == line {
			if sl.ver == ver {
				return false
			}
			sl.ver = ver
			return true
		}
		i = (i + 1) & s.mask
	}
}

// lineSetKeepSlots is the largest table a set keeps after the fence window
// that grew it is over. One window can hold thousands of distinct lines (a
// whole-range hash scan flushes every bucket head before its one fence),
// and a table grown to megabytes for it misses the cache on every later
// probe: after such a scan a 4-shard hash session's puts cost about half as
// much again at the zero profile. So the first fence whose window would
// have fit in this many slots drops the table, and the next put starts
// again at lineSetMinSlots.
const lineSetKeepSlots = 4096

// reset empties the set in O(1) by moving to the next generation, or by
// dropping a large table that the closed window did not need.
func (s *lineSet) reset() {
	if len(s.slots) > lineSetKeepSlots && 2*s.n <= lineSetKeepSlots {
		*s = lineSet{}
		return
	}
	s.gen++
	s.n = 0
}

// probe returns the starting probe index for a line key (Fibonacci hashing;
// line keys are shifted addresses, so low bits alone cluster badly).
func (s *lineSet) probe(line uintptr) uintptr {
	h := uint64(line) * 0x9e3779b97f4a7c15
	return uintptr(h>>32) & s.mask
}

// grow doubles the table and re-inserts the current generation's entries.
// Growth is rare (a thread must flush > slots/2 distinct lines inside one
// fence window) and amortizes to zero allocations at steady state.
func (s *lineSet) grow() {
	old := s.slots
	oldGen := s.gen
	s.slots = make([]lineSetSlot, 2*len(old))
	s.mask = uintptr(len(s.slots) - 1)
	s.gen = 1
	s.n = 0
	for i := range old {
		if old[i].gen != oldGen {
			continue
		}
		j := s.probe(old[i].line)
		for s.slots[j].gen == s.gen {
			j = (j + 1) & s.mask
		}
		s.slots[j] = lineSetSlot{gen: s.gen, line: old[i].line, ver: old[i].ver}
		s.n++
	}
}
