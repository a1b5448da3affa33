// Package persist implements the persistence transformations evaluated by
// the NVTraverse paper as pluggable policies. Every data structure in this
// repository is written once, in traversal form (findEntry → traverse →
// critical), and calls policy hooks at the protocol points; choosing a
// policy chooses the transformation:
//
//   - None:          the original, non-durable lock-free algorithm.
//   - Izraelevitz:   the general transformation of Izraelevitz et al.
//     (DISC'16): flush+fence around every shared access.
//   - NVTraverse:    the paper's transformation (Protocols 1 and 2): nothing
//     during the traversal, ensureReachable+makePersistent
//     flushes at its end, flush-after-access and fence-before-
//     write/return in the critical method.
//   - LinkAndPersist: the hand-tuned optimization of David et al. (ATC'18)
//     layered on the NVTraverse placement: link words carry
//     a "persisted" tag (pmem.PersistBit); flushing a tagged
//     word is skipped, an actual flush re-tags the word with
//     an extra CAS, and any modification implicitly clears
//     the tag. Fences with no pending flush are elided.
//
// Hook-to-protocol correspondence (NVTraverse, paper §4):
//
//	TraverseRead  — reads inside traverse: no persistence           (§4: "no persisting is done during the traverse method")
//	PostTraverse  — ensureReachable + makePersistent flushes        (Protocol 1; fenced by the next protocol fence)
//	Read          — "flush after every read of a shared variable"   (Protocol 2)
//	InitWrite     — flush after initializing a not-yet-published field
//	Wrote         — "flush after every write/CAS"                   (Protocol 2)
//	BeforeCAS     — "fence before every write/CAS on shared"        (Protocol 2; link writes only: a value CAS needs none)
//	BeforeReturn  — "fence before every return statement"           (Protocol 2)
//
// BeforeReturn issues its fence via pmem.Thread.CommitFence rather than
// Fence: the fence-before-return exists only to make an operation's effects
// durable before the operation is acknowledged, so when a caller batches
// several operations and acknowledges them together (store.Session batches),
// one fence at the end of the batch serves every operation in it. The
// ordering fence (BeforeCAS) is never deferred — it keeps each operation
// all-or-nothing across a crash.
//
// NVTraverse's PostTraverse issues no fence of its own: no critical method
// writes a published link before its first BeforeCAS (nvlint's writehook
// rule checks it), so that fence, or BeforeReturn's for an operation that
// writes no link, persists the destination before any link can depend on
// it (DESIGN.md, "Why PostTraverse issues no fence"). An in-place value
// CAS writes no link and takes no BeforeCAS: its commit fence persists the
// destination, the value line read and the new value together (DESIGN.md,
// "Why a value CAS needs no fence before it").
//
// Link-cell restriction: hooks other than InitWrite may only be passed cells
// holding pmem.Ref values (next pointers, child edges, update words), never
// raw user data — LinkAndPersist tags bit 62 of the cell value.
package persist

import "repro/internal/pmem"

// Policy is one persistence transformation. Implementations are stateless
// and safe for concurrent use.
type Policy interface {
	// Name identifies the policy in benchmark output.
	Name() string
	// Durable reports whether the policy provides durable linearizability.
	Durable() bool

	// TraverseRead is invoked after each shared read performed by the
	// traverse method.
	TraverseRead(t *pmem.Thread, c *pmem.Cell)
	// PostTraverse is invoked between traverse and critical with the
	// parent link of the first returned node followed by every field the
	// traversal read in the returned nodes (Protocol 1).
	PostTraverse(t *pmem.Thread, cells []*pmem.Cell)
	// Read is invoked after each shared read of a link word in the
	// critical method.
	Read(t *pmem.Thread, c *pmem.Cell)
	// ReadData is invoked after each shared read of a raw-data word
	// (user values) in the critical method. It must never tag the cell.
	ReadData(t *pmem.Thread, c *pmem.Cell)
	// InitWrite is invoked after initializing a field of a node that has
	// not yet been published to shared memory.
	InitWrite(t *pmem.Thread, c *pmem.Cell)
	// Wrote is invoked after each write or CAS on shared memory in the
	// critical method.
	Wrote(t *pmem.Thread, c *pmem.Cell)
	// WroteData is invoked after each write or CAS on a raw-data word (user
	// values) of an already-published node — the in-place value update of
	// the RMW operations. No BeforeCAS precedes such a write: it links
	// nothing, so the commit fence that follows persists it together with
	// what it was read from. It must never tag the cell: the word holds
	// user data, not a link. Policies that reason "published data was
	// persisted before publication" (LinkAndPersist's ReadData) cannot
	// apply that reasoning here, because this write happens after
	// publication; they must flush (and fence) so the new value is durable
	// before the operation's commit fence acknowledges it.
	WroteData(t *pmem.Thread, c *pmem.Cell)
	// BeforeCAS is invoked before each write or CAS of a link on shared
	// memory (not before a WroteData write).
	BeforeCAS(t *pmem.Thread)
	// BeforeReturn is invoked before the operation attempt returns or
	// restarts out of the critical method.
	BeforeReturn(t *pmem.Thread)
}

// None is the identity transformation: the original volatile algorithm.
type None struct{}

func (None) Name() string                            { return "none" }
func (None) Durable() bool                           { return false }
func (None) TraverseRead(*pmem.Thread, *pmem.Cell)   {}
func (None) PostTraverse(*pmem.Thread, []*pmem.Cell) {}
func (None) Read(*pmem.Thread, *pmem.Cell)           {}
func (None) ReadData(*pmem.Thread, *pmem.Cell)       {}
func (None) InitWrite(*pmem.Thread, *pmem.Cell)      {}
func (None) Wrote(*pmem.Thread, *pmem.Cell)          {}
func (None) WroteData(*pmem.Thread, *pmem.Cell)      {}
func (None) BeforeCAS(*pmem.Thread)                  {}
func (None) BeforeReturn(*pmem.Thread)               {}

// Izraelevitz is the general transformation: a flush and fence accompany
// every shared access, traversal included.
type Izraelevitz struct{}

func (Izraelevitz) Name() string  { return "izraelevitz" }
func (Izraelevitz) Durable() bool { return true }

func (Izraelevitz) TraverseRead(t *pmem.Thread, c *pmem.Cell) {
	t.Flush(c)
	t.Fence()
}

// PostTraverse is a no-op: every traversal read was already persisted.
func (Izraelevitz) PostTraverse(t *pmem.Thread, cells []*pmem.Cell) {}

func (Izraelevitz) Read(t *pmem.Thread, c *pmem.Cell) {
	t.Flush(c)
	t.Fence()
}

func (Izraelevitz) ReadData(t *pmem.Thread, c *pmem.Cell) {
	t.Flush(c)
	t.Fence()
}

func (Izraelevitz) InitWrite(t *pmem.Thread, c *pmem.Cell) {
	t.Flush(c)
	t.Fence()
}

func (Izraelevitz) Wrote(t *pmem.Thread, c *pmem.Cell) {
	t.Flush(c)
	t.Fence()
}

func (Izraelevitz) WroteData(t *pmem.Thread, c *pmem.Cell) {
	t.Flush(c)
	t.Fence()
}

func (Izraelevitz) BeforeCAS(t *pmem.Thread)    { t.Fence() }
func (Izraelevitz) BeforeReturn(t *pmem.Thread) { t.CommitFence() }

// NVTraverse is the paper's transformation.
type NVTraverse struct{}

func (NVTraverse) Name() string  { return "nvtraverse" }
func (NVTraverse) Durable() bool { return true }

// TraverseRead persists nothing: the destination matters, not the journey.
func (NVTraverse) TraverseRead(*pmem.Thread, *pmem.Cell) {}

// PostTraverse flushes the parent link and every field read in the returned
// nodes (ensureReachable + makePersistent) and leaves them unfenced: the
// critical method's first protocol fence — BeforeCAS before its first
// write, or BeforeReturn for a read-only operation — persists them, and
// critical-method flushes of the same unchanged lines coalesce into the
// pending captures.
func (NVTraverse) PostTraverse(t *pmem.Thread, cells []*pmem.Cell) {
	for _, c := range cells {
		t.Flush(c)
	}
}

func (NVTraverse) Read(t *pmem.Thread, c *pmem.Cell)      { t.Flush(c) }
func (NVTraverse) ReadData(t *pmem.Thread, c *pmem.Cell)  { t.Flush(c) }
func (NVTraverse) InitWrite(t *pmem.Thread, c *pmem.Cell) { t.Flush(c) }
func (NVTraverse) Wrote(t *pmem.Thread, c *pmem.Cell)     { t.Flush(c) }
func (NVTraverse) WroteData(t *pmem.Thread, c *pmem.Cell) { t.Flush(c) }
func (NVTraverse) BeforeCAS(t *pmem.Thread)               { t.Fence() }
func (NVTraverse) BeforeReturn(t *pmem.Thread)            { t.CommitFence() }

// LinkAndPersist models David et al.'s hand-tuned structures: NVTraverse
// flush placement, but a flush of a link word whose persisted tag is set is
// skipped, and a performed flush re-tags the word with an extra CAS. Fences
// are elided when the thread has no unfenced flush.
type LinkAndPersist struct{}

func (LinkAndPersist) Name() string  { return "logfree" }
func (LinkAndPersist) Durable() bool { return true }

// flushTagged flushes and fences c unless its current value already carries
// the persisted tag; after the fence it attempts to set the tag so later
// readers skip both flush and fence. The tag may only be set after the
// fence: a tag on an unfenced value would let a concurrent reader return
// with the value unpersisted. The tag CAS may fail (the word changed
// concurrently); that only means the next reader flushes again, which is
// safe.
func flushTagged(t *pmem.Thread, c *pmem.Cell) {
	v := t.Load(c)
	if v&pmem.PersistBit != 0 {
		return
	}
	t.Flush(c)
	t.Fence()
	t.CAS(c, v, v|pmem.PersistBit)
}

func (LinkAndPersist) TraverseRead(*pmem.Thread, *pmem.Cell) {}

func (LinkAndPersist) PostTraverse(t *pmem.Thread, cells []*pmem.Cell) {
	for _, c := range cells {
		flushTagged(t, c)
	}
	if t.Unfenced() > 0 {
		t.Fence()
	}
}

func (LinkAndPersist) Read(t *pmem.Thread, c *pmem.Cell) { flushTagged(t, c) }

// ReadData is a no-op: the hand-tuned structures reason that a data word
// published behind a link CAS was flushed and fenced before publication
// (InitWrite + the pre-CAS fence), so reading it never requires a flush.
// This is precisely the kind of expert reasoning the automatic NVTraverse
// transformation cannot perform (paper §4.3, last paragraph).
func (LinkAndPersist) ReadData(t *pmem.Thread, c *pmem.Cell) {}

// InitWrite always flushes: unpublished fields may hold raw data, which must
// not be tagged.
func (LinkAndPersist) InitWrite(t *pmem.Thread, c *pmem.Cell) { t.Flush(c) }

func (LinkAndPersist) Wrote(t *pmem.Thread, c *pmem.Cell) { flushTagged(t, c) }

// WroteData flushes and fences immediately, without tagging: an in-place
// value write invalidates the "persisted before publication" reasoning
// behind ReadData's no-op, and the untagged word gives later readers no way
// to tell. The eager fence narrows (but cannot close — see DESIGN.md) the
// window in which a concurrent ReadData returns the not-yet-persistent
// value; the automatic transformations have no such window.
func (LinkAndPersist) WroteData(t *pmem.Thread, c *pmem.Cell) {
	t.Flush(c)
	t.Fence()
}

func (LinkAndPersist) BeforeCAS(t *pmem.Thread) {
	if t.Unfenced() > 0 {
		t.Fence()
	}
}

func (LinkAndPersist) BeforeReturn(t *pmem.Thread) {
	if t.Unfenced() > 0 {
		t.CommitFence()
		return
	}
	// Nothing of ours is unfenced, but the values this operation depends on
	// may have been fenced by *another* thread whose WAL record is still in
	// the shared userspace buffer (a tagged link means "some fence covered
	// this", not "the file has it"). The operation is about to be
	// acknowledged, so push the buffer to the OS. Free without a file
	// backend, and deferred to EndBatch inside a batch.
	if !t.InBatch() {
		t.DurableSync()
	}
}

// ByName returns the policy with the given benchmark name.
func ByName(name string) (Policy, bool) {
	switch name {
	case "none":
		return None{}, true
	case "izraelevitz", "izra":
		return Izraelevitz{}, true
	case "nvtraverse", "traverse":
		return NVTraverse{}, true
	case "logfree", "linkandpersist", "lap":
		return LinkAndPersist{}, true
	}
	return nil, false
}

// All returns every policy, in the order the paper's figures list them.
func All() []Policy {
	return []Policy{None{}, NVTraverse{}, Izraelevitz{}, LinkAndPersist{}}
}
