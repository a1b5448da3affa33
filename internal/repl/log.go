package repl

// shardLog is one shard's bounded replication log: the encoded batch
// frames of committed fence groups in sequence order, held in a fixed ring
// of max slots. Once the ring is full each append overwrites the oldest
// group, so an append costs the same at any retention window. A replica
// whose position fell off the front cannot tail any more and must
// full-resync — bounded memory is the deliberate trade; the snapshot path
// is the backstop. The caller (Primary) serializes access under its own
// mutex.
//
// Sequence numbers start at 1; position 0 means "nothing acknowledged".
// Group seq lives in slots[(seq-1) % max].
type shardLog struct {
	slots    []logSlot // grows to max during warm-up, then fixed
	nextSeq  uint64    // seq the next append receives
	cumBytes uint64    // effect bytes ever appended (monotone)
	max      int
}

// logSlot is one appended fence group. The frame is immutable after
// append, so feeders may write it outside the primary's mutex.
type logSlot struct {
	frame []byte // the group's whole frameBatch, header included
	// cum is the log's cumulative effect byte count through this group;
	// the difference of two groups' cum values is the stream bytes
	// between them, which is what per-replica lag-bytes accounting needs
	// without walking the log.
	cum uint64
}

func newShardLog(max int) *shardLog {
	if max <= 0 {
		max = 1024
	}
	return &shardLog{nextSeq: 1, max: max}
}

// head reports the latest appended sequence (0 when nothing ever was).
func (l *shardLog) head() uint64 { return l.nextSeq - 1 }

// first reports the oldest retained sequence (head()+1 while nothing is
// retained, so every probe of an empty log falls past its head).
func (l *shardLog) first() uint64 { return l.nextSeq - uint64(len(l.slots)) }

func (l *shardLog) slot(seq uint64) *logSlot { return &l.slots[(seq-1)%uint64(l.max)] }

// append adds one group's encoded batch frame (which must not be mutated
// afterwards) and returns its sequence, which the frame must carry.
func (l *shardLog) append(frame []byte) uint64 {
	seq := l.nextSeq
	l.nextSeq++
	l.cumBytes += effectBytes(frame)
	s := logSlot{frame: frame, cum: l.cumBytes}
	if len(l.slots) < l.max {
		l.slots = append(l.slots, s) // lands at index seq-1
	} else {
		*l.slot(seq) = s
	}
	return seq
}

// canTail reports whether the log still retains everything after position
// from (i.e. a replica acknowledged through from can resume without a
// snapshot).
func (l *shardLog) canTail(from uint64) bool {
	if from >= l.head() {
		return true // nothing to serve: trivially tailable
	}
	return l.first() <= from+1
}

// from appends to dst the frame of every retained group with seq > from,
// in order.
func (l *shardLog) from(from uint64, dst [][]byte) [][]byte {
	for seq := max(from+1, l.first()); seq <= l.head(); seq++ {
		dst = append(dst, l.slot(seq).frame)
	}
	return dst
}

// bytesBetween reports the effect bytes between positions a and b
// (a ≤ b), using the cumulative counters; positions older than the
// retained window count from the window's start.
func (l *shardLog) bytesBetween(a, b uint64) uint64 {
	return l.cumAt(b) - l.cumAt(a)
}

// cumAt reports the cumulative byte counter at position seq (clamped to
// the retained window).
func (l *shardLog) cumAt(seq uint64) uint64 {
	if seq >= l.head() {
		return l.cumBytes
	}
	if first := l.first(); seq < first {
		s := l.slot(first)
		return s.cum - effectBytes(s.frame)
	}
	return l.slot(seq).cum
}
