package pmem

// Hooks for the external tests of this package (package pmem_test), which
// import structures built on pmem and so cannot live inside it.

// WALLine is one WAL entry in the coordinates the tests choose.
type WALLine struct {
	Space, Sub, Idx uint32
	Ver             uint64
	Mask            uint8
	Vals            [CellsPerLine]uint64
}

// EncodeWALRecord returns the framed record of lines, as a fence appends it.
func EncodeWALRecord(boot uint64, lines []WALLine) []byte {
	es := make([]walEntry, len(lines))
	for i, l := range lines {
		es[i] = walEntry{r: &region{tag: spaceTag(l.Space, l.Sub)}, idx: l.Idx, mask: l.Mask, ver: l.Ver, vals: l.Vals}
	}
	return appendRecordBytes(nil, boot, es)
}

// DecodeWALRecord decodes a framed record; ok is false unless the frame is
// intact. Vals hold what replay stores into each covered cell.
func DecodeWALRecord(frame []byte) (boot uint64, lines []WALLine, ok bool) {
	end, ok := frameIntact(frame, 0)
	if !ok || end != len(frame) {
		return 0, nil, false
	}
	boot, ls, _ := decodeRecord(nil, frame[walFrameHeader:])
	for _, l := range ls {
		lines = append(lines, WALLine{Space: uint32(l.tag >> 32), Sub: uint32(l.tag), Idx: l.idx, Ver: l.ver, Mask: l.mask, Vals: l.vals})
	}
	return boot, lines, true
}
