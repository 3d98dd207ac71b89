package bitmap

// container is a set of uint16 values, one per high-16-bit key of the
// bitmap. There are two kinds, converted into one another as their
// cardinality crosses arrayMaxSize, mirroring Lemire et al.'s roaring
// bitmaps: sorted arrays for sparse chunks and 64-kilobit bitsets for
// dense ones.
//
// Mutating methods return the container to use afterwards, which may be a
// converted copy of the receiver.
type container interface {
	add(v uint16) container
	remove(v uint16) container
	contains(v uint16) bool
	cardinality() int

	// iterate calls f for each value in ascending order until f returns
	// false; it reports whether iteration ran to completion.
	iterate(f func(uint16) bool) bool

	// countInto bumps counts[v] for every value v in the container. A value
	// whose count transitions 0→1 is appended (as base|v) to cands, whose
	// updated slice is returned — this is the term-at-a-time counting merge
	// primitive: accumulating a posting list into a per-query counter takes
	// one pass over the container with no per-value callback and no
	// intermediate bitmap. The first touch is recorded without a branch:
	// cands grows once by the container's cardinality, every value is
	// written to the next free slot, and the slot is kept — the length
	// advances — only when the count it read was 0.
	countInto(base uint32, counts *[1 << 16]uint16, cands []uint32) []uint32
}

// arrayMaxSize is the cardinality above which an array container is
// converted to a bitmap container (and below which a bitmap container is
// converted back). 4096 uint16s occupy 8 KiB, the size of a bitmap
// container, so this is the break-even point.
const arrayMaxSize = 4096

// firstTouch is 1 when a count read before its bump is 0 and 0 for any
// other 16-bit count, computed without a branch: only 0 − 1 wraps to
// set the high bit.
func firstTouch(count uint16) int { return int((uint32(count) - 1) >> 31) }

// growCands returns cands with room for n more values past its length.
// It grows the way appending one value at a time would, amortised, and
// the counter's candidate list is reused across Reset, so a steady-state
// search never grows it.
func growCands(cands []uint32, n int) []uint32 {
	for cap(cands)-len(cands) < n {
		cands = append(cands[:cap(cands)], 0)[:len(cands)]
	}
	return cands
}
