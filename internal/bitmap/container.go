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
	andCardinality(o container) int

	// iterate calls f for each value in ascending order until f returns
	// false; it reports whether iteration ran to completion.
	iterate(f func(uint16) bool) bool

	// countInto bumps counts[v] for every value v in the container. A value
	// whose count transitions 0→1 is appended (as base|v) to cands, whose
	// updated slice is returned — this is the term-at-a-time counting merge
	// primitive: accumulating a posting list into a per-query counter takes
	// one pass over the container with no per-value callback and no
	// intermediate bitmap.
	countInto(base uint32, counts []uint16, cands []uint32) []uint32

	// fillMany appends the container's values ≥ state (offset by base) to
	// buf until buf is full or the container is exhausted, returning the
	// new buf length, the resume state for the next call, and whether the
	// container is exhausted. It backs the bitmap's buffered many-at-a-time
	// iterator.
	fillMany(base uint32, state uint32, buf []uint32) (n int, next uint32, done bool)
}

// arrayMaxSize is the cardinality above which an array container is
// converted to a bitmap container (and below which a bitmap container is
// converted back). 4096 uint16s occupy 8 KiB, the size of a bitmap
// container, so this is the break-even point.
const arrayMaxSize = 4096
