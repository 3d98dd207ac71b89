package bitmap

import "math"

// Counter accumulates per-value occurrence counts across a stream of
// bitmaps — the term-at-a-time counting merge at the heart of ranked
// retrieval: feeding every posting list of a query's terms through Add
// leaves, for each candidate trajectory, the shared-term count |F ∩ G|,
// with no candidate-union bitmap and no per-candidate intersection.
//
// Counts are chunked like the bitmaps themselves: a 65536-entry uint16
// count array per high-16-bit chunk, allocated lazily on first touch and
// recycled across Reset calls, plus a direct-index chunk table so the
// per-container accumulation path has no map lookups. Values seen for the
// first time are recorded in a candidate list, so enumerating the result
// costs O(|candidates|), not a scan of the count arrays.
//
// Counts are exact for any number of Adds and any AddN amount. The array
// entries are 16 bits wide, and that width is this type's secret: Add
// counts down the Adds that cannot wrap an entry, and when none are left
// spill moves every count above half range into a side table, leaving 1
// behind as the first-touch marker. The side table stays empty — and
// unallocated — unless some value really is counted past 32767, which no
// ranked retrieval does (a shared count is bounded by the query's term
// count).
//
// Drain reads the result out: one pass over the candidates, in
// first-touch order, appending each count and zeroing its entry, which
// leaves Reset nothing to zero, and histogramming the counts by level for
// the ranking walk in the same pass. It ends the accumulation — Candidates
// stays valid, parallel to the drained counts, but the counter must be
// Reset before the next Add or AddN. A Counter is not safe for
// concurrent use. The zero value is not usable; construct with
// NewCounter and reuse via Reset — a steady-state Add/Drain/Reset cycle
// performs no allocations.
type Counter struct {
	slot   []int32 // 65536 entries: chunk key → index into chunks, -1 absent
	keys   []uint16
	chunks []*chunk // parallel to keys
	free   []*chunk // zeroed chunk arrays recycled by Reset
	cands  []uint32 // values with count ≥ 1, in first-touch order
	// room is how many more Adds no array entry can wrap under: every
	// entry is at most MaxUint16 − room.
	room int
	// wide holds what spilled out of the arrays: a value's count is its
	// array entry plus wide[v]. Nil until the first spill.
	wide map[uint32]int
	// drained records that Drain has zeroed every entry since the last
	// Reset.
	drained bool
	// lanes is Drain's histogram scratch: histLanes interleaved
	// sub-histograms, lane j of level n at lanes[n*histLanes+j].
	lanes []int32
}

// chunk holds the counts of one high-16-bit chunk, indexed by the low 16
// bits: an array pointer, so indexing it by a uint16 needs no bounds
// check.
type chunk = [1 << 16]uint16

const (
	// spillAbove is the largest array entry a spill (or AddN) leaves
	// behind: half the 16-bit range, so the room restored is the other
	// half.
	spillAbove = math.MaxUint16 / 2
	// counterRoom is the Adds an entry at spillAbove can absorb unwrapped.
	counterRoom = math.MaxUint16 - spillAbove
)

// NewCounter returns an empty counter ready for Add.
func NewCounter() *Counter {
	c := &Counter{slot: make([]int32, 1<<16), room: counterRoom}
	for i := range c.slot {
		c.slot[i] = -1
	}
	return c
}

// chunkFor returns the count array of the chunk with the given key,
// creating it on first touch.
//
//geodabs:noalloc
func (c *Counter) chunkFor(key uint16) *chunk {
	if i := c.slot[key]; i >= 0 {
		return c.chunks[i]
	}
	var counts *chunk
	if n := len(c.free); n > 0 {
		counts = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		counts = new(chunk) //geodabs:vet-ignore first-touch chunk allocation, recycled across Reset via the free list
	}
	c.slot[key] = int32(len(c.chunks))
	c.keys = append(c.keys, key)
	c.chunks = append(c.chunks, counts)
	return counts
}

// Add bumps the count of every value in b by one.
//
//geodabs:noalloc
func (c *Counter) Add(b *Bitmap) {
	if c.room == 0 {
		c.spill() //geodabs:vet-ignore first-spill allocation (spill inlines here): the side table, made once when a value is first counted past spillAbove and kept across Reset
	}
	c.room--
	for i, key := range b.keys {
		c.cands = b.containers[i].countInto(uint32(key)<<16, c.chunkFor(key), c.cands)
	}
}

// spill restores counterRoom Adds of headroom: every array entry above
// spillAbove moves to the side table, all but the 1 that keeps marking
// the value as touched. One pass over the candidates per counterRoom
// Adds; values counted at most spillAbove times are left alone.
func (c *Counter) spill() {
	for _, v := range c.cands {
		counts := c.chunks[c.slot[uint16(v>>16)]]
		if n := counts[uint16(v)]; n > spillAbove {
			c.widen(v, int(n)-1)
			counts[uint16(v)] = 1
		}
	}
	c.room = counterRoom
}

// widen adds n to v's side-table share.
func (c *Counter) widen(v uint32, n int) {
	if c.wide == nil {
		c.wide = make(map[uint32]int)
	}
	c.wide[v] += n
}

// AddN bumps the count of a single value by n (no-op for n ≤ 0), exactly
// for any n. The cluster coordinator uses it to sum the partial counts
// returned by shard nodes, whose term spaces are disjoint.
func (c *Counter) AddN(v uint32, n int) {
	if n <= 0 {
		return
	}
	counts := c.chunkFor(uint16(v >> 16))
	if counts[uint16(v)] == 0 {
		c.cands = append(c.cands, v)
	}
	// An entry AddN writes stays at or below spillAbove, which is what
	// room promises of every entry whatever Adds came before.
	if sum := int(counts[uint16(v)]) + n; sum <= spillAbove {
		counts[uint16(v)] = uint16(sum)
	} else {
		c.widen(v, sum-1)
		counts[uint16(v)] = 1
	}
}

// Candidates returns the values counted at least once, in first-touch
// order. The slice is owned by the counter and valid until Reset.
func (c *Counter) Candidates() []uint32 { return c.cands }

// histLanes is how many sub-histograms Drain spreads its levels over:
// consecutive candidates bump different lanes, so a run of equal counts
// — most candidates of a search share one or two fingerprints — is not
// one chain of increments each waiting on the last.
const histLanes = 4

// Drain appends the count of every candidate to dst, in the order
// Candidates lists them, and zeroes the counter's entries as it goes —
// the one pass that reads an accumulation out. Counts are exact, the
// spilled side-table share included, and saturate at math.MaxUint32.
// Afterwards Candidates is unchanged and every count reads 0; the counter
// takes no more Adds until Reset, which then has no entries left to zero.
//
// The same pass histograms the counts: levels[n] grows by the number of
// candidates counted n times, for every n below len(levels), and above
// reports whether some candidate was counted len(levels) times or more
// (those are in no level). With an empty levels nothing is histogrammed
// and above is false.
//
//geodabs:noalloc
func (c *Counter) Drain(dst []uint32, levels []int32) (out []uint32, above bool) {
	start := len(dst)
	if cap(dst)-start < len(c.cands) {
		dst = append(dst, c.cands...) // grows dst in one allocation
	}
	dst = dst[:start+len(c.cands)]
	out = dst[start:]
	// Level len(levels) collects every count at or above it, clamped in
	// without a branch.
	top := uint32(len(levels))
	for len(c.lanes) < histLanes*(len(levels)+1) {
		c.lanes = append(c.lanes, 0)
	}
	lanes := c.lanes[:histLanes*(len(levels)+1)]
	if len(c.chunks) == 1 && len(c.wide) == 0 {
		// One chunk and nothing spilled, the common shape of a search: the
		// low 16 bits of a candidate index its count directly.
		counts := c.chunks[0]
		for i, v := range c.cands {
			n := uint32(counts[uint16(v)])
			out[i] = n
			counts[uint16(v)] = 0
			lanes[min(n, top)*histLanes+uint32(i%histLanes)]++
		}
	} else {
		for i, v := range c.cands {
			counts := c.chunks[c.slot[uint16(v>>16)]]
			n := uint64(counts[uint16(v)])
			counts[uint16(v)] = 0
			if len(c.wide) != 0 {
				n += uint64(c.wide[v])
			}
			out[i] = uint32(min(n, math.MaxUint32))
			lanes[min(out[i], top)*histLanes+uint32(i%histLanes)]++
		}
		clear(c.wide)
	}
	for n := range levels {
		lane := lanes[n*histLanes : (n+1)*histLanes]
		levels[n] += lane[0] + lane[1] + lane[2] + lane[3]
	}
	over := lanes[len(levels)*histLanes:]
	above = len(levels) > 0 && over[0]|over[1]|over[2]|over[3] != 0
	clear(lanes)
	c.drained = true
	return dst, above
}

// Reset clears the counter for reuse, keeping the touched chunk arrays
// for recycling. After a Drain every entry is already zero and only the
// bookkeeping is reset. Otherwise sparse accumulations (the common
// retrieval case) zero exactly the slots the candidate list names, and
// dense ones fall back to clearing whole chunks, which is cheaper past a
// few thousand touches.
func (c *Counter) Reset() {
	switch {
	case c.drained:
	case len(c.cands) < 4096*len(c.chunks):
		for _, v := range c.cands {
			c.chunks[c.slot[uint16(v>>16)]][uint16(v)] = 0
		}
	default:
		for i := range c.chunks {
			clear(c.chunks[i][:])
		}
	}
	for i, key := range c.keys {
		c.slot[key] = -1
		c.free = append(c.free, c.chunks[i])
		c.chunks[i] = nil
	}
	c.keys = c.keys[:0]
	c.chunks = c.chunks[:0]
	c.cands = c.cands[:0]
	clear(c.wide)
	c.room = counterRoom
	c.drained = false
}
