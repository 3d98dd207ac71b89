// Package bitmap implements roaring bitmaps (Lemire et al.,
// arXiv:1709.07821): compressed sets of uint32 values partitioned into
// 64 Ki-value chunks by their high 16 bits, with each chunk stored as a
// sorted array or a bitset depending on density.
//
// The index keeps each posting list — the IDs of the trajectories that
// hold one term — as a roaring bitmap (§IV-A). A fingerprint set, a few
// dozen terms that are only ever walked in order, is a sorted []uint32
// instead; the one place a set still becomes a bitmap is the index
// snapshot, whose per-document format is this package's serialization
// (FromSorted builds it).
//
// Beyond building and membership, the package provides the primitive of
// the index's term-at-a-time counting merge: Counter accumulates
// per-value occurrence counts across a stream of posting lists in one
// container pass each (counter.go), so a ranked search touches each
// posting list exactly once and runs allocation-free in steady state.
package bitmap

import "sort"

// Bitmap is a compressed set of uint32 values. The zero value is an empty
// set ready for use. Bitmap is not safe for concurrent mutation; concurrent
// readers are safe once the bitmap is no longer being modified.
type Bitmap struct {
	keys       []uint16 // sorted high-16-bit chunk keys
	containers []container
}

// New returns an empty bitmap.
func New() *Bitmap { return &Bitmap{} }

// FromSlice returns a bitmap containing the given values.
func FromSlice(values []uint32) *Bitmap {
	b := New()
	for _, v := range values {
		b.Add(v)
	}
	return b
}

// FromSorted returns a bitmap containing values, which must be strictly
// increasing. It builds the containers Add would — an array container
// for a chunk of up to arrayMaxSize values, a bitmap container past it —
// sized up front: the array chunks and their values, each at exact size,
// come out of one allocation apiece.
func FromSorted(values []uint32) *Bitmap {
	chunks, arrays, lows := 0, 0, 0
	for i, j := 0, 0; i < len(values); i = j {
		j = chunkEnd(values, i)
		if chunks++; j-i <= arrayMaxSize {
			arrays, lows = arrays+1, lows+j-i
		}
	}
	b := &Bitmap{keys: make([]uint16, 0, chunks), containers: make([]container, 0, chunks)}
	ac, low := make([]arrayContainer, arrays), make([]uint16, lows)
	for i, j := 0, 0; i < len(values); i = j {
		j = chunkEnd(values, i)
		b.keys = append(b.keys, uint16(values[i]>>16))
		if j-i > arrayMaxSize {
			c := newBitmapContainer()
			for _, v := range values[i:j] {
				c.set(uint16(v))
			}
			b.containers = append(b.containers, c)
			continue
		}
		a := &ac[0]
		ac, a.values, low = ac[1:], low[:j-i:j-i], low[j-i:]
		for k, v := range values[i:j] {
			a.values[k] = uint16(v)
		}
		b.containers = append(b.containers, a)
	}
	return b
}

// chunkEnd returns the end of the run of sorted values from i that share
// values[i]'s chunk key.
func chunkEnd(values []uint32, i int) int {
	j := i + 1
	for j < len(values) && values[j]>>16 == values[i]>>16 {
		j++
	}
	return j
}

func highLow(v uint32) (uint16, uint16) { return uint16(v >> 16), uint16(v) }

// chunkIndex returns the position of key among the bitmap's chunks and
// whether it is present.
func (b *Bitmap) chunkIndex(key uint16) (int, bool) {
	i := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= key })
	return i, i < len(b.keys) && b.keys[i] == key
}

// Add inserts v into the set.
func (b *Bitmap) Add(v uint32) {
	key, low := highLow(v)
	i, ok := b.chunkIndex(key)
	if ok {
		b.containers[i] = b.containers[i].add(low)
		return
	}
	b.keys = append(b.keys, 0)
	copy(b.keys[i+1:], b.keys[i:])
	b.keys[i] = key
	b.containers = append(b.containers, nil)
	copy(b.containers[i+1:], b.containers[i:])
	b.containers[i] = &arrayContainer{values: []uint16{low}}
}

// Remove deletes v from the set if present.
func (b *Bitmap) Remove(v uint32) {
	key, low := highLow(v)
	i, ok := b.chunkIndex(key)
	if !ok {
		return
	}
	c := b.containers[i].remove(low)
	if c.cardinality() == 0 {
		b.keys = append(b.keys[:i], b.keys[i+1:]...)
		b.containers = append(b.containers[:i], b.containers[i+1:]...)
		return
	}
	b.containers[i] = c
}

// Contains reports whether v is in the set.
func (b *Bitmap) Contains(v uint32) bool {
	key, low := highLow(v)
	if i, ok := b.chunkIndex(key); ok {
		return b.containers[i].contains(low)
	}
	return false
}

// Cardinality returns the number of values in the set.
func (b *Bitmap) Cardinality() int {
	n := 0
	for _, c := range b.containers {
		n += c.cardinality()
	}
	return n
}

// IsEmpty reports whether the set has no values.
func (b *Bitmap) IsEmpty() bool { return len(b.keys) == 0 }

// Clear removes all values.
func (b *Bitmap) Clear() {
	b.keys = nil
	b.containers = nil
}

// Iterate calls f on each value in ascending order until f returns false.
func (b *Bitmap) Iterate(f func(uint32) bool) {
	for i, key := range b.keys {
		base := uint32(key) << 16
		if !b.containers[i].iterate(func(low uint16) bool {
			return f(base | uint32(low))
		}) {
			return
		}
	}
}

// ToSlice returns all values in ascending order, in a slice of their
// exact size.
func (b *Bitmap) ToSlice() []uint32 {
	out := make([]uint32, 0, b.Cardinality())
	b.Iterate(func(v uint32) bool {
		out = append(out, v)
		return true
	})
	return out
}

// SizeInBytes returns an estimate of the in-memory footprint of the bitmap
// payload, used by index statistics.
func (b *Bitmap) SizeInBytes() int {
	n := 2 * len(b.keys)
	for _, c := range b.containers {
		switch c := c.(type) {
		case *arrayContainer:
			n += 2 * len(c.values)
		case *bitmapContainer:
			n += 8 * bitmapWords
		}
	}
	return n
}
