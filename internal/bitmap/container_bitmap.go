package bitmap

import "math/bits"

// bitmapWords is the number of 64-bit words in a bitmap container
// (64 Ki values / 64 bits per word).
const bitmapWords = 1024

// bitmapContainer stores a chunk as a 64-kilobit bitset with a cached
// cardinality. It is the representation of choice for dense chunks
// (> arrayMaxSize values).
type bitmapContainer struct {
	words [bitmapWords]uint64
	card  int
}

var _ container = (*bitmapContainer)(nil)

func newBitmapContainer() *bitmapContainer { return &bitmapContainer{} }

func (b *bitmapContainer) set(v uint16) {
	w, bit := v>>6, uint64(1)<<(v&63)
	if b.words[w]&bit == 0 {
		b.words[w] |= bit
		b.card++
	}
}

func (b *bitmapContainer) unset(v uint16) {
	w, bit := v>>6, uint64(1)<<(v&63)
	if b.words[w]&bit != 0 {
		b.words[w] &^= bit
		b.card--
	}
}

func (b *bitmapContainer) contains(v uint16) bool {
	return b.words[v>>6]&(uint64(1)<<(v&63)) != 0
}

func (b *bitmapContainer) cardinality() int { return b.card }

func (b *bitmapContainer) add(v uint16) container {
	b.set(v)
	return b
}

func (b *bitmapContainer) remove(v uint16) container {
	b.unset(v)
	if b.card <= arrayMaxSize {
		a := &arrayContainer{values: make([]uint16, 0, b.card)}
		b.iterate(func(v uint16) bool {
			a.values = append(a.values, v)
			return true
		})
		return a
	}
	return b
}

func (b *bitmapContainer) iterate(f func(uint16) bool) bool {
	for w, word := range b.words {
		for word != 0 {
			t := bits.TrailingZeros64(word)
			if !f(uint16(w<<6 + t)) {
				return false
			}
			word &= word - 1
		}
	}
	return true
}

//geodabs:noalloc
func (b *bitmapContainer) countInto(base uint32, counts *[1 << 16]uint16, cands []uint32) []uint32 {
	n := len(cands)
	cands = growCands(cands, b.card)
	next := cands[n : n+b.card]
	k := 0
	for w, word := range b.words {
		for word != 0 {
			v := uint16(w<<6 + bits.TrailingZeros64(word))
			c := counts[v]
			next[k] = base | uint32(v)
			k += firstTouch(c)
			counts[v] = c + 1
			word &= word - 1
		}
	}
	return cands[:n+k]
}
