package bitmap

import "sort"

// arrayContainer stores values as a sorted slice of uint16. It is the
// representation of choice for sparse chunks (≤ arrayMaxSize values).
type arrayContainer struct {
	values []uint16
}

var _ container = (*arrayContainer)(nil)

// search returns the position of v in the slice and whether it is present.
func (a *arrayContainer) search(v uint16) (int, bool) {
	i := sort.Search(len(a.values), func(i int) bool { return a.values[i] >= v })
	return i, i < len(a.values) && a.values[i] == v
}

func (a *arrayContainer) contains(v uint16) bool {
	_, ok := a.search(v)
	return ok
}

func (a *arrayContainer) cardinality() int { return len(a.values) }

func (a *arrayContainer) add(v uint16) container {
	i, ok := a.search(v)
	if ok {
		return a
	}
	if len(a.values) >= arrayMaxSize {
		b := newBitmapContainer()
		for _, w := range a.values {
			b.set(w)
		}
		b.set(v)
		return b
	}
	a.values = append(a.values, 0)
	copy(a.values[i+1:], a.values[i:])
	a.values[i] = v
	return a
}

func (a *arrayContainer) remove(v uint16) container {
	if i, ok := a.search(v); ok {
		a.values = append(a.values[:i], a.values[i+1:]...)
	}
	return a
}

func (a *arrayContainer) iterate(f func(uint16) bool) bool {
	for _, v := range a.values {
		if !f(v) {
			return false
		}
	}
	return true
}

//geodabs:noalloc
func (a *arrayContainer) countInto(base uint32, counts *[1 << 16]uint16, cands []uint32) []uint32 {
	n := len(cands)
	cands = growCands(cands, len(a.values))
	next := cands[n : n+len(a.values)]
	k := 0
	for _, v := range a.values {
		c := counts[v]
		next[k] = base | uint32(v)
		k += firstTouch(c)
		counts[v] = c + 1
	}
	return cands[:n+k]
}
