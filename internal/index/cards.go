package index

import (
	"math"
	"math/bits"
)

// CardTable maps a document ID to its fingerprint cardinality |G|: the
// lookup the ranking walk makes for every candidate it visits, in the
// local engine and on a cluster node that ranks a one-node plan. It is an
// open-addressing table over one slice — each slot packs id<<32 | card,
// hashed by multiplication, with linear probing and backward-shift
// deletion — so a lookup reads one or two adjacent words and hashes
// nothing but a multiply, where a Go map probe costs several times that.
// Memory follows the document count whatever the IDs: slots stay at
// most three quarters full and double when they would not. A card must
// be below math.MaxUint32 (a fingerprint set of 2³²−1 terms), since an
// all-ones slot marks an empty one. The zero value is an empty table. A
// CardTable does no locking: its owner's lock guards it.
type CardTable struct {
	slots []uint64 // len a power of two, or 0
	// shift turns the multiplicative hash's 64 bits into a slot index:
	// 64 − log2(len(slots)).
	shift uint8
	n     int
}

// cardEmpty marks a free slot: ID math.MaxUint32 with a card no
// document has.
const cardEmpty = math.MaxUint64

// home returns the slot an ID hashes to.
func (t *CardTable) home(id uint32) int {
	return int(uint64(id) * 0x9e3779b97f4a7c15 >> t.shift)
}

// Get returns the cardinality of id and whether it is present.
//
//geodabs:noalloc
func (t *CardTable) Get(id uint32) (int, bool) {
	if t.n == 0 {
		return 0, false
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == cardEmpty {
			return 0, false
		}
		if uint32(s>>32) == id {
			return int(uint32(s)), true
		}
	}
}

// Set records card as the cardinality of id, replacing any earlier one.
func (t *CardTable) Set(id uint32, card int) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == cardEmpty {
			t.n++
		} else if uint32(s>>32) != id {
			continue
		}
		t.slots[i] = uint64(id)<<32 | uint64(uint32(card))
		return
	}
}

// Delete removes id, reporting whether it was present. The entries after
// it in its probe cluster shift back over the gap — each to the first
// free slot at or after its home — so no tombstone is left for later
// lookups to step over.
func (t *CardTable) Delete(id uint32) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.slots) - 1
	i := t.home(id)
	for ; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == cardEmpty {
			return false
		}
		if uint32(s>>32) == id {
			break
		}
	}
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		s := t.slots[j]
		if s == cardEmpty {
			break
		}
		// The entry at j may fill the gap at i only if its home is not in
		// the cyclic range (i, j]: otherwise it would move before its home.
		if h := t.home(uint32(s >> 32)); (j-h)&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = cardEmpty
	t.n--
	return true
}

// grow doubles the slots (to 8 from empty) and reinserts every entry.
func (t *CardTable) grow() {
	old := t.slots
	size := max(8, 2*len(old))
	t.slots = make([]uint64, size)
	for i := range t.slots {
		t.slots[i] = cardEmpty
	}
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s == cardEmpty {
			continue
		}
		i := t.home(uint32(s >> 32))
		for t.slots[i] != cardEmpty {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}
