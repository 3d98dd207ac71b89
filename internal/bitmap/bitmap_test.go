package bitmap

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

func TestAddContainsRemove(t *testing.T) {
	b := New()
	if !b.IsEmpty() {
		t.Fatal("new bitmap should be empty")
	}
	values := []uint32{0, 1, 65535, 65536, 1 << 20, 0xffffffff, 42}
	for _, v := range values {
		b.Add(v)
	}
	b.Add(42) // duplicate
	if got := b.Cardinality(); got != len(values) {
		t.Fatalf("Cardinality = %d, want %d", got, len(values))
	}
	for _, v := range values {
		if !b.Contains(v) {
			t.Errorf("missing %d", v)
		}
	}
	for _, v := range []uint32{2, 65537, 1<<20 + 1} {
		if b.Contains(v) {
			t.Errorf("unexpected %d", v)
		}
	}
	b.Remove(65536)
	b.Remove(65536) // double remove is a no-op
	if b.Contains(65536) {
		t.Error("65536 should be gone")
	}
	if got := b.Cardinality(); got != len(values)-1 {
		t.Errorf("Cardinality after remove = %d", got)
	}
	b.Clear()
	if !b.IsEmpty() || b.Cardinality() != 0 {
		t.Error("Clear should empty the bitmap")
	}
}

func TestToSliceSorted(t *testing.T) {
	b := FromSlice([]uint32{5, 1, 99999, 3, 70000, 1})
	got := b.ToSlice()
	want := []uint32{1, 3, 5, 70000, 99999}
	if len(got) != len(want) {
		t.Fatalf("ToSlice = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ToSlice = %v, want %v", got, want)
		}
	}
}

func TestIterateEarlyStop(t *testing.T) {
	b := FromSlice([]uint32{1, 2, 3, 100000, 100001})
	var seen []uint32
	b.Iterate(func(v uint32) bool {
		seen = append(seen, v)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Errorf("early stop saw %v", seen)
	}
}

func TestArrayToBitmapConversion(t *testing.T) {
	b := New()
	// Fill one chunk beyond arrayMaxSize to force conversion.
	for i := 0; i <= arrayMaxSize; i++ {
		b.Add(uint32(i * 3)) // stride keeps everything in chunk 0 (≤ 49152)
	}
	if _, ok := b.containers[0].(*bitmapContainer); !ok {
		t.Fatalf("container should have converted to bitmap, is %T", b.containers[0])
	}
	if got := b.Cardinality(); got != arrayMaxSize+1 {
		t.Fatalf("Cardinality = %d", got)
	}
	for i := 0; i <= arrayMaxSize; i++ {
		if !b.Contains(uint32(i * 3)) {
			t.Fatalf("missing %d after conversion", i*3)
		}
	}
	// Removing below the threshold converts back to an array.
	for i := 0; i <= arrayMaxSize/2; i++ {
		b.Remove(uint32(i * 3))
	}
	if _, ok := b.containers[0].(*arrayContainer); !ok {
		t.Fatalf("container should have shrunk to array, is %T", b.containers[0])
	}
}

func TestChunkRemovalOnEmpty(t *testing.T) {
	b := FromSlice([]uint32{1, 70000})
	b.Remove(70000)
	if len(b.keys) != 1 {
		t.Fatalf("empty chunk should be dropped, have %d chunks", len(b.keys))
	}
	if !b.Contains(1) || b.Contains(70000) {
		t.Error("wrong contents after chunk removal")
	}
}

// refSet is the reference implementation the property tests compare
// against.
type refSet map[uint32]bool

func (r refSet) slice() []uint32 {
	out := make([]uint32, 0, len(r))
	for v := range r {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// randomSets builds a bitmap/reference pair with values drawn from a
// distribution that exercises both container kinds: a dense chunk that
// becomes a bitset, a mid-density chunk and sparse outliers.
func randomSets(rng *rand.Rand, n int) (*Bitmap, refSet) {
	b, ref := New(), refSet{}
	add := func(v uint32) {
		b.Add(v)
		ref[v] = true
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0: // dense run in chunk 0
			add(uint32(rng.Intn(9000)))
		case 1: // mid-density chunk 1
			add(65536 + uint32(rng.Intn(30000)))
		default: // sparse high values
			add(rng.Uint32())
		}
	}
	return b, ref
}

func TestPropertyOpsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 25; round++ {
		a, refA := randomSets(rng, 3000)
		b, refB := randomSets(rng, 3000)

		for _, c := range []struct {
			b   *Bitmap
			ref refSet
		}{{a, refA}, {b, refB}} {
			if got, want := c.b.ToSlice(), c.ref.slice(); !slices.Equal(got, want) {
				t.Fatalf("round %d: ToSlice has %d values, want %d", round, len(got), len(want))
			}
			if got := c.b.Cardinality(); got != len(c.ref) {
				t.Fatalf("round %d: Cardinality = %d, want %d", round, got, len(c.ref))
			}
		}
		for v := range refA {
			if b.Contains(v) != refB[v] {
				t.Fatalf("round %d: Contains(%d) = %v, want %v", round, v, b.Contains(v), refB[v])
			}
		}
	}
}

func TestPropertyAddRemoveMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b, ref := New(), refSet{}
	for i := 0; i < 30000; i++ {
		v := uint32(rng.Intn(200000))
		if rng.Intn(3) == 0 {
			b.Remove(v)
			delete(ref, v)
		} else {
			b.Add(v)
			ref[v] = true
		}
	}
	if b.Cardinality() != len(ref) {
		t.Fatalf("cardinality %d, want %d", b.Cardinality(), len(ref))
	}
	for _, v := range ref.slice() {
		if !b.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	got := b.ToSlice()
	want := ref.slice()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order mismatch at %d: %d vs %d", i, got[i], want[i])
		}
	}
}

func TestEquals(t *testing.T) {
	a := FromSlice([]uint32{1, 2, 70000})
	b := FromSlice([]uint32{1, 2, 70000})
	if !slices.Equal(a.ToSlice(), b.ToSlice()) {
		t.Error("equal bitmaps reported unequal")
	}
	b.Add(5)
	if slices.Equal(a.ToSlice(), b.ToSlice()) {
		t.Error("different bitmaps reported equal")
	}
	b.Remove(5)
	b.Remove(70000)
	b.Add(70001)
	if slices.Equal(a.ToSlice(), b.ToSlice()) {
		t.Error("bitmaps with same cardinality but different values reported equal")
	}
}

func TestBitmapEdgeValues(t *testing.T) {
	b := New()
	edges := []uint32{0, 63, 64, 65535, 65536, 0xfffffffe, 0xffffffff}
	for _, v := range edges {
		b.Add(v)
	}
	for _, v := range edges {
		if !b.Contains(v) {
			t.Errorf("missing edge value %d", v)
		}
	}
	got := b.ToSlice()
	if len(got) != len(edges) {
		t.Fatalf("ToSlice length %d, want %d", len(got), len(edges))
	}
}

// sortedChunks returns strictly increasing values: for each given size, a
// chunk of that many distinct values under a fresh random key.
func sortedChunks(rng *rand.Rand, sizes ...int) []uint32 {
	var out []uint32
	key := uint32(rng.Intn(16))
	for _, n := range sizes {
		lows := rng.Perm(1 << 16)[:n]
		sort.Ints(lows)
		for _, low := range lows {
			out = append(out, key<<16|uint32(low))
		}
		key += 1 + uint32(rng.Intn(300))
	}
	return out
}

// TestFromSortedMatchesAdd pins FromSorted to the bitmap FromSlice builds
// from the same values in shuffled order: equal sets, the same container
// kind per chunk, identical serialized bytes, and array chunks at exact
// size.
func TestFromSortedMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := map[string][]int{
		"empty":           nil,
		"one value":       {1},
		"full array":      {arrayMaxSize},
		"first bitmap":    {arrayMaxSize + 1},
		"several chunks":  {1, arrayMaxSize, arrayMaxSize + 1, 3, 200},
		"bitmaps between": {arrayMaxSize + 1, 1, 9000, 1},
	}
	for name, sizes := range cases {
		values := sortedChunks(rng, sizes...)
		got := FromSorted(values)
		shuffled := slices.Clone(values)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		want := FromSlice(shuffled)
		if !slices.Equal(got.ToSlice(), want.ToSlice()) {
			t.Fatalf("%s: FromSorted has %d values, Add %d", name, got.Cardinality(), want.Cardinality())
		}
		var gotBytes, wantBytes bytes.Buffer
		if _, err := got.WriteTo(&gotBytes); err != nil {
			t.Fatal(err)
		}
		if _, err := want.WriteTo(&wantBytes); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
			t.Fatalf("%s: serialized bytes differ", name)
		}
		for i, c := range got.containers {
			if reflect.TypeOf(c) != reflect.TypeOf(want.containers[i]) {
				t.Fatalf("%s: chunk %d is %T, Add built %T", name, i, c, want.containers[i])
			}
			if a, ok := c.(*arrayContainer); ok && cap(a.values) != len(a.values) {
				t.Fatalf("%s: chunk %d holds %d values in capacity %d", name, i, len(a.values), cap(a.values))
			}
		}
	}
}

// TestFromSortedChunksGrowApart guards the shared allocations behind
// FromSorted's array chunks: growing or shrinking one chunk must not
// write into its neighbours.
func TestFromSortedChunksGrowApart(t *testing.T) {
	b := FromSorted([]uint32{1, 5, 1<<16 | 2, 1<<16 | 3, 2<<16 | 7})
	b.Add(9)
	b.Add(3)
	b.Remove(1<<16 | 2)
	b.Add(1<<16 | 4)
	want := []uint32{1, 3, 5, 9, 1<<16 | 3, 1<<16 | 4, 2<<16 | 7}
	if got := b.ToSlice(); !slices.Equal(got, want) {
		t.Fatalf("after growing and shrinking chunks: %v, want %v", got, want)
	}
}
