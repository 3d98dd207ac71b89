package winnow

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// selectBrute is Algorithm 1 from the paper, transcribed literally: for
// every window, pick the right-most position holding the window minimum.
// Duplicate positions across windows collapse into a set.
func selectBrute(hashes []uint32, w int) []int {
	seen := map[int]bool{}
	var out []int
	for i := 0; i+w <= len(hashes); i++ {
		m := i
		for j := i + 1; j < i+w; j++ {
			if hashes[j] <= hashes[m] {
				m = j
			}
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Ints(out)
	return out
}

func TestSelectMatchesAlgorithm1(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		n := rng.Intn(60)
		w := 1 + rng.Intn(10)
		hashes := make([]uint32, n)
		for i := range hashes {
			// Small value range provokes ties, the tricky case.
			hashes[i] = uint32(rng.Intn(8))
		}
		got := SelectInto(nil, hashes, w)
		want := selectBrute(hashes, w)
		if len(got) != len(want) {
			t.Fatalf("n=%d w=%d: got %v, want %v (hashes %v)", n, w, got, want, hashes)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d w=%d: got %v, want %v (hashes %v)", n, w, got, want, hashes)
			}
		}
	}
}

func TestSelectWindowOne(t *testing.T) {
	hashes := []uint32{5, 3, 9}
	got := SelectInto(nil, hashes, 1)
	if len(got) != 3 {
		t.Fatalf("w=1 should select every position, got %v", got)
	}
}

func TestSelectShortSequence(t *testing.T) {
	if got := SelectInto(nil, []uint32{1, 2}, 4); got != nil {
		t.Errorf("short sequence should select nothing, got %v", got)
	}
	if got := SelectShortInto(nil, []uint32{7, 3, 3}, 4); len(got) != 1 || got[0] != 2 {
		t.Errorf("SelectShortInto should pick right-most minimum, got %v", got)
	}
	if got := SelectShortInto(nil, nil, 4); got != nil {
		t.Errorf("SelectShortInto(nil) = %v", got)
	}
	long := []uint32{5, 1, 5, 5}
	if got, want := SelectShortInto(nil, long, 2), SelectInto(nil, long, 2); !slices.Equal(got, want) {
		t.Errorf("SelectShortInto on long input should match SelectInto: %v vs %v", got, want)
	}
	// Both append after what dst already holds.
	if got := SelectShortInto([]int{-1}, []uint32{7, 3, 3}, 4); !slices.Equal(got, []int{-1, 2}) {
		t.Errorf("SelectShortInto into a non-empty dst = %v", got)
	}
	if got := SelectInto([]int{-1}, long, 2); !slices.Equal(got, []int{-1, 1, 3}) {
		t.Errorf("SelectInto into a non-empty dst = %v", got)
	}
}

func TestSelectPanicsOnBadWindow(t *testing.T) {
	for name, f := range map[string]func([]int, []uint32, int) []int{"Select": SelectInto, "SelectShort": SelectShortInto} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("want panic for w=0")
				}
			}()
			f(nil, []uint32{1}, 0)
		})
	}
}

// TestCoverageGuarantee checks the density property: every window of w
// consecutive hashes contains at least one selected position.
func TestCoverageGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for round := 0; round < 100; round++ {
		n := 20 + rng.Intn(200)
		w := 2 + rng.Intn(8)
		hashes := make([]uint32, n)
		for i := range hashes {
			hashes[i] = rng.Uint32()
		}
		selected := SelectInto(nil, hashes, w)
		isSel := map[int]bool{}
		for _, p := range selected {
			isSel[p] = true
		}
		for i := 0; i+w <= n; i++ {
			found := false
			for j := i; j < i+w; j++ {
				if isSel[j] {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("window [%d,%d) has no selected fingerprint", i, i+w)
			}
		}
	}
}

// TestMatchGuarantee checks the paper's t-guarantee: if two sequences share
// a common run of at least w hashes, they share at least one selected
// fingerprint value.
func TestMatchGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for round := 0; round < 200; round++ {
		w := 2 + rng.Intn(8)
		shared := make([]uint32, w+rng.Intn(5))
		for i := range shared {
			shared[i] = rng.Uint32()
		}
		a := append(randomHashes(rng, rng.Intn(30)), shared...)
		a = append(a, randomHashes(rng, rng.Intn(30))...)
		b := append(randomHashes(rng, rng.Intn(30)), shared...)
		b = append(b, randomHashes(rng, rng.Intn(30))...)

		selA := valueSet(a, SelectInto(nil, a, w))
		common := false
		for _, p := range SelectInto(nil, b, w) {
			if selA[b[p]] {
				common = true
				break
			}
		}
		if !common {
			t.Fatalf("no common fingerprint despite a shared run of %d ≥ w=%d", len(shared), w)
		}
	}
}

// TestPositionsStrictlyIncreasing checks the invariant the fingerprinter
// relies on to map geodabs back to k-gram positions.
func TestPositionsStrictlyIncreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 100; round++ {
		hashes := randomHashes(rng, rng.Intn(300))
		w := 1 + rng.Intn(12)
		prev := -1
		for _, p := range SelectInto(nil, hashes, w) {
			if p <= prev {
				t.Fatalf("positions not strictly increasing: %d after %d", p, prev)
			}
			if p < 0 || p >= len(hashes) {
				t.Fatalf("position %d out of range", p)
			}
			prev = p
		}
	}
}

func randomHashes(rng *rand.Rand, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = rng.Uint32()
	}
	return out
}

func valueSet(hashes []uint32, positions []int) map[uint32]bool {
	set := make(map[uint32]bool, len(positions))
	for _, p := range positions {
		set[hashes[p]] = true
	}
	return set
}

// TestSelectDequeEquivalence checks that the circular-buffer variant the
// paper mentions (and drops) selects exactly the same fingerprints as the
// rescanning implementation, including under heavy ties.
func TestSelectDequeEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for round := 0; round < 300; round++ {
		n := rng.Intn(120)
		w := 1 + rng.Intn(12)
		hashes := make([]uint32, n)
		valueRange := uint32(1)<<uint(rng.Intn(16)) + 1
		for i := range hashes {
			hashes[i] = rng.Uint32() % valueRange
		}
		a := SelectInto(nil, hashes, w)
		b := SelectDeque(hashes, w)
		if len(a) != len(b) {
			t.Fatalf("n=%d w=%d: SelectInto %v vs SelectDeque %v (hashes %v)", n, w, a, b, hashes)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("n=%d w=%d: SelectInto %v vs SelectDeque %v (hashes %v)", n, w, a, b, hashes)
			}
		}
	}
}

func TestSelectDequePanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for w=0")
		}
	}()
	SelectDeque([]uint32{1}, 0)
}

func BenchmarkSelect1000(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	hashes := randomHashes(rng, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SelectInto(nil, hashes, 7)
	}
}

// BenchmarkSelectVsDeque substantiates the paper's remark that the
// circular-buffer optimization brings no significant gain on
// trajectory-sized inputs.
func BenchmarkSelectVsDeque(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	short := randomHashes(rng, 120) // a normalized city trajectory
	long := randomHashes(rng, 5000) // a document-sized input
	rescan := func(hashes []uint32, w int) []int { return SelectInto(nil, hashes, w) }
	for name, f := range map[string]func([]uint32, int) []int{"rescan": rescan, "deque": SelectDeque} {
		b.Run(name+"/short", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f(short, 7)
			}
		})
		b.Run(name+"/long", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f(long, 7)
			}
		})
	}
}
