package bitmap

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Count returns the accumulated count of v, 0 when never seen or
// drained. The search paths read counts only through Drain; tests check
// single values with this.
func (c *Counter) Count(v uint32) int {
	i := c.slot[uint16(v>>16)]
	if i < 0 {
		return 0
	}
	n := int(c.chunks[i][uint16(v)])
	if len(c.wide) != 0 {
		n += c.wide[v]
	}
	return n
}

// randomBitmap builds a bitmap whose representation exercises both
// container kinds: sparse arrays, dense bitsets, and contiguous runs
// (which stay arrays).
func randomBitmap(rng *rand.Rand) *Bitmap {
	b := New()
	switch rng.Intn(3) {
	case 0: // sparse array chunks
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			b.Add(rng.Uint32() % (3 << 16))
		}
	case 1: // a dense chunk that converts to a bitset
		base := uint32(rng.Intn(2)) << 16
		n := arrayMaxSize + rng.Intn(4096)
		for i := 0; i < n; i++ {
			b.Add(base | uint32(rng.Intn(1<<16)))
		}
	default: // contiguous runs
		base := uint32(rng.Intn(2)) << 16
		start := uint32(rng.Intn(1 << 15))
		for v := start; v < start+uint32(rng.Intn(500))+1; v++ {
			b.Add(base | v)
		}
	}
	return b
}

func TestCounterMatchesIterate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		c := NewCounter()
		want := make(map[uint32]int)
		nBitmaps := 1 + rng.Intn(8)
		for i := 0; i < nBitmaps; i++ {
			b := randomBitmap(rng)
			c.Add(b)
			b.Iterate(func(v uint32) bool {
				want[v]++
				return true
			})
		}
		cands := c.Candidates()
		if len(cands) != len(want) {
			t.Fatalf("trial %d: %d candidates, want %d", trial, len(cands), len(want))
		}
		seen := make(map[uint32]bool, len(cands))
		for _, v := range cands {
			if seen[v] {
				t.Fatalf("trial %d: candidate %d listed twice", trial, v)
			}
			seen[v] = true
			if got := c.Count(v); got != want[v] {
				t.Fatalf("trial %d: Count(%d) = %d, want %d", trial, v, got, want[v])
			}
		}
		if got := c.Count(0xdeadbeef); got != want[0xdeadbeef] {
			t.Fatalf("trial %d: absent value count = %d, want %d", trial, got, want[0xdeadbeef])
		}
		// Reset and reuse: the recycled counter must count from scratch.
		c.Reset()
		if len(c.Candidates()) != 0 {
			t.Fatalf("trial %d: candidates survive Reset", trial)
		}
		b := randomBitmap(rng)
		c.Add(b)
		b.Iterate(func(v uint32) bool {
			if c.Count(v) != 1 {
				t.Fatalf("trial %d: post-Reset count of %d = %d, want 1", trial, v, c.Count(v))
			}
			return true
		})
	}
}

func TestCounterAddN(t *testing.T) {
	c := NewCounter()
	c.AddN(70000, 3)
	c.AddN(70000, 2)
	c.AddN(5, 1)
	c.AddN(6, 0)
	c.AddN(7, -2)
	if got := c.Count(70000); got != 5 {
		t.Fatalf("Count(70000) = %d, want 5", got)
	}
	if got := c.Count(5); got != 1 {
		t.Fatalf("Count(5) = %d, want 1", got)
	}
	if got := len(c.Candidates()); got != 2 {
		t.Fatalf("%d candidates, want 2", got)
	}
}

// TestCounterCandidatesStayNearDistinct counts overlapping lists many
// times over and checks that the candidate list, which countInto grows
// ahead of each container, holds room for at most twice the distinct
// values plus one chunk: counting the same values again must not grow
// it, whatever the lists' summed cardinalities.
func TestCounterCandidatesStayNearDistinct(t *testing.T) {
	// Bitset and array containers over three chunks, half of b's values
	// also in a.
	var a, b []uint32
	seen := map[uint32]bool{}
	for v := uint32(0); v < 3<<16; v += 2 {
		a = append(a, v)
		b = append(b, v+v%4/2)
		seen[v], seen[v+v%4/2] = true, true
	}
	lists := []*Bitmap{FromSlice(a), FromSlice(b), FromSlice(a[:3000]), FromSlice(b[len(b)-3000:])}
	c := NewCounter()
	for range 64 {
		for _, l := range lists {
			c.Add(l)
		}
	}
	distinct := len(seen)
	if n := len(c.Candidates()); n != distinct {
		t.Fatalf("%d candidates, want the %d distinct values", n, distinct)
	}
	if got, bound := cap(c.Candidates()), 2*(distinct+1<<16); got > bound {
		t.Fatalf("candidate list has room for %d values, over %d: twice the %d distinct values plus a chunk", got, bound, distinct)
	}
}

// FuzzCounter checks the counter against a map model on op streams that
// reach past the 16-bit width of its array entries: one posting list
// streamed tens of thousands of times, AddN amounts up to 2³¹, Drain,
// Reset and reuse. Each op is a tag byte and its operands; see the
// switch. Both container kinds record first touches without a branch, so
// every check holds the candidates to the model's first-touch order, and
// every Drain histograms the counts: into levels covering every count,
// or into as many levels as an operand says, when counts at or above
// the last must be reported.
func FuzzCounter(f *testing.F) {
	streams := []*Bitmap{FromSlice([]uint32{1, 9, 70000}), New(), New()}
	for v := uint32(0); v < arrayMaxSize+4; v++ {
		streams[1].Add(v * 3) // a bitset container, sharing 9 with the array
	}
	for v := uint32(5); v < 13; v++ {
		streams[2].Add(v) // a contiguous run over 9 as well
	}
	values := []uint32{1, 9, 70000, 1 << 31, 12}

	stream := func(which byte, k uint32) []byte {
		return []byte{0, which, byte(k), byte(k >> 8), byte(k >> 16)}
	}
	for _, k := range []uint32{65535, 65536, 140000} {
		f.Add(stream(0, k))
		f.Add(append(append(stream(2, k), stream(1, 2)...), 2, 0, 0, 1, 0, 0)) // … then Reset and one more Add
	}
	f.Add([]byte{1, 1, 0xff, 0xff, 0xff, 0xff, 1, 1, 0xff, 0xff, 0xff, 0xff}) // AddN(9, 2³¹) twice
	f.Add(append(stream(0, 40000), 1, 0, 0x00, 0x80, 0, 0))                   // Adds, then AddN onto a count above half range
	// Drains: of counts spilled past 16 bits and of AddNs into other chunks
	// (70000, 2³¹) past MaxUint32, each followed by reuse; and of a bitset's
	// worth of candidates in one chunk, where Reset would clear whole chunks.
	f.Add(append(append(stream(0, 70000), 3), stream(0, 2)...))
	f.Add([]byte{1, 2, 0x70, 0x11, 0x01, 0, 1, 3, 0xff, 0xff, 0xff, 0x7f, 1, 3, 0xff, 0xff, 0xff, 0x7f, 1, 3, 0, 0, 0, 0x40, 3, 1, 2, 5, 0, 0, 0})
	f.Add(append(append(stream(1, 1), 3), stream(2, 3)...))
	// A bitset's 4,100 values in one chunk, first touched before and after
	// an array's, drained into 2 levels (counts of 2 and 3 above them) and
	// into 4 (none above).
	f.Add(append(append(append(stream(0, 1), stream(1, 2)...), stream(2, 1)...), 4, 2, 0))
	f.Add(append(append(append(stream(1, 1), stream(0, 2)...), stream(2, 1)...), 4, 4, 0))

	f.Fuzz(func(t *testing.T, ops []byte) {
		c := NewCounter()
		want := make(map[uint32]int)
		var order []uint32
		touch := func(v uint32, n int) {
			if want[v] == 0 {
				order = append(order, v)
			}
			want[v] += n
		}
		check := func() {
			t.Helper()
			cands := c.Candidates()
			if len(cands) != len(order) {
				t.Fatalf("%d candidates, want %d", len(cands), len(order))
			}
			for i, v := range cands {
				if v != order[i] {
					t.Fatalf("candidate %d is %d, want %d (first-touch order, no repeats)", i, v, order[i])
				}
				if got := c.Count(v); got != want[v] {
					t.Fatalf("Count(%d) = %d, want %d", v, got, want[v])
				}
			}
			if got := c.Count(77); got != 0 {
				t.Fatalf("Count of an untouched value = %d", got)
			}
		}
		// budget bounds the postings one input may stream, so the fuzzer's
		// executions stay short whatever repeat counts it invents.
		budget := 2 << 20
		for len(ops) > 0 {
			tag := ops[0] % 5
			ops = ops[1:]
			switch {
			case tag == 0 && len(ops) >= 4: // Add(streams[i]) k times
				b := streams[int(ops[0])%len(streams)]
				k := int(ops[1]) | int(ops[2])<<8 | int(ops[3])<<16
				ops = ops[4:]
				if k = min(k, budget/b.Cardinality()); k == 0 {
					continue
				}
				budget -= k * b.Cardinality()
				for i := 0; i < k; i++ {
					c.Add(b)
				}
				b.Iterate(func(v uint32) bool {
					touch(v, k)
					return true
				})
			case tag == 1 && len(ops) >= 5: // AddN(values[i], n), n ≤ 2³¹
				v := values[int(ops[0])%len(values)]
				n := int(ops[1]) | int(ops[2])<<8 | int(ops[3])<<16 | int(ops[4]&0x7f)<<24
				ops = ops[5:]
				c.AddN(v, n+1)
				touch(v, n+1)
			case tag == 2:
				check()
				c.Reset()
				clear(want)
				order = order[:0]
			case tag == 3 || tag == 4 && len(ops) >= 2: // Drain, then Reset
				// Tag 3 histograms into a level per count up to the largest,
				// at most 2¹⁶ levels; tag 4 into as many as its operand says.
				levels := 0
				if tag == 3 {
					for _, n := range want {
						levels = max(levels, min(n, math.MaxUint32)+1)
					}
					levels = min(levels, 1<<16)
				} else {
					levels = int(ops[0]) | int(ops[1])<<8
					ops = ops[2:]
				}
				hist := make([]int32, levels)
				wantHist := make([]int32, levels)
				wantAbove := false
				for _, v := range order {
					if n := min(want[v], math.MaxUint32); n < levels {
						wantHist[n]++
					} else {
						wantAbove = levels > 0
					}
				}
				cands := slices.Clone(c.Candidates())
				counts, above := c.Drain(nil, hist)
				if len(counts) != len(order) || !slices.Equal(cands, order) {
					t.Fatalf("drained %d counts of %v, want the %d of %v", len(counts), cands, len(order), order)
				}
				for i, v := range order {
					if want := uint32(min(want[v], math.MaxUint32)); counts[i] != want {
						t.Fatalf("drained count %d (value %d) = %d, want %d", i, v, counts[i], want)
					}
					if got := c.Count(v); got != 0 {
						t.Fatalf("Count(%d) = %d after Drain", v, got)
					}
				}
				if !slices.Equal(hist, wantHist) || above != wantAbove {
					t.Fatalf("drained histogram %v, above %v; want %v, %v", hist, above, wantHist, wantAbove)
				}
				if !slices.Equal(c.Candidates(), order) {
					t.Fatalf("Drain changed the candidates")
				}
				c.Reset()
				clear(want)
				order = order[:0]
			default:
				ops = nil // truncated operands
			}
		}
		check()
		// Whatever came before, a reset counter is back in its steady
		// state: counting without a spill, and draining into a buffer
		// that has grown to size, allocates nothing.
		c.Reset()
		var buf []uint32
		hist := make([]int32, 8)
		if allocs := testing.AllocsPerRun(3, func() {
			for _, b := range streams {
				c.Add(b)
			}
			c.Reset()
			for _, b := range streams {
				c.Add(b)
			}
			buf, _ = c.Drain(buf[:0], hist)
			c.Reset()
		}); allocs != 0 {
			t.Fatalf("steady-state Add/Reset and Add/Drain/Reset allocate %v times", allocs)
		}
	})
}
