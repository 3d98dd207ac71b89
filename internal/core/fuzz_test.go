package core

import (
	"math"
	"slices"
	"testing"

	"geodabs/internal/geo"
	"geodabs/internal/geohash"
)

// fuzzConfig decodes a configuration selector: two bits of debounce,
// three of smoothing window, then KeepShort, PrefixCentroid and the
// 50-bit grid that takes fnvCell's full byte fold.
func fuzzConfig(sel uint8) Config {
	c := DefaultConfig()
	c.MinCellPoints = int(sel & 3)
	c.SmoothWindow = int(sel >> 2 & 7)
	c.KeepShort = sel&32 != 0
	if sel&64 != 0 {
		c.Strategy = PrefixCentroid
	}
	if sel&128 != 0 {
		c.NormDepth = 50
	}
	return c
}

// fuzzSpecials are the coordinates a front door might let through:
// non-finite values and values outside the valid ranges.
var fuzzSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308, 90, -90, 180, -180, 400, -400, 0}

// fuzzPoints turns bytes into a trajectory, three bytes a point: an
// opcode and two signed steps. Most opcodes walk a few metres from the
// previous point, so the grid sees runs, revisits and jitter; the rest
// jump far or emit a special coordinate.
func fuzzPoints(data []byte) []geo.Point {
	pts := make([]geo.Point, 0, len(data)/3)
	lat, lon := 51.5, -0.1
	for i := 0; i+3 <= len(data); i += 3 {
		op, dlat, dlon := data[i], float64(int8(data[i+1])), float64(int8(data[i+2]))
		switch op % 16 {
		case 0:
			n := len(fuzzSpecials)
			pts = append(pts, geo.Point{Lat: fuzzSpecials[int(data[i+1])%n], Lon: fuzzSpecials[int(data[i+2])%n]})
			continue
		case 1:
			lat, lon = lat+dlat, lon+dlon
		default:
			lat, lon = lat+dlat*1e-5, lon+dlon*1e-5
		}
		pts = append(pts, geo.Point{Lat: lat, Lon: lon})
	}
	return pts
}

// FuzzFingerprint checks the extraction pipeline's structural invariants
// on arbitrary input: cells tile the raw points, winnowed positions index
// the geodab sequence in order, the k-gram loop matches its reference,
// and the set-only path agrees with the full fingerprint.
func FuzzFingerprint(f *testing.F) {
	walk := make([]byte, 0, 600)
	for i := 0; i < 200; i++ {
		walk = append(walk, byte(2+i%14), byte(i%7), byte(i%5-1))
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), walk)
	f.Add(uint8(0b1010_0110), walk)
	f.Add(uint8(0b0111_1101), walk)
	f.Add(uint8(1), append([]byte{0, 0, 1, 0, 2, 0, 16, 3, 4}, walk...))
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		fpr := MustFingerprinter(fuzzConfig(sel))
		pts := fuzzPoints(data)
		fp := fpr.Fingerprint(pts)

		next := 0
		for i, c := range fp.Cells {
			if c.First != next || c.Last < c.First {
				t.Fatalf("cell %d spans [%d, %d], want a start at %d", i, c.First, c.Last, next)
			}
			if i > 0 && c.Hash == fp.Cells[i-1].Hash {
				t.Fatalf("cell %d repeats its neighbour", i)
			}
			next = c.Last + 1
		}
		if next != len(pts) {
			t.Fatalf("cells cover [0, %d), want [0, %d)", next, len(pts))
		}

		seq := fpr.GeodabSequence(fp.Cells)
		if len(fp.Geodabs) != len(fp.Positions) {
			t.Fatalf("%d geodabs for %d positions", len(fp.Geodabs), len(fp.Positions))
		}
		for i, p := range fp.Positions {
			if p < 0 || p >= len(seq) || (i > 0 && p <= fp.Positions[i-1]) {
				t.Fatalf("position %d = %d: out of range [0, %d) or not increasing", i, p, len(seq))
			}
			if fp.Geodabs[i] != seq[p] {
				t.Fatalf("geodab %d = %#x, want the sequence's %#x", i, fp.Geodabs[i], seq[p])
			}
		}

		hashes := make([]geohash.Hash, len(fp.Cells))
		for i, c := range fp.Cells {
			hashes[i] = c.Hash
		}
		checkGeodabs(t, fpr, hashes)

		if set := fpr.FingerprintSet(pts); !slices.Equal(set, TermsOf(fp.Set)) {
			t.Fatalf("FingerprintSet has %d terms, Fingerprint().Set %d", len(set), fp.Set.Cardinality())
		}
	})
}

// guaranteeConfig picks one of the four configurations FuzzGuarantee
// runs under: the default, PrefixCentroid, smoothing and debouncing off,
// and 24-bit prefixes.
func guaranteeConfig(sel uint8) Config {
	c := DefaultConfig()
	switch sel % 4 {
	case 1:
		c.Strategy = PrefixCentroid
	case 2:
		c.SmoothWindow, c.MinCellPoints = 0, 0
	case 3:
		c.PrefixBits = 24
	}
	return c
}

// longestCommonRun returns the length of the longest run of grid cells
// two normalized sequences share.
func longestCommonRun(a, b []Cell) int {
	best := 0
	prev, cur := make([]int, len(b)+1), make([]int, len(b)+1)
	for i := range a {
		for j := range b {
			cur[j+1] = 0
			if a[i].Hash == b[j].Hash {
				cur[j+1] = prev[j] + 1
				best = max(best, cur[j+1])
			}
		}
		prev, cur = cur, prev
	}
	return best
}

// FuzzGuarantee checks the paper's t-guarantee end to end (§IV): two
// trajectories whose normalized cell sequences share a run of at least T
// cells share a geodab, through smoothing, debouncing, the hash chains
// and the prefix. The walks put one shared middle between two fuzzed
// ends, in opposite orders. Each part is capped at 200 points, so the
// quadratic run search and the minimizer's many runs stay cheap.
func FuzzGuarantee(f *testing.F) {
	straight := make([]byte, 0, 240)
	for i := 0; i < 80; i++ {
		straight = append(straight, byte(2+i%14), byte(40+i%5), byte(25-i%3))
	}
	turn := make([]byte, 0, 90)
	for i := 0; i < 30; i++ {
		turn = append(turn, byte(2+i%14), byte(i%3-60), byte(30+i%7))
	}
	for sel := range uint8(4) {
		f.Add(sel, straight, []byte{}, []byte{})
		f.Add(sel, straight, turn, straight[:90])
		f.Add(sel, straight[:120], append([]byte{1, 5, 5}, turn...), []byte{0, 0, 1})
	}
	f.Fuzz(func(t *testing.T, sel uint8, mid, a, b []byte) {
		const maxBytes = 3 * 200
		part := func(data []byte) []geo.Point { return fuzzPoints(data[:min(len(data), maxBytes)]) }
		cfg := guaranteeConfig(sel)
		fpr := MustFingerprinter(cfg)
		m, pa, pb := part(mid), part(a), part(b)
		x, y := slices.Concat(pa, m, pb), slices.Concat(pb, m, pa)
		run := longestCommonRun(fpr.Normalize(x), fpr.Normalize(y))
		if run < cfg.T {
			return
		}
		fx, fy := fpr.FingerprintSet(x), fpr.FingerprintSet(y)
		for _, g := range fx {
			if _, ok := slices.BinarySearch(fy, g); ok {
				return
			}
		}
		t.Fatalf("config %d: normalized sequences share a run of %d ≥ T = %d cells, fingerprint sets (%d and %d terms) share no geodab",
			sel%4, run, cfg.T, len(fx), len(fy))
	})
}
