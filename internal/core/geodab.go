// Package core implements geodabs, the paper's primary contribution
// (§IV): fingerprints that combine geohashing and hashing so that a single
// 32-bit value both localizes a k-gram of trajectory points on the Z-order
// space-filling curve (its geohash prefix) and discriminates the k-gram's
// path and direction (its order-sensitive hash suffix).
//
// The pipeline, mirroring the paper's Figure 4, is
//
//	raw points → grid normalization → k-grams of cells → geodabs
//	           → winnowing → fingerprint set (distinct terms, ascending)
package core

import (
	"fmt"
	"slices"
	"sync"

	"geodabs/internal/geo"
	"geodabs/internal/geohash"
	"geodabs/internal/winnow"
)

// GeodabBits is the width of a geodab in bits. The paper encodes geodabs
// on 32 bits so fingerprint sets fit in roaring bitmaps.
const GeodabBits = 32

// PrefixStrategy selects how the geohash prefix of a geodab is derived
// from a k-gram.
type PrefixStrategy uint8

const (
	// PrefixCover yields the PrefixBits prefix of the k-gram's first cell.
	// That equals the k-gram's covering geohash — "the highest precision
	// geohash that overlaps with the whole set" (paper Fig 3a) — truncated
	// to PrefixBits whenever the cover is that deep; a k-gram whose cover
	// is shallower straddles a major bisection boundary and keeps its
	// first cell's prefix to preserve locality.
	PrefixCover PrefixStrategy = iota
	// PrefixCentroid uses the depth-PrefixBits geohash of the k-gram's
	// cell-center centroid. Provided as an ablation of the cover strategy.
	PrefixCentroid
)

// Config parameterizes a Fingerprinter. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	// K is the noise threshold: matches shorter than K normalized cells
	// are never detected. The paper uses 6 (≈510 m in London at 36 bits).
	K int
	// T is the guarantee threshold: common runs of at least T cells are
	// always detected. The paper uses 12 (≈1020 m). The winnowing window
	// is w = T−K+1.
	T int
	// NormDepth is the geohash depth, in bits, of the normalization grid.
	// The paper's PR-curve sweep (Fig 8) selects 36.
	NormDepth uint8
	// PrefixBits is the width of the geodab's geohash prefix. The paper
	// shards on 16-bit prefixes (§VI-E).
	PrefixBits uint8
	// Strategy selects the prefix derivation; the default is PrefixCover.
	Strategy PrefixStrategy
	// KeepShort, when set, fingerprints trajectories that normalize to
	// fewer than T cells by selecting a single winnowed geodab instead of
	// dropping them as noise (the paper's strict behaviour).
	KeepShort bool
	// MinCellPoints debounces grid normalization: a cell only enters the
	// normalized sequence once it captures this many consecutive raw
	// points. GPS noise near a cell boundary otherwise injects one-point
	// jitter cells that break every k-gram spanning them. 0 behaves as 1
	// (no debouncing).
	MinCellPoints int
	// SmoothWindow applies a centered moving average of this many raw
	// points before grid snapping, attenuating GPS noise (a window of w
	// divides the noise standard deviation by ≈√w). The average spans
	// SmoothWindow/2 points on either side, so an even window behaves as
	// the next odd one. 0 and 1 disable smoothing. Smoothing and debouncing together form the concrete
	// normalization function N(S) of the paper's §V.
	SmoothWindow int
}

// DefaultConfig returns the configuration the paper's evaluation settled
// on (§VI-A2): 36-bit normalization, k = 6, t = 12, 16-bit prefixes.
func DefaultConfig() Config {
	return Config{
		K: 6, T: 12,
		NormDepth:     36,
		PrefixBits:    16,
		Strategy:      PrefixCover,
		MinCellPoints: 2,
		SmoothWindow:  5,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.K < 2:
		return fmt.Errorf("core: K = %d, need at least 2 to capture ordering", c.K)
	case c.T < c.K:
		return fmt.Errorf("core: T = %d must be ≥ K = %d", c.T, c.K)
	case c.NormDepth < 1 || c.NormDepth > geohash.MaxDepth:
		return fmt.Errorf("core: NormDepth = %d out of range [1, %d]", c.NormDepth, geohash.MaxDepth)
	case c.PrefixBits < 1 || c.PrefixBits >= GeodabBits:
		return fmt.Errorf("core: PrefixBits = %d out of range [1, %d]", c.PrefixBits, GeodabBits-1)
	case c.PrefixBits > c.NormDepth:
		return fmt.Errorf("core: PrefixBits = %d exceeds NormDepth = %d", c.PrefixBits, c.NormDepth)
	case c.Strategy != PrefixCover && c.Strategy != PrefixCentroid:
		return fmt.Errorf("core: unknown prefix strategy %d", c.Strategy)
	default:
		return nil
	}
}

// Window returns the winnowing window size w = T−K+1.
func (c Config) Window() int { return c.T - c.K + 1 }

// Cell is one step of a normalized trajectory: a grid cell at NormDepth
// together with the range of raw points that collapsed into it.
type Cell struct {
	Hash   geohash.Hash
	Center geo.Point
	// First and Last delimit (inclusively) the indexes of the raw points
	// normalized into this cell, for mapping motifs back to raw segments.
	First, Last int
}

// Fingerprint is the result of fingerprinting one trajectory.
type Fingerprint struct {
	// Geodabs are the winnowed geodabs in trajectory order. Values may
	// repeat when a trajectory revisits an area in the same direction.
	Geodabs []uint32
	// Positions holds, for each winnowed geodab, the index into Cells of
	// the first cell of its k-gram.
	Positions []int
	// Cells is the normalized cell sequence the geodabs were derived from.
	Cells []Cell
	// Set is the deduplicated fingerprint set used for Jaccard ranking.
	Set Set
}

// Fingerprinter turns trajectories into geodab fingerprints. Its
// configuration is immutable and it is safe for concurrent use (every
// extraction draws per-call scratch from an internal pool).
type Fingerprinter struct {
	cfg        Config
	suffixMask uint32
	scratch    sync.Pool // *fpScratch
}

// fpScratch is the pooled working state of one extraction: the smoothed
// points, the cells (each one's hash and the index of its first raw
// point), the unwinnowed geodab candidates, the winnowed positions and
// their values. Results that outlive a call are copied out.
type fpScratch struct {
	smooth     []geo.Point
	hashes     []geohash.Hash
	firsts     []int
	candidates []uint32
	positions  []int
	values     []uint32
}

// NewFingerprinter validates cfg and returns a Fingerprinter.
func NewFingerprinter(cfg Config) (*Fingerprinter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := &Fingerprinter{
		cfg:        cfg,
		suffixMask: uint32(1)<<(GeodabBits-cfg.PrefixBits) - 1,
	}
	f.scratch.New = func() any { return &fpScratch{} }
	return f, nil
}

// MustFingerprinter is NewFingerprinter for configurations known to be
// valid; it panics on error.
func MustFingerprinter(cfg Config) *Fingerprinter {
	f, err := NewFingerprinter(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Config returns the fingerprinter's configuration.
func (f *Fingerprinter) Config() Config { return f.cfg }

// Normalize maps raw points onto the geohash grid at NormDepth and removes
// consecutive duplicates, the paper's lightweight normalization (§V-A).
// With MinCellPoints > 1 it additionally debounces boundary jitter: a new
// cell is only committed once that many consecutive points land in it, and
// shorter excursions are folded into the current cell.
func (f *Fingerprinter) Normalize(points []geo.Point) []Cell {
	sc := f.scratch.Get().(*fpScratch)
	defer f.scratch.Put(sc)
	f.normalize(sc, points)
	return sc.cells(len(points))
}

// GeodabSequence computes the unwinnowed geodab of every k-gram of the
// cell sequence, the candidate list C of Algorithm 1.
func (f *Fingerprinter) GeodabSequence(cells []Cell) []uint32 {
	if len(cells) < f.cfg.K {
		return nil
	}
	sc := f.scratch.Get().(*fpScratch)
	defer f.scratch.Put(sc)
	sc.hashes = sc.hashes[:0]
	for _, c := range cells {
		sc.hashes = append(sc.hashes, c.Hash)
	}
	return f.geodabsInto(make([]uint32, 0, len(cells)-f.cfg.K+1), sc.hashes)
}

// Fingerprint runs the full pipeline on a raw point sequence.
// Trajectories that normalize to fewer than T cells return a fingerprint
// with an empty (but non-nil) set unless KeepShort is configured.
func (f *Fingerprinter) Fingerprint(points []geo.Point) *Fingerprint {
	sc := f.scratch.Get().(*fpScratch)
	defer f.scratch.Put(sc)
	f.extract(sc, points)
	fp := &Fingerprint{
		Geodabs:   make([]uint32, len(sc.positions)),
		Positions: slices.Clone(sc.positions),
		Cells:     sc.cells(len(points)),
		Set:       Set{terms: sc.set()},
	}
	for i, p := range sc.positions {
		fp.Geodabs[i] = sc.candidates[p]
	}
	return fp
}

// FingerprintSet computes only the deduplicated fingerprint set of a
// trajectory — the ranked-retrieval hot path, where the positional
// metadata of the full Fingerprint (Geodabs, Positions, Cells) is dead
// weight. It runs the same extraction as Fingerprint, so the set equals
// Fingerprint(points).Set's terms, and allocates only the returned slice:
// the distinct terms, ascending, at exact size (empty, but not nil, for a
// trajectory too short to fingerprint).
//
//geodabs:noalloc
func (f *Fingerprinter) FingerprintSet(points []geo.Point) []uint32 {
	sc := f.scratch.Get().(*fpScratch)
	defer f.scratch.Put(sc)
	f.extract(sc, points)
	return sc.set()
}

// set returns the deduplicated set of the winnowed geodabs in sc, sorted
// and compacted in the scratch, then copied out at exact size.
//
//geodabs:noalloc
func (sc *fpScratch) set() []uint32 {
	sc.values = sc.values[:0]
	for _, p := range sc.positions {
		sc.values = append(sc.values, sc.candidates[p])
	}
	slices.Sort(sc.values)
	terms := slices.Compact(sc.values)
	set := make([]uint32, len(terms)) //geodabs:vet-ignore the returned set: the one allocation FingerprintSet documents
	copy(set, terms)
	return set
}

// extract runs the whole pipeline into sc: normalization into sc.hashes
// and sc.firsts, the geodab of every k-gram into sc.candidates, and the
// winnowed positions into sc.positions.
//
//geodabs:noalloc
func (f *Fingerprinter) extract(sc *fpScratch, points []geo.Point) {
	f.normalize(sc, points)
	sc.candidates = f.geodabsInto(sc.candidates[:0], sc.hashes)
	if f.cfg.KeepShort {
		sc.positions = winnow.SelectShortInto(sc.positions[:0], sc.candidates, f.cfg.Window())
	} else {
		sc.positions = winnow.SelectInto(sc.positions[:0], sc.candidates, f.cfg.Window())
	}
}

// normalize smooths the points and snaps them to the grid, replacing
// sc.hashes with the debounced cell sequence and sc.firsts with the index
// of each cell's first raw point. Cells tile the raw points, so a cell
// ends where the next begins and the last one at the final point.
//
//geodabs:noalloc
func (f *Fingerprinter) normalize(sc *fpScratch, points []geo.Point) {
	if f.cfg.SmoothWindow > 1 && len(points) > 0 {
		// The smoothed buffer is the scratch's, never the caller's.
		sc.smooth = smoothInto(sc.smooth[:0], points, f.cfg.SmoothWindow)
		points = sc.smooth
	}
	sc.hashes, sc.firsts = sc.hashes[:0], sc.firsts[:0]
	debounce := max(f.cfg.MinCellPoints, 1)
	// pending is the cell of the candidate run: the last count points, all
	// in one cell other than the committed one, short of the debounce
	// length so far. A run that never reaches it is folded into the
	// committed cell. The first run commits at once: the trajectory has
	// to start somewhere.
	var pending geohash.Hash
	count := 0
	enc := geohash.NewEncoder(f.cfg.NormDepth)
	for i, p := range points {
		h := enc.Encode(p)
		if n := len(sc.hashes); n > 0 && sc.hashes[n-1] == h {
			// Returned to the committed cell: the excursion was jitter.
			count = 0
			continue
		}
		if count > 0 && pending == h {
			count++
		} else {
			pending, count = h, 1
		}
		if count >= debounce || len(sc.hashes) == 0 {
			sc.hashes, sc.firsts = append(sc.hashes, h), append(sc.firsts, i-count+1)
			count = 0
		}
	}
}

// cells materializes the normalized sequence in sc over n raw points.
func (sc *fpScratch) cells(n int) []Cell {
	cells := make([]Cell, len(sc.hashes))
	for i, h := range sc.hashes {
		last := n - 1
		if i+1 < len(sc.firsts) {
			last = sc.firsts[i+1] - 1
		}
		cells[i] = Cell{Hash: h, Center: h.Center(), First: sc.firsts[i], Last: last}
	}
	return cells
}

// geodabsInto appends the geodab of every k-gram of the cell sequence:
// the geohash prefix of the k-gram (paper Fig 3) over its order-sensitive
// hash suffix. The suffix hashes the ordered cell ids with FNV-1a so that
// reversing or permuting a k-gram changes the geodab: this is what lets
// geodabs discriminate the direction of travel, unlike bare geohashes.
//
//geodabs:noalloc
func (f *Fingerprinter) geodabsInto(dst []uint32, hashes []geohash.Hash) []uint32 {
	k, n := f.cfg.K, len(hashes)-f.cfg.K+1
	i := 0
	if f.cfg.NormDepth <= 40 {
		// A suffix is a chain of dependent multiplies, so four k-grams'
		// chains run side by side. Below 2⁴⁰ a cell id folds three zero
		// bytes, p³, which joins the previous byte's multiply (or the
		// offset basis, for the first cell).
		for ; i+4 <= n; i += 4 {
			s0, s1, s2, s3 := fnvOffsetCubed, fnvOffsetCubed, fnvOffsetCubed, fnvOffsetCubed
			for j := i; j < i+k-1; j++ {
				s0 = fnvLow5(s0, hashes[j].Bits) * fnvPrime32Fourth
				s1 = fnvLow5(s1, hashes[j+1].Bits) * fnvPrime32Fourth
				s2 = fnvLow5(s2, hashes[j+2].Bits) * fnvPrime32Fourth
				s3 = fnvLow5(s3, hashes[j+3].Bits) * fnvPrime32Fourth
			}
			last := i + k - 1
			dst = append(dst,
				f.geodab(hashes[i:i+k], fnvLow5(s0, hashes[last].Bits)*fnvPrime32),
				f.geodab(hashes[i+1:i+1+k], fnvLow5(s1, hashes[last+1].Bits)*fnvPrime32),
				f.geodab(hashes[i+2:i+2+k], fnvLow5(s2, hashes[last+2].Bits)*fnvPrime32),
				f.geodab(hashes[i+3:i+3+k], fnvLow5(s3, hashes[last+3].Bits)*fnvPrime32))
		}
	}
	for ; i < n; i++ {
		s := uint32(fnvOffset32)
		for _, h := range hashes[i : i+k] {
			s = fnvCell(s, h.Bits)
		}
		dst = append(dst, f.geodab(hashes[i:i+k], s))
	}
	return dst
}

// geodab joins the geohash prefix of a k-gram to its hash suffix s.
func (f *Fingerprinter) geodab(kgram []geohash.Hash, s uint32) uint32 {
	p := f.cfg.PrefixBits
	var prefix uint64
	if f.cfg.Strategy == PrefixCentroid {
		var lat, lon float64
		for _, h := range kgram {
			c := h.Center()
			lat += c.Lat
			lon += c.Lon
		}
		k := float64(len(kgram))
		prefix = geohash.Encode(geo.Point{Lat: lat / k, Lon: lon / k}, p).Bits
	} else {
		prefix = kgram[0].Bits >> (kgram[0].Depth - p)
	}
	return uint32(prefix)<<(GeodabBits-p) | s&f.suffixMask
}

const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnvPrime32Cubed is fnvPrime32³ mod 2³²: folding a zero byte is
// h = (h^0)·p = h·p, so three leading zero bytes collapse to one multiply.
// fnvPrime32Fourth and fnvOffsetCubed merge that multiply into the one
// before it.
const (
	fnvPrime32Cubed  uint32 = fnvPrime32 * fnvPrime32 * fnvPrime32 % (1 << 32)
	fnvPrime32Fourth uint32 = fnvPrime32 * fnvPrime32 * fnvPrime32 * fnvPrime32 % (1 << 32)
	fnvOffsetCubed   uint32 = fnvOffset32 * fnvPrime32 * fnvPrime32 * fnvPrime32 % (1 << 32)
)

// fnvCell folds one cell id (big-endian bytes, matching the historical
// byte loop) into a running FNV-1a state. Cell ids are NormDepth ≤ 60
// bits; the ≤ 40-bit grids the paper evaluates leave the top three bytes
// zero, which fold to a single multiply.
func fnvCell(h uint32, bits uint64) uint32 {
	if bits < 1<<40 {
		h *= fnvPrime32Cubed
	} else {
		h = (h ^ uint32(bits>>56&0xff)) * fnvPrime32
		h = (h ^ uint32(bits>>48&0xff)) * fnvPrime32
		h = (h ^ uint32(bits>>40&0xff)) * fnvPrime32
	}
	return fnvLow5(h, bits) * fnvPrime32
}

// fnvLow5 folds the low five bytes of a cell id into an FNV-1a state,
// leaving out the last byte's multiply so a caller can merge it with the
// next cell's zero bytes.
func fnvLow5(h uint32, bits uint64) uint32 {
	h = (h ^ uint32(bits>>32&0xff)) * fnvPrime32
	h = (h ^ uint32(bits>>24&0xff)) * fnvPrime32
	h = (h ^ uint32(bits>>16&0xff)) * fnvPrime32
	h = (h ^ uint32(bits>>8&0xff)) * fnvPrime32
	return h ^ uint32(bits&0xff)
}

// smoothInto appends to dst the trajectory filtered with a centered
// moving average of the given window (in points): each point averages
// window/2 neighbours on either side, so an even window w averages w+1
// points. Edges use the available shorter windows, so the first and last
// points stay anchored near their raw positions. Windows of 0 or 1
// return the input slice unchanged.
//
//geodabs:noalloc
func smoothInto(dst []geo.Point, points []geo.Point, window int) []geo.Point {
	if window <= 1 || len(points) == 0 {
		return points
	}
	half := window / 2
	for i := range points {
		w := points[max(0, i-half):min(len(points), i+half+1)]
		if len(w) != 5 {
			dst = append(dst, mean(w))
			continue
		}
		// The default window, unrolled: mean's additions in mean's order.
		lat := 0 + w[0].Lat + w[1].Lat + w[2].Lat + w[3].Lat + w[4].Lat
		lon := 0 + w[0].Lon + w[1].Lon + w[2].Lon + w[3].Lon + w[4].Lon
		dst = append(dst, geo.Point{Lat: lat / 5, Lon: lon / 5})
	}
	return dst
}

// mean averages the points, summing from zero in order.
func mean(points []geo.Point) geo.Point {
	var lat, lon float64
	for _, p := range points {
		lat += p.Lat
		lon += p.Lon
	}
	n := float64(len(points))
	return geo.Point{Lat: lat / n, Lon: lon / n}
}
