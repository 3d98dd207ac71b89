// Package distance implements the trajectory distance measures the paper
// evaluates against each other (§VI-B): Dynamic Time Warping (DTW, Yi et
// al.), the Discrete Fréchet Distance (DFD, Eiter & Mannila) — both O(n·m)
// dynamic programs over the haversine ground distance — and the Jaccard
// distance over fingerprint sets, which replaces them at scale.
//
// DTW and DFD share one kernel, which can also run against a bar: the
// exact rerank only needs scores that can still place, and the kernel
// skips every cell, and finally the whole pair, that provably cannot
// (DTWWithin, DFDWithin, and the upper bounds that seed the bar). Under a
// finite bar it is guided: a first, trig-free pass over the same cells
// bounds what finishing an alignment from each can still cost, with the
// chord through the Earth standing in for the haversine arc, so the
// exact pass computes little more than the cells of alignments that can
// still finish under the bar — and, like the unguided one, returns the
// unbounded metric's float for every pair it keeps.
package distance

import (
	"math"
	"slices"
	"sync"

	"geodabs/internal/geo"
)

// DTW returns the dynamic time-warping distance between two trajectories,
// per the recurrence of the paper's Eq. 3: the cost of the cheapest
// monotone alignment, where each matched pair contributes its ground
// distance in meters. DTW of anything against an empty trajectory is +Inf
// (no alignment exists); two empty trajectories are at distance 0.
//
// It is DTWWithin under an infinite bar: every one of the n·m cells is
// computed.
func DTW(p, q []geo.Point) float64 {
	score, _ := within(p, q, math.Inf(1), false)
	return score
}

// DFD returns the discrete Fréchet distance ("dog leash distance") between
// two trajectories, per the recurrence of the paper's Eq. 4: the smallest
// leash length, in meters, that lets two walkers traverse both sequences
// monotonically. DFD involving an empty trajectory is +Inf; two empty
// trajectories are at distance 0. Like DTW, it computes every cell.
func DFD(p, q []geo.Point) float64 {
	score, _ := within(p, q, math.Inf(1), true)
	return score
}

// DTWWithin returns DTW(p, q) and true when that distance is at most bar,
// and false — with a score that means nothing — as soon as the dynamic
// program proves it strictly greater. A returned score is the very float
// DTW returns: the bar only decides which cells are skipped, never how a
// cell that matters is computed.
func DTWWithin(p, q []geo.Point, bar float64) (score float64, ok bool) {
	return within(p, q, bar, false)
}

// DFDWithin is DTWWithin for the discrete Fréchet distance.
func DFDWithin(p, q []geo.Point, bar float64) (score float64, ok bool) {
	return within(p, q, bar, true)
}

// DTWUpper bounds DTW(p, q) from above in O(n+m): the cost of the one
// warping path that advances through both trajectories in proportion.
// The sum is accumulated from the path's start with the kernel's own cell
// function, so in floating point, too, it is never below what DTW returns
// (docs/invariants.md, "Exact rerank under a bar").
func DTWUpper(p, q []geo.Point) float64 { return upper(p, q, false) }

// DFDUpper is DTWUpper for the discrete Fréchet distance: the longest
// leash the proportional path needs.
func DFDUpper(p, q []geo.Point) float64 { return upper(p, q, true) }

// radPoint is a point as the cell function reads it: radians, and the
// latitude's cosine, which geo.Haversine would otherwise recompute for
// both points in every cell.
type radPoint struct{ lat, lon, cos float64 }

func toRad(p geo.Point) radPoint {
	lat, lon := p.Radians()
	return radPoint{lat, lon, math.Cos(lat)}
}

// ground is geo.Haversine over prepared points — the same operations in
// the same order, so the same float.
func ground(a, b radPoint) float64 {
	sinLat := math.Sin((a.lat - b.lat) / 2)
	sinLon := math.Sin((a.lon - b.lon) / 2)
	h := sinLat*sinLat + a.cos*b.cos*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * geo.EarthRadius * math.Asin(math.Sqrt(h))
}

// unit is a point on the unit sphere, as the chord cost reads it.
type unit struct{ x, y, z float64 }

func toUnit(p radPoint) unit {
	sinLon, cosLon := math.Sincos(p.lon)
	return unit{p.cos * cosLon, p.cos * sinLon, math.Sin(p.lat)}
}

// chordScale and chordSlack are the margins that keep chord below ground
// in floating point: the straight line through the Earth is never longer
// than the arc over it, and shaving a billionth of the length and a
// micrometre more absorbs both functions' rounding (docs/invariants.md,
// "Exact rerank under a bar", point 6).
const (
	chordScale = geo.EarthRadius * (1 - 1e-9)
	chordSlack = 1e-6
)

// chord is the guided program's trig-free ground cost: the chord between
// two points in meters, shaved by the margins, never below 0 and never
// above ground for the same pair.
func chord(a, b unit) float64 {
	dx, dy, dz := a.x-b.x, a.y-b.y, a.z-b.z
	if c := chordScale*math.Sqrt(dx*dx+dy*dy+dz*dz) - chordSlack; c > 0 {
		return c
	}
	return 0
}

// step extends an alignment whose cheapest predecessor costs best by a
// matched pair d meters apart: DTW sums, DFD keeps the longest leash.
func step(best, d float64, leash bool) float64 {
	if leash {
		return max(best, d)
	}
	return d + best
}

// maxGuidedCells caps the completion table a guided call fills: 8 MiB of
// float64s, a 1,023-point trajectory against another. A larger pair runs
// unguided, in two rows of memory, as the unbounded metrics do.
const maxGuidedCells = 1 << 20

// maxGuidedBar is the largest bar the guided tests are proved sound
// under: a DTW sum rounds by up to half an ulp of the running total per
// cell, and below this bar that stays well inside the micrometre each
// cell's chord gives up (docs/invariants.md, point 6).
const maxGuidedBar = 1e9

// scratch is one call's working memory: both trajectories prepared, the
// two rolling rows of the dynamic program, and, for a guided call, both
// trajectories on the unit sphere, the completion table and a row of
// +Inf to fill its dead entries from. Prepared points live here and not
// beside the retained ones — those are most of a node's heap.
type scratch struct {
	p, q       []radPoint
	pu, qu     []unit
	prev, curr []float64
	g, infs    []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// appendRad and appendUnit grow dst once, to what the call needs: a
// scratch the pool dropped is rebuilt in one allocation per slice.
func appendRad(dst []radPoint, pts []geo.Point) []radPoint {
	dst = slices.Grow(dst, len(pts))
	for _, p := range pts {
		dst = append(dst, toRad(p))
	}
	return dst
}

func appendUnit(dst []unit, pts []radPoint) []unit {
	dst = slices.Grow(dst, len(pts))
	for _, p := range pts {
		dst = append(dst, toUnit(p))
	}
	return dst
}

// trivial settles the inputs no alignment runs on: two empty trajectories
// are at 0, an empty one is infinitely far from anything else.
func trivial(p, q []geo.Point) (score float64, settled bool) {
	switch {
	case len(p) == 0 && len(q) == 0:
		return 0, true
	case len(p) == 0 || len(q) == 0:
		return math.Inf(1), true
	}
	return 0, false
}

// within is the one dynamic program behind DTW and DFD (leash). A cell is
// dead when no alignment through it can finish at or under bar, and live
// otherwise; dead cells are stored as +Inf without computing their ground
// distance, live ones get step(min(predecessors), ground) exactly as the
// unbounded program computes it. Each row therefore visits only the band
// of columns reachable from the previous row's live span [lo, hi], and
// the call ends the moment a row has no live cell. Under bar = +Inf
// nothing is dead.
//
// Unguided, a cell is dead when its own value strictly exceeds bar:
// ground distances are non-negative and float addition and max are
// monotone, so every alignment through it finishes above bar too.
// Guided — a bar up to maxGuidedBar and a pair that fits maxGuidedCells
// — the call first fills the completion table G (completions), gives up
// at once when even G(0, 0) is over bar, and lowers bar to the cost of
// the alignment G points along (along).
// The forward pass then also kills a cell before its ground distance
// when step(best, G) is over bar, and after it when step(value, cheapest
// successor's G) is. Every cell on an optimal alignment that finishes at
// or under bar passes both tests, so its predecessor on that alignment is
// live and holds its true value, and a kept score is the unbounded
// program's float (docs/invariants.md, "Exact rerank under a bar").
func within(p, q []geo.Point, bar float64, leash bool) (float64, bool) {
	if score, settled := trivial(p, q); settled {
		return score, !(score > bar)
	}
	inf := math.Inf(1)
	// The shorter trajectory spans the columns, which keeps the rows
	// short; the cell function is symmetric, so the score is the same
	// either way.
	if len(q) > len(p) {
		p, q = q, p
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.p, s.q = appendRad(s.p[:0], p), appendRad(s.q[:0], q)
	m := len(q)
	w := m + 1 // the completion table's row width
	if cap(s.prev) <= m {
		s.prev, s.curr = make([]float64, m+1), make([]float64, m+1)
	}
	prev, curr := s.prev[:m+1], s.curr[:m+1]

	guided := bar <= maxGuidedBar && (len(p)+1)*w <= maxGuidedCells
	if guided {
		if !s.completions(bar, leash) {
			return inf, false
		}
		bar = math.Min(bar, s.along(leash))
	}

	// Row 0 and column 0 stand for the empty prefixes: only (0, 0) can be
	// aligned, at no cost.
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = inf
	}
	lo, hi := 0, 0
	if !(inf > bar) {
		hi = m
	}
	var gRow, gNext []float64
	for i, a := range s.p {
		if guided {
			// Cell (i+1, j) of the program is cell (i, j−1) of the table.
			gRow, gNext = s.g[i*w:][:w], s.g[(i+1)*w:][:w]
		}
		// Rows are reused, so what lies outside the span a row writes is
		// stale. The next row reads one cell to the left of the span, set
		// dead here, and none to the right: the loop only stops on a dead
		// cell or on the last column.
		start := max(lo, 1)
		curr[start-1] = inf
		newLo, newHi := 0, 0
		for j := start; j <= m; j++ {
			best := curr[j-1]
			if j <= hi+1 {
				best = min(prev[j], prev[j-1], best)
			} else if best > bar {
				break // past the previous row's live span only the left cell can be live
			}
			if best > bar || guided && step(best, gRow[j-1], leash) > bar {
				curr[j] = inf
				continue
			}
			v := step(best, ground(a, s.q[j-1]), leash)
			if guided && step(v, min(gNext[j-1], gRow[j], gNext[j]), leash) > bar {
				v = inf
			}
			curr[j] = v
			if !(v > bar) {
				if newLo == 0 {
					newLo = j
				}
				newHi = j
			}
		}
		if newLo == 0 {
			return inf, false
		}
		lo, hi = newLo, newHi
		prev, curr = curr, prev
	}
	if hi < m {
		return inf, false
	}
	return prev[m], true
}

// completions fills s.g, (n+1)×(m+1) row-major, with G: G(i, j) is the
// cheapest chord cost of finishing an alignment from the table's cell
// (i, j) — point i of p matched to point j of q, that pair included —
// through (n−1, m−1). Row n and column m pad the table: +Inf, but for
// G(n, m) = 0, the end every alignment steps into, so every cell has
// three successors to read. It is within's band-pruned program run from
// the far corner with chord for ground, and it writes every entry, a
// dead one as +Inf. It reports whether G(0, 0) is at or under bar, giving
// up — the table part-written — as soon as a row has no live cell.
func (s *scratch) completions(bar float64, leash bool) bool {
	s.pu, s.qu = appendUnit(s.pu[:0], s.p), appendUnit(s.qu[:0], s.q)
	n, m := len(s.p), len(s.q)
	w := m + 1
	if cap(s.g) < (n+1)*w {
		s.g = make([]float64, (n+1)*w)
	}
	inf := math.Inf(1)
	if len(s.infs) < w {
		s.infs = slices.Grow(s.infs, w-len(s.infs))
		for len(s.infs) < w {
			s.infs = append(s.infs, inf)
		}
	}
	next := s.g[n*w:][:w]
	copy(next, s.infs)
	next[m] = 0
	lo, hi := m, m // the live span of next
	for i := n - 1; i >= 0; i-- {
		row := s.g[i*w:][:w]
		a := s.pu[i]
		// Right of the next row's live span only the right cell can be a
		// live successor, and column m is dead padding: all dead.
		j := min(hi, m-1)
		copy(row[j+1:], s.infs)
		newLo, newHi := -1, -1
		for ; j >= 0; j-- {
			best := row[j+1]
			if j >= lo-1 {
				best = min(next[j], next[j+1], best)
			} else if best > bar {
				break // left of the next row's live span only the right cell can be live
			}
			if best > bar {
				row[j] = inf
				continue
			}
			v := step(best, chord(a, s.qu[j]), leash)
			row[j] = v
			if !(v > bar) {
				if newHi < 0 {
					newHi = j
				}
				newLo = j
			}
		}
		copy(row[:j+1], s.infs)
		if newHi < 0 {
			return false
		}
		lo, hi, next = newLo, newHi, row
	}
	return !(next[0] > bar)
}

// along returns the exact cost of the alignment that starts at (0, 0)
// and always steps to the successor with the smallest G — the chord
// program's cheapest alignment, which completions proved ends at
// (n−1, m−1). The cost is accumulated from the start with the kernel's
// own cell function, so, like DTWUpper, it is never below the score.
func (s *scratch) along(leash bool) float64 {
	n, m := len(s.p), len(s.q)
	w := m + 1
	i, j := 0, 0
	acc := step(0, ground(s.p[0], s.q[0]), leash)
	for i < n-1 || j < m-1 {
		down, right, diag := s.g[(i+1)*w+j], s.g[i*w+j+1], s.g[(i+1)*w+j+1]
		switch {
		// The last row and column are spelled out: a NaN point compares
		// false to everything, and must not walk the path off the table.
		case i == n-1:
			j++
		case j == m-1:
			i++
		case diag <= down && diag <= right:
			i, j = i+1, j+1
		case down <= right:
			i++
		default:
			j++
		}
		acc = step(acc, ground(s.p[i], s.q[j]), leash)
	}
	return acc
}

// upper walks the proportional path: with p the longer trajectory, its
// i-th point is matched to q's ⌊i·(m−1)/(n−1)⌋-th, which starts at
// (first, first), ends at (last, last) and never steps back or skips.
func upper(p, q []geo.Point, leash bool) float64 {
	if score, settled := trivial(p, q); settled {
		return score
	}
	if len(q) > len(p) {
		p, q = q, p
	}
	var (
		acc  float64
		at   = 0
		b    = toRad(q[0])
		span = max(len(p)-1, 1)
	)
	for i, a := range p {
		if j := i * (len(q) - 1) / span; j != at {
			at, b = j, toRad(q[j])
		}
		acc = step(acc, ground(toRad(a), b), leash)
	}
	return acc
}

// JaccardSorted returns the Jaccard distance dJ = 1 − |A∩B| / |A∪B|
// between two sorted, duplicate-free uint32 slices (ordered fingerprint
// sets). The distance between two empty sets is 0 by the same convention
// as the bitmap package (identical sets).
func JaccardSorted(a, b []uint32) float64 {
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}
