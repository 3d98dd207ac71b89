// Package distance implements the trajectory distance measures the paper
// evaluates against each other (§VI-B): Dynamic Time Warping (DTW, Yi et
// al.), the Discrete Fréchet Distance (DFD, Eiter & Mannila) — both O(n·m)
// dynamic programs over the haversine ground distance — and the Jaccard
// distance over fingerprint sets, which replaces them at scale.
//
// DTW and DFD share one kernel, which can also run against a bar: the
// exact rerank only needs scores that can still place, and the kernel
// skips every cell, and finally the whole pair, that provably cannot
// (DTWWithin, DFDWithin, and the upper bounds that seed the bar).
package distance

import (
	"math"
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

// step extends an alignment whose cheapest predecessor costs best by a
// matched pair d meters apart: DTW sums, DFD keeps the longest leash.
func step(best, d float64, leash bool) float64 {
	if leash {
		return math.Max(best, d)
	}
	return d + best
}

// scratch is one call's working memory: both trajectories prepared, and
// the two rolling rows of the dynamic program. Prepared points live here
// and not beside the retained ones — those are most of a node's heap.
type scratch struct {
	p, q       []radPoint
	prev, curr []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func appendRad(dst []radPoint, pts []geo.Point) []radPoint {
	for _, p := range pts {
		dst = append(dst, toRad(p))
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
// dead when its value strictly exceeds bar, and live otherwise. Ground
// distances are non-negative and float addition and max are monotone, so
// a cell whose cheapest predecessor is dead is dead itself: it is stored
// as +Inf without computing its ground distance. Every other cell gets
// step(min3(predecessors), ground) exactly as the unbounded program
// computes it — a dead predecessor never wins a min3 against a live one —
// so by induction live cells hold their true values and dead cells hold
// something above bar. Each row therefore visits only the band of columns
// reachable from the previous row's live span [lo, hi], and the call ends
// the moment a row has no live cell. Under bar = +Inf nothing is dead.
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
	if cap(s.prev) <= m {
		s.prev, s.curr = make([]float64, m+1), make([]float64, m+1)
	}
	prev, curr := s.prev[:m+1], s.curr[:m+1]

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
	for _, a := range s.p {
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
				best = min3(prev[j], best, prev[j-1])
			} else if best > bar {
				break // past the previous row's live span only the left cell can be live
			}
			if best > bar {
				curr[j] = inf
				continue
			}
			v := step(best, ground(a, s.q[j-1]), leash)
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

func min3(a, b, c float64) float64 {
	return math.Min(a, math.Min(b, c))
}
