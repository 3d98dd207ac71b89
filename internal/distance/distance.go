// Package distance implements the trajectory distance measures the paper
// evaluates against each other (§VI-B): Dynamic Time Warping (DTW, Yi et
// al.), the Discrete Fréchet Distance (DFD, Eiter & Mannila) — both O(n·m)
// dynamic programs over the haversine ground distance — and the Jaccard
// distance over fingerprint sets, which replaces them at scale.
//
// DTW and DFD share one kernel, which can also run against a bar: the
// exact rerank only needs scores that can still place, and the kernel
// skips every cell, and finally the whole pair, that provably cannot
// (DTWWithin, DFDWithin). Under a finite bar it is guided: a first,
// trig-free pass over the same cells bounds what finishing an alignment
// from each can still cost, with the chord through the Earth standing in
// for the haversine arc, so the exact pass computes little more than the
// cells of alignments that can still finish under the bar — and, like the
// unguided one, returns the unbounded metric's float for every pair it
// keeps. The exact pass reads the haversines of the guide's cheapest
// alignment, which it has already costed, rather than computing them again.
//
// Before any kernel runs, one O(n+m) walk bounds a pair from both sides
// (DTWBounds, DFDBounds): from above by the cost of one alignment, each
// pair's chord inflated into a cost never below the arc, and from below by
// each point's shaved chord to the box around the other trajectory's unit
// vectors. Over tries the lower bounds against a bar, so a caller drops a
// pair that cannot place before its completion table is filled.
//
// The chord costs read unit vectors, which a trajectory takes off its first
// point by the angle-addition formulas — a short series where the angle has
// moved by at most 0.01 rad, math.Sincos beyond — while the haversine keeps
// its own math.Cos of each latitude, so it is geo.Haversine's float.
//
// A caller scoring many trajectories against one prepares it once as a
// Prepared and calls its methods; the point-slice functions prepare both
// sides per call. Either way each call prepares the other trajectory in
// pooled scratch.
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
	score, _ := pairWithin(p, q, math.Inf(1), false)
	return score
}

// DFD returns the discrete Fréchet distance ("dog leash distance") between
// two trajectories, per the recurrence of the paper's Eq. 4: the smallest
// leash length, in meters, that lets two walkers traverse both sequences
// monotonically. DFD involving an empty trajectory is +Inf; two empty
// trajectories are at distance 0. Like DTW, it computes every cell.
func DFD(p, q []geo.Point) float64 {
	score, _ := pairWithin(p, q, math.Inf(1), true)
	return score
}

// DTWWithin returns DTW(p, q) and true when that distance is at most bar,
// and false — with a score that means nothing — as soon as the dynamic
// program proves it strictly greater. A returned score is the very float
// DTW returns: the bar only decides which cells are skipped, never how a
// cell that matters is computed.
func DTWWithin(p, q []geo.Point, bar float64) (score float64, ok bool) {
	return pairWithin(p, q, bar, false)
}

// DFDWithin is DTWWithin for the discrete Fréchet distance.
func DFDWithin(p, q []geo.Point, bar float64) (score float64, ok bool) {
	return pairWithin(p, q, bar, true)
}

// Prepared is a trajectory converted once for many kernel calls: in
// radians with the latitude's cosine, as the ground distance reads it, and
// on the unit sphere with the box around its unit vectors, as the chord
// costs read it. Once Prepare has returned, the methods only read it, so
// the workers of one rerank pass share it. The zero value is an empty
// trajectory.
type Prepared struct {
	rad  []radPoint
	unit []unit
	box  box
}

// Prepare converts pts into q, reusing q's storage.
func (q *Prepared) Prepare(pts []geo.Point) {
	q.rad = radsOf(q.rad, pts)
	q.unit = unitsOf(q.unit, q.rad)
	q.box = emptyBox
	for _, u := range q.unit {
		q.box.add(u)
	}
}

// DTWWithin is DTWWithin(the prepared trajectory, c, bar).
func (q *Prepared) DTWWithin(c []geo.Point, bar float64) (score float64, ok bool) {
	return q.within(c, bar, false)
}

// DFDWithin is DFDWithin(the prepared trajectory, c, bar).
func (q *Prepared) DFDWithin(c []geo.Point, bar float64) (score float64, ok bool) {
	return q.within(c, bar, true)
}

// Bounds is what one O(n+m) walk of a trajectory against a prepared one
// learns: Upper is never below their score, Lower never above it, and the
// box around the walked trajectory's unit vectors lets Over bound the
// score from the prepared side too. A NaN point makes both bounds NaN, so
// no test on them passes.
type Bounds struct {
	Upper, Lower float64
	box          box
	leash        bool
}

// DTWBounds bounds DTW(the prepared trajectory, c) from both sides.
//
// Upper is the cost of the one warping path that advances through both
// trajectories in proportion, each of its pairs costed by their chord
// inflated into a cost never below their ground distance. Lower sums, over
// c's points, each one's chord to the box around the prepared trajectory's
// unit vectors, shaved as the guide's chord is: every alignment matches
// each of c's points to some point inside that box. Both are accumulated
// in path order with the kernel's own step, so in floating point, too,
// they bracket what DTW returns (docs/invariants.md, "Exact rerank under a
// bar").
func (q *Prepared) DTWBounds(c []geo.Point) Bounds { return q.bounds(c, false) }

// DFDBounds is DTWBounds for the discrete Fréchet distance: the longest
// leash the proportional path needs, and the longest of the chords to the
// box.
func (q *Prepared) DFDBounds(c []geo.Point) Bounds { return q.bounds(c, true) }

// Over reports whether b, the bounds of some trajectory against q, prove
// their score strictly above bar: when b.Lower is, or when q's points,
// each costed by its shaved chord to the walked trajectory's box and
// accumulated with the kernel's step, pass bar — the walk stops there, as
// partial sums never decrease. Every test is a strict inequality, so a
// pair Over drops is one the kernel under the same bar rejects too.
func (q *Prepared) Over(b *Bounds, bar float64) bool {
	if b.Lower > bar {
		return true
	}
	var acc float64
	for _, u := range q.unit {
		if acc = step(acc, boxChord(u, &b.box), b.leash); acc > bar {
			return true
		}
	}
	return false
}

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

// unit is a point on the unit sphere, as the chord costs read it.
type unit struct{ x, y, z float64 }

// seriesMax is the largest angle, in radians, a point's latitude or
// longitude may have moved from its trajectory's first point's for
// frame.unit to take its sine and cosine from a short series; beyond it
// math.Sincos takes them from the angle itself.
const seriesMax = 0.01

// frame is what a trajectory's unit vectors are taken off: its first
// point's latitude and longitude, in radians, and their sines and cosines.
type frame struct{ lat, lon, sinLat, cosLat, sinLon, cosLon float64 }

func frameAt(lat, lon float64) frame {
	f := frame{lat: lat, lon: lon}
	f.sinLat, f.cosLat = math.Sincos(lat)
	f.sinLon, f.cosLon = math.Sincos(lon)
	return f
}

// unit returns the unit vector of the point at lat, lon radians. It is
// the one conversion Prepare, the kernel and the bounds share; each
// component is within about 1e-15 of math.Sincos's (docs/invariants.md,
// "Exact rerank under a bar", point 4).
func (f *frame) unit(lat, lon float64) unit {
	sinLat, cosLat := sincosOff(lat, lat-f.lat, f.sinLat, f.cosLat)
	sinLon, cosLon := sincosOff(lon, lon-f.lon, f.sinLon, f.cosLon)
	return unit{cosLat * cosLon, cosLat * sinLon, sinLat}
}

// sincosOff returns the sine and cosine of a, which lies d from an angle
// whose sine and cosine are sin0 and cos0: by the angle-addition formulas,
// with sin d and cos d from their Taylor series through d⁷ and d⁶, whose
// truncation is below 1e-17 for |d| ≤ seriesMax. A larger or NaN d falls
// back to math.Sincos(a).
func sincosOff(a, d, sin0, cos0 float64) (sin, cos float64) {
	if !(math.Abs(d) <= seriesMax) {
		return math.Sincos(a)
	}
	d2 := d * d
	sd := d + d*d2*(-1.0/6+d2*(1.0/120-d2*(1.0/5040)))
	cd := 1 + d2*(-0.5+d2*(1.0/24-d2*(1.0/720)))
	return sin0*cd + cos0*sd, cos0*cd - sin0*sd
}

// box is the axis-aligned box around a trajectory's unit vectors.
type box struct{ lo, hi unit }

// add widens b to hold u. The built-in min and max carry a NaN component
// into the box.
func (b *box) add(u unit) {
	b.lo = unit{min(b.lo.x, u.x), min(b.lo.y, u.y), min(b.lo.z, u.z)}
	b.hi = unit{max(b.hi.x, u.x), max(b.hi.y, u.y), max(b.hi.z, u.z)}
}

// emptyBox holds nothing: the first add makes it its point's.
var emptyBox = box{
	unit{math.Inf(1), math.Inf(1), math.Inf(1)},
	unit{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
}

// boxChord bounds chord(u, v) from below for every v in b: the distance
// from u to b's nearest point, scaled and shaved as chord is. Each
// component's gap is never above |u − v|'s, since v lies inside b and
// subtraction rounds monotonically, so in floats, too, it is never above
// chord(u, v). Unlike chord it keeps a NaN, so a NaN point fails every
// test on the bounds.
func boxChord(u unit, b *box) float64 {
	dx := max(b.lo.x-u.x, u.x-b.hi.x, 0)
	dy := max(b.lo.y-u.y, u.y-b.hi.y, 0)
	dz := max(b.lo.z-u.z, u.z-b.hi.z, 0)
	return max(chordScale*math.Sqrt(dx*dx+dy*dy+dz*dz)-chordSlack, 0)
}

// unitChord is the distance between two points on the unit sphere: the chord
// in Earth radii.
func unitChord(a, b unit) float64 {
	dx, dy, dz := a.x-b.x, a.y-b.y, a.z-b.z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// chordScale, chordUpScale and chordSlack are the margins that keep
// chord below ground and arcAbove above it in floating point. Shaving or
// adding a billionth of the length and a micrometre more absorbs the
// rounding of both sides (docs/invariants.md, "Exact rerank under a
// bar", points 4 and 6).
const (
	chordScale   = geo.EarthRadius * (1 - 1e-9)
	chordUpScale = geo.EarthRadius * (1 + 1e-9)
	chordSlack   = 1e-6
)

// chord is the guided program's trig-free ground cost: the chord between
// two points in meters, shaved by the margins, never below 0 and never
// above ground for the same pair — the straight line through the Earth
// is never longer than the arc over it.
func chord(a, b unit) float64 {
	if c := chordScale*unitChord(a, b) - chordSlack; c > 0 {
		return c
	}
	return 0
}

// arcAbove is the upper bounds' trig-free ground cost, never below ground
// for the same pair: a chord c spans the central angle 2·asin(c/2R), and
// since tan φ ≥ φ the arc is at most c/√(1−(c/2R)²), here on the chord
// inflated by the margins. It is +Inf past a chord of one radius, a sixty
// degree arc, where the tangent has left the arc far behind anyway.
func arcAbove(a, b unit) float64 {
	c := chordUpScale*unitChord(a, b) + chordSlack
	if c > geo.EarthRadius {
		return math.Inf(1)
	}
	h := c / (2 * geo.EarthRadius)
	return c / math.Sqrt(1-h*h)
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
// float64s (12 MiB with a pooled scratch's headroom), a 1,023-point
// trajectory against another. A larger pair runs
// unguided, in two rows of memory, as the unbounded metrics do.
const maxGuidedCells = 1 << 20

// maxGuidedBar is the largest bar the guided tests are proved sound
// under: a DTW sum rounds by up to half an ulp of the running total per
// cell, and below this bar that stays well inside the micrometre each
// cell's chord gives up (docs/invariants.md, point 6).
const maxGuidedBar = 1e9

// scratch is one call's working memory: the point-slice entry points'
// own prepared trajectory, the other trajectory prepared, the two
// rolling rows of the dynamic program, and, for a guided call, the
// completion table, a row of +Inf to fill its dead entries from and the
// cells of along's path. Prepared points live here and not beside the
// retained ones — those are most of a node's heap.
type scratch struct {
	own, other Prepared
	prev, curr []float64
	g, infs    []float64
	path       []pathCell
}

// pathCell is one cell of along's path: table row i, column j, and the
// ground distance of that pair.
type pathCell struct {
	i, j int
	d    float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns s resized to n. When it must reallocate, it leaves half
// again as much room, so a pooled scratch settles after a few pairs
// rather than growing with every longer one.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = make([]T, n, n+n/2)
	}
	return s[:n]
}

// radsOf and unitsOf convert pts into dst's storage; unitsOf takes the
// unit vectors off pts' first point.
func radsOf(dst []radPoint, pts []geo.Point) []radPoint {
	dst = grow(dst, len(pts))
	for i, p := range pts {
		dst[i] = toRad(p)
	}
	return dst
}

func unitsOf(dst []unit, pts []radPoint) []unit {
	dst = grow(dst, len(pts))
	if len(pts) == 0 {
		return dst
	}
	f := frameAt(pts[0].lat, pts[0].lon)
	for i, p := range pts {
		dst[i] = f.unit(p.lat, p.lon)
	}
	return dst
}

// units fills q's unit vectors if it holds only radians: a point-slice
// call prepares them only when its bar guides it.
func (q *Prepared) units() {
	if len(q.unit) != len(q.rad) {
		q.unit = unitsOf(q.unit, q.rad)
	}
}

// trivial settles the inputs no alignment runs on: two empty trajectories
// are at 0, an empty one is infinitely far from anything else.
func trivial(n, m int) (score float64, settled bool) {
	switch {
	case n == 0 && m == 0:
		return 0, true
	case n == 0 || m == 0:
		return math.Inf(1), true
	}
	return 0, false
}

// pairWithin prepares p in the scratch's own slot, radians only, and runs
// the kernel against q.
func pairWithin(p, q []geo.Point, bar float64, leash bool) (float64, bool) {
	if score, settled := trivial(len(p), len(q)); settled {
		return score, !(score > bar)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.own.rad, s.own.unit = radsOf(s.own.rad, p), s.own.unit[:0]
	return s.within(&s.own, q, bar, leash)
}

// within prepares c, radians only, and runs the kernel against q.
func (q *Prepared) within(c []geo.Point, bar float64, leash bool) (float64, bool) {
	if score, settled := trivial(len(q.rad), len(c)); settled {
		return score, !(score > bar)
	}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return s.within(q, c, bar, leash)
}

// within is the one dynamic program behind DTW and DFD (leash), between
// the prepared query and c, both non-empty. A cell is dead when no
// alignment through it can finish at or under bar, and live otherwise;
// dead cells are stored as +Inf without computing their ground distance,
// live ones get step(min(predecessors), ground) exactly as the unbounded
// program computes it. Each row therefore visits only the band of columns
// reachable from the previous row's live span [lo, hi], and the call ends
// the moment a row has no live cell. Under bar = +Inf nothing is dead.
//
// Unguided, a cell is dead when its own value strictly exceeds bar:
// ground distances are non-negative and float addition and max are
// monotone, so every alignment through it finishes above bar too.
// Guided — a bar up to maxGuidedBar and a pair that fits maxGuidedCells
// — the call first fills the completion table G (completions), gives up
// at once when even G(0, 0) is over bar, and lowers bar to the cost of
// the alignment G points along (along), keeping that path's ground
// distances for the forward pass to read — the same function on the same
// arguments, so the same floats. The forward pass then also kills a cell
// before its ground distance when step(best, G) is over bar, and after it
// when step(value, cheapest successor's G) is. Every cell on an optimal
// alignment that finishes at or under bar passes both tests, so its
// predecessor on that alignment is live and holds its true value, and a
// kept score is the unbounded program's float (docs/invariants.md, "Exact
// rerank under a bar").
func (s *scratch) within(query *Prepared, c []geo.Point, bar float64, leash bool) (float64, bool) {
	inf := math.Inf(1)
	s.other.rad, s.other.unit = radsOf(s.other.rad, c), s.other.unit[:0]
	// The shorter trajectory spans the columns, which keeps the rows
	// short; the cell function is symmetric, so the score is the same
	// either way.
	p, q := query, &s.other
	if len(q.rad) > len(p.rad) {
		p, q = q, p
	}
	m := len(q.rad)
	w := m + 1 // the completion table's row width
	s.prev, s.curr = grow(s.prev, w), grow(s.curr, w)
	prev, curr := s.prev, s.curr

	guided := bar <= maxGuidedBar && (len(p.rad)+1)*w <= maxGuidedCells
	var path []pathCell // along's cells from the current row on
	if guided {
		p.units()
		q.units()
		if !s.completions(p, q, bar, leash) {
			return inf, false
		}
		bar = math.Min(bar, s.along(p.rad, q.rad, leash))
		path = s.path
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
	cols := q.rad
	for i, a := range p.rad {
		if guided {
			// Cell (i+1, j) of the program is cell (i, j−1) of the table.
			gRow, gNext = s.g[i*w:][:w], s.g[(i+1)*w:][:w]
		}
		// The path crosses a row in consecutive columns: the program's
		// columns [known, known+len(seg)) hold seg's ground distances.
		k := 0
		for k < len(path) && path[k].i == i {
			k++
		}
		seg, known := path[:k], 0
		if k > 0 {
			known = seg[0].j + 1
		}
		path = path[k:]
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
			var d float64
			if c := j - known; uint(c) < uint(len(seg)) {
				d = seg[c].d
			} else {
				d = ground(a, cols[j-1])
			}
			v := step(best, d, leash)
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
// up — the table part-written — as soon as a row has no live cell. Both
// trajectories must hold their unit vectors.
func (s *scratch) completions(p, q *Prepared, bar float64, leash bool) bool {
	n, m := len(p.unit), len(q.unit)
	w := m + 1
	s.g = grow(s.g, (n+1)*w)
	inf := math.Inf(1)
	if len(s.infs) < w {
		s.infs = grow(s.infs, w)
		s.infs = s.infs[:cap(s.infs)]
		for i := range s.infs {
			s.infs[i] = inf
		}
	}
	next := s.g[n*w:][:w]
	copy(next, s.infs)
	next[m] = 0
	lo, hi := m, m // the live span of next
	for i := n - 1; i >= 0; i-- {
		row := s.g[i*w:][:w]
		a := p.unit[i]
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
			v := step(best, chord(a, q.unit[j]), leash)
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
// own cell function, so, like the upper bounds, it is never below the
// score. The path's cells, with their ground distances, are left in
// s.path.
func (s *scratch) along(p, q []radPoint, leash bool) float64 {
	n, m := len(p), len(q)
	w := m + 1
	i, j := 0, 0
	d := ground(p[0], q[0])
	// A monotone path from (0, 0) to (n−1, m−1) has at most n+m−1 cells.
	s.path = append(grow(s.path, n+m-1)[:0], pathCell{0, 0, d})
	acc := step(0, d, leash)
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
		d = ground(p[i], q[j])
		s.path = append(s.path, pathCell{i, j, d})
		acc = step(acc, d, leash)
	}
	return acc
}

// bounds walks the proportional path between the prepared query and c:
// with n the longer length, the longer trajectory's i-th point is matched
// to the shorter's ⌊i·(m−1)/(n−1)⌋-th, which starts at (first, first),
// ends at (last, last) and never steps back or skips. Each pair costs
// arcAbove toward Upper. c's points are put on the unit sphere as the walk
// reaches them, once each and in order, and each is folded into c's box
// and costed by boxChord against the query's box toward Lower.
func (q *Prepared) bounds(c []geo.Point, leash bool) Bounds {
	b := Bounds{box: emptyBox, leash: leash}
	n, m := len(q.unit), len(c)
	if score, settled := trivial(n, m); settled {
		b.Upper, b.Lower = score, score
		return b
	}
	f := frameAt(c[0].Radians())
	if m > n {
		span := m - 1
		for i, a := range c {
			u := f.unit(a.Radians())
			b.reach(u, &q.box)
			b.Upper = step(b.Upper, arcAbove(u, q.unit[i*(n-1)/span]), leash)
		}
		return b
	}
	at, u := 0, f.unit(c[0].Radians())
	b.reach(u, &q.box)
	span := max(n-1, 1)
	for i, a := range q.unit {
		if j := i * (m - 1) / span; j != at {
			at, u = j, f.unit(c[j].Radians())
			b.reach(u, &q.box)
		}
		b.Upper = step(b.Upper, arcAbove(a, u), leash)
	}
	return b
}

// reach folds the walked trajectory's next unit vector into b: into its
// box, and its shaved chord to the other trajectory's box qb into Lower.
func (b *Bounds) reach(u unit, qb *box) {
	b.box.add(u)
	b.Lower = step(b.Lower, boxChord(u, qb), b.leash)
}

// JaccardSorted returns the Jaccard distance dJ = 1 − |A∩B| / |A∪B|
// between two sorted, duplicate-free uint32 slices (fingerprint sets), the
// δ that ranks retrieval results (paper Eq. 1). The distance between two
// empty sets is 0: they are identical.
func JaccardSorted(a, b []uint32) float64 {
	inter := Shared(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return 1 - float64(inter)/float64(union)
}

// Shared returns |A∩B| for two sorted, duplicate-free uint32 slices, in
// one merge over both.
func Shared(a, b []uint32) int {
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
	return inter
}
