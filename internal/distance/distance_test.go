package distance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geodabs/internal/geo"
)

// line returns n points spaced meters apart heading east from a base point.
func line(n int, spacing float64) []geo.Point {
	base := geo.Point{Lat: 51.5, Lon: -0.12}
	out := make([]geo.Point, n)
	for i := range out {
		out[i] = geo.Offset(base, 0, float64(i)*spacing)
	}
	return out
}

// shifted returns the points displaced north by meters.
func shifted(pts []geo.Point, north float64) []geo.Point {
	out := make([]geo.Point, len(pts))
	for i, p := range pts {
		out[i] = geo.Offset(p, north, 0)
	}
	return out
}

// dfdBrute is the textbook recursive DFD used to validate the DP version.
func dfdBrute(p, q []geo.Point) float64 {
	memo := make(map[[2]int]float64)
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		d := geo.Haversine(p[i], q[j])
		var v float64
		switch {
		case i == 0 && j == 0:
			v = d
		case i == 0:
			v = math.Max(rec(0, j-1), d)
		case j == 0:
			v = math.Max(rec(i-1, 0), d)
		default:
			v = math.Max(math.Min(rec(i-1, j), math.Min(rec(i, j-1), rec(i-1, j-1))), d)
		}
		memo[[2]int{i, j}] = v
		return v
	}
	return rec(len(p)-1, len(q)-1)
}

// dtwBrute is the textbook recursive DTW used to validate the DP version.
func dtwBrute(p, q []geo.Point) float64 {
	memo := make(map[[2]int]float64)
	var rec func(i, j int) float64
	rec = func(i, j int) float64 {
		if i == 0 && j == 0 {
			return 0
		}
		if i == 0 || j == 0 {
			return math.Inf(1)
		}
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		v := geo.Haversine(p[i-1], q[j-1]) + math.Min(rec(i-1, j), math.Min(rec(i, j-1), rec(i-1, j-1)))
		memo[[2]int{i, j}] = v
		return v
	}
	return rec(len(p), len(q))
}

// pairs yields the inputs the kernel is pinned on: independent walks of
// unequal length, a few hundred points long at the top end, and noisy
// copies of one route — overlapping boxes, where no cheap bound separates
// the two and the band is all that prunes.
func pairs(rng *rand.Rand, rounds int, f func(p, q []geo.Point)) {
	for round := 0; round < rounds; round++ {
		size := []int{12, 60, 300}[round%3]
		p := randomWalk(rng, 1+rng.Intn(size))
		q := randomWalk(rng, 1+rng.Intn(size))
		if round%2 == 1 {
			q = noisyCopy(rng, p, 1+rng.Intn(size), 5)
		}
		f(p, q)
	}
}

// noisyCopy resamples route at n points, each moved up to noise meters
// north and east: the same road driven again.
func noisyCopy(rng *rand.Rand, route []geo.Point, n int, noise float64) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		at := route[i*len(route)/n]
		out[i] = geo.Offset(at, (rng.Float64()*2-1)*noise, (rng.Float64()*2-1)*noise)
	}
	return out
}

// crossesAntimeridian reports whether some step of pts jumps between the
// eastern and western ends of the longitude range.
func crossesAntimeridian(pts []geo.Point) bool {
	for i := 1; i < len(pts); i++ {
		if math.Abs(pts[i].Lon-pts[i-1].Lon) > 180 {
			return true
		}
	}
	return false
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestDFDMatchesBruteForce(t *testing.T) {
	pairs(rand.New(rand.NewSource(3)), 30, func(p, q []geo.Point) {
		if got, want := DFD(p, q), dfdBrute(p, q); !sameBits(got, want) {
			t.Fatalf("DFD = %v, brute force = %v (|p|=%d |q|=%d)", got, want, len(p), len(q))
		}
	})
}

func TestDTWMatchesBruteForce(t *testing.T) {
	pairs(rand.New(rand.NewSource(4)), 30, func(p, q []geo.Point) {
		if got, want := DTW(p, q), dtwBrute(p, q); !sameBits(got, want) {
			t.Fatalf("DTW = %v, brute force = %v (|p|=%d |q|=%d)", got, want, len(p), len(q))
		}
	})
}

// metrics pairs each bounded kernel with its unbounded metric, its
// textbook reference and its leash flag, which picks its bounds.
var metrics = []struct {
	name      string
	within    func(p, q []geo.Point, bar float64) (float64, bool)
	unbounded func(p, q []geo.Point) float64
	brute     func(p, q []geo.Point) float64
	leash     bool
}{
	{"DTW", DTWWithin, DTW, dtwBrute, false},
	{"DFD", DFDWithin, DFD, dfdBrute, true},
}

// boundsOf prepares p and bounds q against it, as a rerank pass does.
func boundsOf(p, q []geo.Point, leash bool) (*Prepared, Bounds) {
	pp := new(Prepared)
	pp.Prepare(p)
	return pp, pp.bounds(q, leash)
}

// upperOf is boundsOf's upper bound.
func upperOf(p, q []geo.Point, leash bool) float64 {
	_, b := boundsOf(p, q, leash)
	return b.Upper
}

// checkWithin is the kernel's whole contract on one input: a kept score
// is the textbook's float, an abandoned pair really lies strictly above
// the bar, a bar equal to the score keeps it, and the upper bound is one.
// A bar 1% above the score is always tried too: the guided program's
// tightest case, where most cells are proved dead before being computed.
func checkWithin(t *testing.T, p, q []geo.Point, bars ...float64) {
	t.Helper()
	for _, m := range metrics {
		want := m.brute(p, q)
		for _, bar := range append(bars, want, want*1.01) {
			got, ok := m.within(p, q, bar)
			switch {
			case ok && !sameBits(got, want):
				t.Fatalf("%sWithin(bar %v) = %v, textbook %v (|p|=%d |q|=%d)", m.name, bar, got, want, len(p), len(q))
			case ok && want > bar:
				t.Fatalf("%sWithin(bar %v) kept a pair at %v", m.name, bar, want)
			case !ok && !(want > bar):
				t.Fatalf("%sWithin(bar %v) abandoned a pair at %v (|p|=%d |q|=%d)", m.name, bar, want, len(p), len(q))
			}
		}
		if ub := upperOf(p, q, m.leash); ub < want {
			t.Fatalf("%sUpper = %v, below the exact score %v (|p|=%d |q|=%d)", m.name, ub, want, len(p), len(q))
		}
	}
}

// TestWithinMatchesBruteForce sweeps the bar across each pair's own score
// range, so bands of every width — none, a sliver, everything — occur. Two
// pairs are added by hand: a 150-point walk against its 20 m noisy copy —
// the shape of a reranked shortlist's winners — and a walk across the
// antimeridian, where longitudes jump by 360° between neighbours.
func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(p, q []geo.Point) {
		dtw, dfd := DTW(p, q), DFD(p, q)
		checkWithin(t, p, q, -1, 0, math.Inf(1),
			dfd/2, math.Nextafter(dfd, 0), dfd*(1+rng.Float64()), upperOf(p, q, true),
			dtw/2, math.Nextafter(dtw, 0), dtw*(1+rng.Float64()/10), upperOf(p, q, false))
	}
	pairs(rng, 24, check)
	walk := randomWalk(rng, 150)
	check(walk, noisyCopy(rng, walk, 150, 20))
	east := make([]geo.Point, 120)
	for i, at := 0, (geo.Point{Lat: -16.8, Lon: 179.995}); i < len(east); i++ {
		at = geo.Offset(at, rng.Float64()*40-20, rng.Float64()*30)
		east[i] = at
	}
	if !crossesAntimeridian(east) {
		t.Fatal("the antimeridian walk stays on one side")
	}
	check(east, noisyCopy(rng, east, 90, 5))
}

// FuzzWithin drives checkWithin from fuzzed trajectory shapes — two walks
// from one seed, or a walk and its noisy copy, starting at a fuzzed point
// with fuzzed noise — under a fuzzed bar, and under one a fuzzed fraction
// of the way up to each upper bound, where the band is neither empty nor
// everything.
func FuzzWithin(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(10), false, 100.0, uint8(128), 51.5, -0.12, 5.0)
	f.Add(int64(2), uint8(40), uint8(3), true, 0.0, uint8(255), 51.5, -0.12, 5.0)
	f.Add(int64(3), uint8(1), uint8(90), false, -5.0, uint8(0), 51.5, -0.12, 5.0)
	f.Add(int64(4), uint8(200), uint8(180), true, 2500.0, uint8(40), 51.5, -0.12, 5.0)
	f.Add(int64(5), uint8(7), uint8(7), true, math.Inf(1), uint8(200), 51.5, -0.12, 5.0)
	// A reranked winner: 150 points against their 20 m noisy copy, with
	// checkWithin's bar 1% above the score.
	f.Add(int64(6), uint8(149), uint8(149), true, 0.0, uint8(0), 51.5, -0.12, 20.0)
	// A walk across the antimeridian.
	f.Add(int64(7), uint8(120), uint8(90), true, 1e5, uint8(100), -16.8, 179.9999, 5.0)
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8, copied bool, bar float64, frac uint8, lat, lon, noise float64) {
		if math.IsNaN(bar) {
			t.Skip("a NaN bar orders nothing")
		}
		if !(math.Abs(lat) <= 90 && math.Abs(lon) <= 180 && math.Abs(noise) <= 1000) {
			t.Skip("not a start point on the globe, or noise beyond a kilometre")
		}
		rng := rand.New(rand.NewSource(seed))
		p := walkFrom(rng, geo.Point{Lat: lat, Lon: lon}, 1+int(n))
		q := walkFrom(rng, geo.Point{Lat: lat, Lon: lon}, 1+int(m))
		if copied {
			q = noisyCopy(rng, p, 1+int(m), noise)
		}
		part := float64(frac) / 255
		checkWithin(t, p, q, bar, part*upperOf(p, q, false), part*upperOf(p, q, true))
	})
}

// FuzzLowerBound holds the bounds a rerank pass computes to the unbounded
// metrics — lower ≤ DTW (DFD) ≤ upper, in float64 — and checks that at
// every bar Over drops a pair at, from just under the lower bound to the
// score itself, DTWWithin (DFDWithin) rejects it too. The trajectories
// are 1–300 points: two walks from a fuzzed start, by the poles or across
// the antimeridian, or a walk and its noisy copy; the second stutters on
// duplicate points, and one point of either may be NaN, which must leave
// the lower bound NaN, so it drops nothing.
func FuzzLowerBound(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(60), false, uint8(0), uint16(0), 51.5, -0.12, 5.0)
	f.Add(int64(2), uint16(150), uint16(149), true, uint8(0), uint16(0), 51.5, -0.12, 20.0)
	f.Add(int64(3), uint16(299), uint16(0), false, uint8(3), uint16(0), 51.5, -0.12, 5.0)
	f.Add(int64(4), uint16(80), uint16(90), true, uint8(2), uint16(0), 51.5, -0.12, 300.0)
	f.Add(int64(5), uint16(30), uint16(30), false, uint8(0), uint16(7), 51.5, -0.12, 5.0)
	f.Add(int64(6), uint16(30), uint16(30), true, uint8(1), uint16(12), 51.5, -0.12, 5.0)
	f.Add(int64(7), uint16(120), uint16(90), false, uint8(0), uint16(0), 89.9995, 20.0, 5.0)
	f.Add(int64(8), uint16(120), uint16(90), true, uint8(0), uint16(0), -89.9995, -60.0, 5.0)
	f.Add(int64(9), uint16(120), uint16(90), false, uint8(1), uint16(0), -16.8, 179.9999, 5.0)
	f.Add(int64(10), uint16(200), uint16(60), true, uint8(0), uint16(0), -16.8, -179.9999, 50.0)
	f.Fuzz(func(t *testing.T, seed int64, n, m uint16, copied bool, stutter uint8, nanAt uint16, lat, lon, noise float64) {
		if !(math.Abs(lat) <= 90 && math.Abs(lon) <= 180 && math.Abs(noise) <= 1000) {
			t.Skip("not a start point on the globe, or noise beyond a kilometre")
		}
		rng := rand.New(rand.NewSource(seed))
		start := geo.Point{Lat: lat, Lon: lon}
		p := walkFrom(rng, start, 1+int(n)%300)
		q := walkFrom(rng, start, 1+int(m)%300)
		if copied {
			q = noisyCopy(rng, p, 1+int(m)%300, noise)
		}
		if stutter > 0 {
			for j := 1; j < len(q); j += 1 + int(stutter)%5 {
				q[j] = q[j-1]
			}
		}
		if nanAt > 0 {
			at := q
			if nanAt%2 == 1 {
				at = p
			}
			at[int(nanAt/2)%len(at)].Lat = math.NaN()
		}
		for _, mt := range metrics {
			pp, b := boundsOf(p, q, mt.leash)
			want := mt.unbounded(p, q)
			where := fmt.Sprintf("%s |p|=%d |q|=%d", mt.name, len(p), len(q))
			if math.IsNaN(want) {
				if !math.IsNaN(b.Lower) {
					t.Fatalf("%s: lower bound %v on a NaN score", where, b.Lower)
				}
			} else if !(b.Lower <= want && want <= b.Upper) {
				t.Fatalf("%s: bounds [%v, %v] miss the score %v", where, b.Lower, b.Upper, want)
			}
			bars := []float64{0, want, math.Nextafter(want, 0), b.Lower, math.Nextafter(b.Lower, 0)}
			for k := 1; k < 4; k++ {
				bars = append(bars, b.Lower+(want-b.Lower)*float64(k)/4)
			}
			for _, bar := range bars {
				if !pp.Over(&b, bar) {
					continue
				}
				if _, ok := mt.within(p, q, bar); ok {
					t.Fatalf("%s: Over dropped the pair at bar %v, which %sWithin keeps (score %v)", where, bar, mt.name, want)
				}
			}
		}
	})
}

func randomWalk(rng *rand.Rand, n int) []geo.Point {
	return walkFrom(rng, geo.Point{Lat: 51.5, Lon: -0.12}, n)
}

// walkFrom returns n points, the first within 50 m of start, each next
// within 50 m of the last, north and east.
func walkFrom(rng *rand.Rand, p geo.Point, n int) []geo.Point {
	out := make([]geo.Point, n)
	for i := range out {
		p = geo.Offset(p, rng.Float64()*100-50, rng.Float64()*100-50)
		out[i] = p
	}
	return out
}

// TestCompletionsMatchBruteForce pins the guide table to its definition:
// under any bar, an entry whose cheapest chord-cost completion is at or
// under the bar holds that completion's float, computed by the textbook
// recursion, and every other entry lies above the bar.
func TestCompletionsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pairs(rng, 18, func(p, q []geo.Point) {
		if len(q) > len(p) {
			p, q = q, p
		}
		for _, leash := range []bool{false, true} {
			want := completionsBrute(p, q, leash)
			n, m := len(p), len(q)
			for _, bar := range []float64{math.Inf(1), want[0][0], want[0][0] * 2, want[0][0] / 2, want[n/2][m/2]} {
				var pp, qp Prepared
				pp.Prepare(p)
				qp.Prepare(q)
				s := new(scratch)
				if ok := s.completions(&pp, &qp, bar, leash); ok != !(want[0][0] > bar) {
					t.Fatalf("leash %v bar %v: completions = %v, G(0, 0) = %v", leash, bar, ok, want[0][0])
				}
				if want[0][0] > bar {
					continue // the table may be part-written
				}
				for i := range n {
					for j := range m {
						got, w := s.g[i*(m+1)+j], want[i][j]
						if w <= bar && !sameBits(got, w) || w > bar && !(got > bar) {
							t.Fatalf("leash %v bar %v: G(%d, %d) = %v, textbook %v (|p|=%d |q|=%d)", leash, bar, i, j, got, w, n, m)
						}
					}
				}
			}
		}
	})
}

// completionsBrute is the textbook recursion for the guide table: the
// cheapest chord cost from (i, j) through (n−1, m−1), the cell's own pair
// included. The unit vectors are taken off each trajectory's first point,
// as Prepare takes them.
func completionsBrute(p, q []geo.Point, leash bool) [][]float64 {
	n, m := len(p), len(q)
	pu, qu := unitsOf(nil, radsOf(nil, p)), unitsOf(nil, radsOf(nil, q))
	g := make([][]float64, n+1)
	for i := range g {
		g[i] = make([]float64, m+1)
		for j := range g[i] {
			g[i][j] = math.Inf(1)
		}
	}
	g[n][m] = 0
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			d := chord(pu[i], qu[j])
			g[i][j] = step(math.Min(g[i+1][j], math.Min(g[i][j+1], g[i+1][j+1])), d, leash)
		}
	}
	return g
}

// TestWithinOverTheCellCap: a pair whose completion table would exceed
// maxGuidedCells runs unguided, and still keeps exactly the unbounded
// metric's float and abandons a pair over its bar.
func TestWithinOverTheCellCap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := randomWalk(rng, 1100)
	q := noisyCopy(rng, p, 1000, 20)
	if (len(p)+1)*(len(q)+1) <= maxGuidedCells {
		t.Fatal("the pair fits the cell cap")
	}
	for _, m := range []struct {
		name      string
		within    func(p, q []geo.Point, bar float64) (float64, bool)
		unbounded func(p, q []geo.Point) float64
	}{{"DTW", DTWWithin, DTW}, {"DFD", DFDWithin, DFD}} {
		want := m.unbounded(p, q)
		if got, ok := m.within(p, q, want*1.01); !ok || !sameBits(got, want) {
			t.Errorf("%sWithin = (%v, %v), %s = %v", m.name, got, ok, m.name, want)
		}
		if _, ok := m.within(p, q, want/2); ok {
			t.Errorf("%sWithin kept a pair at twice its bar", m.name)
		}
	}
}

// unitOff converts p as a trajectory whose first point is ref does.
func unitOff(ref, p geo.Point) unit {
	f := frameAt(ref.Radians())
	return f.unit(p.Radians())
}

// FuzzChordBound checks that the guide's cost never exceeds the ground
// distance it stands in for, and the upper bounds' cost never falls below
// it, in float64, for any pair of points, on unit vectors taken off a
// fuzzed reference point: the first point of a's trajectory, b's taken off
// the same one or off b itself. The lower bounds' box cost, against a box
// holding b alone, never exceeds the chord either.
func FuzzChordBound(f *testing.F) {
	london := geo.Point{Lat: 51.5, Lon: -0.12}
	for _, pair := range [][2]geo.Point{
		{london, london},                      // a duplicate point
		{london, geo.Offset(london, 1e-6, 0)}, // a micrometre north
		{london, geo.Offset(london, 0, 1e-6)}, // a micrometre east
		{{Lat: 10, Lon: 179.9999}, {Lat: 10, Lon: -179.9999}},
		{{Lat: 0, Lon: 180}, geo.Offset(geo.Point{Lat: 0, Lon: 180}, 0, 1e-6)},
		{{Lat: 89.9999, Lon: 0}, {Lat: 89.9999, Lon: 180}},
		{{Lat: 90, Lon: 0}, {Lat: 90, Lon: 135}},
		{{Lat: -89.999999, Lon: 10}, geo.Offset(geo.Point{Lat: -89.999999, Lon: 10}, 1e-6, 0)},
		{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 180}}, // antipodes
		{{Lat: 45, Lon: 10}, {Lat: -45, Lon: -170}},
		{{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}},
		// Either side of arcAbove's cutoff, a chord of one radius: 59° and
		// 61° of arc along the equator and along a meridian.
		{{Lat: 0, Lon: 10}, {Lat: 0, Lon: 69}},
		{{Lat: 0, Lon: 10}, {Lat: 0, Lon: 71}},
		{{Lat: -29.5, Lon: 3}, {Lat: 29.5, Lon: 3}},
		{{Lat: -30.5, Lon: 3}, {Lat: 30.5, Lon: 3}},
	} {
		f.Add(pair[0].Lat, pair[0].Lon, pair[1].Lat, pair[1].Lon, pair[0].Lat, pair[0].Lon)
	}
	// Either side of the series cutoff, 0.01 rad (0.5729578°) from the
	// reference in latitude, in longitude and in both, a metre apart.
	below, above := 0.57, 0.58
	for _, d := range [][2]float64{{below, 0}, {above, 0}, {0, below}, {0, above}, {below, above}, {-above, -below}} {
		a := geo.Point{Lat: london.Lat + d[0], Lon: london.Lon + d[1]}
		f.Add(a.Lat, a.Lon, a.Lat, a.Lon+1e-5, london.Lat, london.Lon)
	}
	// Across the antimeridian from the reference, a longitude step of
	// nearly 2π that the series must leave to math.Sincos.
	f.Add(-16.8, -179.999, -16.8, -179.998, -16.8, 179.999)
	f.Add(-16.8, 179.9995, -16.8, -179.9995, -16.8, 179.999)
	f.Fuzz(func(t *testing.T, lat1, lon1, lat2, lon2, refLat, refLon float64) {
		for _, v := range [][2]float64{{lat1, 90}, {lon1, 180}, {lat2, 90}, {lon2, 180}, {refLat, 90}, {refLon, 180}} {
			if !(math.Abs(v[0]) <= v[1]) {
				t.Skip("not a point on the globe")
			}
		}
		a, b, ref := geo.Point{Lat: lat1, Lon: lon1}, geo.Point{Lat: lat2, Lon: lon2}, geo.Point{Lat: refLat, Lon: refLon}
		g := ground(toRad(a), toRad(b))
		ua := unitOff(ref, a)
		for _, ub := range []unit{unitOff(ref, b), unitOff(b, b)} {
			c := chord(ua, ub)
			if !(c <= g) {
				t.Fatalf("chord %v above ground %v for (%v, %v)–(%v, %v) off (%v, %v)", c, g, lat1, lon1, lat2, lon2, refLat, refLon)
			}
			if u := arcAbove(ua, ub); !(g <= u) {
				t.Fatalf("arcAbove %v below ground %v for (%v, %v)–(%v, %v) off (%v, %v)", u, g, lat1, lon1, lat2, lon2, refLat, refLon)
			}
			if l := boxChord(ua, &box{ub, ub}); !(l <= c) {
				t.Fatalf("boxChord %v above chord %v for (%v, %v)–(%v, %v) off (%v, %v)", l, c, lat1, lon1, lat2, lon2, refLat, refLon)
			}
		}
	})
}

// TestUnitConversion holds the series conversion to its error budget:
// within 1e-15 of math.Sincos's unit vector per component, either side of
// the series cutoff in latitude and longitude, near the poles and across
// the antimeridian.
func TestUnitConversion(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, ref := range []geo.Point{{Lat: 51.5, Lon: -0.12}, {Lat: -16.8, Lon: 179.999}, {Lat: 89.9, Lon: 40}, {Lat: 0, Lon: 0}} {
		for range 2000 {
			d := seriesMax * 180 / math.Pi * (2*rng.Float64() - 1) * 1.2
			e := seriesMax * 180 / math.Pi * (2*rng.Float64() - 1) * 1.2
			p := geo.Point{Lat: max(-90, min(90, ref.Lat+d)), Lon: geo.NormalizeLon(ref.Lon + e)}
			got := unitOff(ref, p)
			lat, lon := p.Radians()
			sinLat, cosLat := math.Sincos(lat)
			sinLon, cosLon := math.Sincos(lon)
			want := unit{cosLat * cosLon, cosLat * sinLon, sinLat}
			if dx, dy, dz := got.x-want.x, got.y-want.y, got.z-want.z; math.Abs(dx) > 1e-15 || math.Abs(dy) > 1e-15 || math.Abs(dz) > 1e-15 {
				t.Fatalf("unit of %v off %v = %+v, math.Sincos gives %+v", p, ref, got, want)
			}
		}
	}
}

func TestIdenticalTrajectoriesAreAtZero(t *testing.T) {
	p := line(50, 10)
	if got := DTW(p, p); got != 0 {
		t.Errorf("DTW(p, p) = %v", got)
	}
	if got := DFD(p, p); got != 0 {
		t.Errorf("DFD(p, p) = %v", got)
	}
}

func TestParallelLines(t *testing.T) {
	p := line(30, 10)
	q := shifted(p, 100)
	// DFD of two parallel lines is the separation distance.
	if got := DFD(p, q); math.Abs(got-100) > 1 {
		t.Errorf("DFD of parallel lines = %.2f, want ≈100", got)
	}
	// DTW accumulates ≈100 m per matched pair.
	if got := DTW(p, q); math.Abs(got-3000) > 50 {
		t.Errorf("DTW of parallel lines = %.2f, want ≈3000", got)
	}
}

func TestSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		p := randomWalk(rng, 5+rng.Intn(20))
		q := randomWalk(rng, 5+rng.Intn(20))
		if a, b := DFD(p, q), DFD(q, p); math.Abs(a-b) > 1e-9 {
			t.Fatalf("DFD not symmetric: %v vs %v", a, b)
		}
		if a, b := DTW(p, q), DTW(q, p); math.Abs(a-b) > 1e-9 {
			t.Fatalf("DTW not symmetric: %v vs %v", a, b)
		}
	}
}

func TestDFDLowerBoundedByEndpoints(t *testing.T) {
	// Any coupling matches the first and last points, so
	// DFD ≥ max(d(p1,q1), d(pn,qm)) — the bound used to prune motifs.
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		p := randomWalk(rng, 3+rng.Intn(10))
		q := randomWalk(rng, 3+rng.Intn(10))
		bound := math.Max(
			geo.Haversine(p[0], q[0]),
			geo.Haversine(p[len(p)-1], q[len(q)-1]),
		)
		if got := DFD(p, q); got < bound-1e-9 {
			t.Fatalf("DFD %v below endpoint bound %v", got, bound)
		}
	}
}

func TestDFDReversalDiscriminates(t *testing.T) {
	// A trajectory and its reverse are far apart under DFD — the property
	// that geohash indexes cannot capture but geodabs can (paper Fig 12).
	p := line(50, 20)
	rev := make([]geo.Point, len(p))
	for i := range p {
		rev[i] = p[len(p)-1-i]
	}
	length := 49 * 20.0
	if got := DFD(p, rev); got < length/2 {
		t.Errorf("DFD(p, reverse) = %.1f, want ≥ %.1f", got, length/2)
	}
}

func TestEmptyInputs(t *testing.T) {
	p := line(3, 10)
	for name, f := range map[string]func(a, b []geo.Point) float64{"DTW": DTW, "DFD": DFD} {
		if got := f(nil, nil); got != 0 {
			t.Errorf("%s(nil, nil) = %v, want 0", name, got)
		}
		if got := f(p, nil); !math.IsInf(got, 1) {
			t.Errorf("%s(p, nil) = %v, want +Inf", name, got)
		}
		if got := f(nil, p); !math.IsInf(got, 1) {
			t.Errorf("%s(nil, p) = %v, want +Inf", name, got)
		}
	}
}

// TestNaNPointPoisonsTheScore: a NaN coordinate makes every alignment's
// cost NaN, and the guided pass, whose comparisons all fail on NaN, must
// neither panic nor invent a finite score.
func TestNaNPointPoisonsTheScore(t *testing.T) {
	p := line(20, 10)
	q := shifted(p, 30)
	p[7].Lat = math.NaN()
	for _, m := range metrics {
		for _, bar := range []float64{0, 1e4, math.Inf(1)} {
			if got, ok := m.within(p, q, bar); ok && !math.IsNaN(got) {
				t.Errorf("%sWithin(bar %v) = %v, want NaN or abandoned", m.name, bar, got)
			}
		}
	}
}

func TestMismatchedLengths(t *testing.T) {
	// A single point against a line: DFD is the max distance to the point,
	// DTW the sum.
	p := line(10, 100)
	q := p[:1]
	wantMax := geo.Haversine(p[0], p[9])
	if got := DFD(p, q); math.Abs(got-wantMax) > 1 {
		t.Errorf("DFD = %.1f, want %.1f", got, wantMax)
	}
	var wantSum float64
	for _, pt := range p {
		wantSum += geo.Haversine(pt, q[0])
	}
	if got := DTW(p, q); math.Abs(got-wantSum) > 1 {
		t.Errorf("DTW = %.1f, want %.1f", got, wantSum)
	}
}

func TestJaccardSorted(t *testing.T) {
	tests := []struct {
		name string
		a, b []uint32
		want float64
	}{
		{"identical", []uint32{1, 2, 3}, []uint32{1, 2, 3}, 0},
		{"disjoint", []uint32{1, 2}, []uint32{3, 4}, 1},
		{"half", []uint32{1, 2, 3, 4}, []uint32{3, 4, 5, 6}, 1 - 2.0/6.0},
		{"both-empty", nil, nil, 0},
		{"one-empty", []uint32{1}, nil, 1},
		{"subset", []uint32{1, 2}, []uint32{1, 2, 3, 4}, 0.5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := JaccardSorted(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("JaccardSorted = %v, want %v", got, tt.want)
			}
			if got := JaccardSorted(tt.b, tt.a); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("JaccardSorted reversed = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestJaccardTriangleInequality checks the metric property (Kosub, 2016)
// that lets the paper prune candidates with precomputed distances, on
// sets drawn from a small universe so they overlap.
func TestJaccardTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	randomSet := func() []uint32 {
		var set []uint32
		for v := uint32(0); v < 1000; v++ {
			if rng.Intn(3) == 0 {
				set = append(set, v)
			}
		}
		return set
	}
	for i := 0; i < 50; i++ {
		a, b, c := randomSet(), randomSet(), randomSet()
		dab, dbc, dac := JaccardSorted(a, b), JaccardSorted(b, c), JaccardSorted(a, c)
		if dac > dab+dbc+1e-12 {
			t.Fatalf("triangle inequality violated: %v > %v + %v", dac, dab, dbc)
		}
	}
}

func BenchmarkDTW1000(b *testing.B) {
	p := line(1000, 10)
	q := shifted(p, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DTW(p, q)
	}
}

// BenchmarkDTWWithin1000 is BenchmarkDTW1000 under the bar a trajectory
// ten times closer would set: what the band leaves of the full program.
func BenchmarkDTWWithin1000(b *testing.B) {
	p := line(1000, 10)
	q := shifted(p, 50)
	bar := DTW(p, shifted(p, 5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := DTWWithin(p, q, bar); ok {
			b.Fatal("kept a pair ten times over the bar")
		}
	}
}

// BenchmarkDTWWithinNoisyCopy is a reranked winner: a 150-point walk
// against its 20 m noisy copy under a bar 1% above their score, where the
// score must be computed exactly and only the guide can skip cells.
func BenchmarkDTWWithinNoisyCopy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomWalk(rng, 150)
	q := noisyCopy(rng, p, 150, 20)
	bar := 1.01 * DTW(p, q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := DTWWithin(p, q, bar); !ok {
			b.Fatal("abandoned a pair under its bar")
		}
	}
}

func BenchmarkDFD1000(b *testing.B) {
	p := line(1000, 10)
	q := shifted(p, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DFD(p, q)
	}
}

// BenchmarkBounds is one bound walk of a 100-point candidate against a
// 100-point prepared query, a noisy copy of it.
func BenchmarkBounds(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomWalk(rng, 100)
	q := noisyCopy(rng, p, 100, 20)
	var pp Prepared
	pp.Prepare(p)
	for b.Loop() {
		pp.bounds(q, false)
	}
}
