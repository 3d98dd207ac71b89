// Package motif solves the paper's second problem (§II-B2): given two
// trajectories and a motif length, find the pair of equal-length
// sub-trajectories at minimum distance.
//
// Two methods are implemented, matching the comparison of §VI-C (Fig 11):
//
//   - FindGeodab translates the motif length into a number of fingerprints
//     and scans windows of the ordered geodab sequences with the Jaccard
//     distance — an approximation that is orders of magnitude cheaper.
//   - FindBTM is the exact baseline in the spirit of bounding-based
//     trajectory motif discovery (Tang et al., EDBT'17): discrete Fréchet
//     distance over every sub-trajectory pair, pruned with a constant-time
//     endpoint lower bound.
package motif

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/geo"
)

// Match is a discovered motif pair. Start/End are point indexes into the
// raw trajectories (End exclusive): the motif of trajectory A is
// A[AStart:AEnd], likewise for B.
type Match struct {
	AStart, AEnd int
	BStart, BEnd int
	// Distance is the Jaccard distance of the fingerprint windows for
	// FindGeodab, or the discrete Fréchet distance in meters for FindBTM.
	Distance float64
}

// ErrTooShort is returned when a trajectory cannot hold a motif of the
// requested length.
var ErrTooShort = errors.New("motif: trajectory shorter than the requested motif length")

// FindBTM returns the exact pair of length-l sub-trajectories (in points)
// minimizing the discrete Fréchet distance, scanning all (|a|−l+1)×(|b|−l+1)
// pairs. Each DFD costs O(l²); a pair is skipped when the endpoint lower
// bound max(d(a_i, b_j), d(a_{i+l}, b_{j+l})) ≥ current best, since any
// Fréchet coupling matches both endpoint pairs.
func FindBTM(a, b []geo.Point, l int) (Match, error) {
	if l < 2 {
		return Match{}, fmt.Errorf("motif: length %d too short", l)
	}
	if len(a) < l || len(b) < l {
		return Match{}, ErrTooShort
	}
	best := Match{Distance: math.Inf(1)}
	for i := 0; i+l <= len(a); i++ {
		for j := 0; j+l <= len(b); j++ {
			bound := math.Max(
				geo.Haversine(a[i], b[j]),
				geo.Haversine(a[i+l-1], b[j+l-1]),
			)
			if bound >= best.Distance {
				continue
			}
			d := distance.DFD(a[i:i+l], b[j:j+l])
			if d < best.Distance {
				best = Match{AStart: i, AEnd: i + l, BStart: j, BEnd: j + l, Distance: d}
			}
		}
	}
	return best, nil
}

// FindGeodab approximates motif discovery with fingerprints (§VI-C): the
// motif length in meters translates to f = l·aᵢ fingerprints per
// trajectory, where aᵢ is trajectory i's fingerprint density per meter;
// the best window pair under Jaccard distance is mapped back to raw point
// ranges through the winnowing positions. The fingerprinter must be
// configured as for indexing.
func FindGeodab(f *core.Fingerprinter, a, b []geo.Point, lengthMeters float64) (Match, error) {
	if lengthMeters <= 0 {
		return Match{}, fmt.Errorf("motif: length %.1f m too short", lengthMeters)
	}
	fa := f.Fingerprint(a)
	fb := f.Fingerprint(b)
	wa, err := windows(fa, a, lengthMeters, f.Config().K)
	if err != nil {
		return Match{}, err
	}
	wb, err := windows(fb, b, lengthMeters, f.Config().K)
	if err != nil {
		return Match{}, err
	}
	best := Match{Distance: math.Inf(1)}
	for _, wi := range wa {
		for _, wj := range wb {
			d := distance.JaccardSorted(wi.set, wj.set)
			if d < best.Distance {
				best = Match{
					AStart: wi.start, AEnd: wi.end,
					BStart: wj.start, BEnd: wj.end,
					Distance: d,
				}
			}
		}
	}
	return best, nil
}

// window is a contiguous run of winnowed fingerprints with its term set
// and the raw point range it covers.
type window struct {
	set        []uint32
	start, end int
}

// windows slices a fingerprint sequence into all windows of
// f = lengthMeters × density fingerprints.
func windows(fp *core.Fingerprint, raw []geo.Point, lengthMeters float64, k int) ([]window, error) {
	n := len(fp.Geodabs)
	if n == 0 {
		return nil, ErrTooShort
	}
	ground := groundLength(raw)
	if ground <= 0 {
		return nil, ErrTooShort
	}
	f := int(math.Round(lengthMeters * float64(n) / ground))
	if f < 1 {
		f = 1
	}
	if f > n {
		return nil, ErrTooShort
	}
	out := make([]window, 0, n-f+1)
	for i := 0; i+f <= n; i++ {
		w := window{set: sortedSet(fp.Geodabs[i : i+f])}
		// Map the window back to raw points: from the first cell of the
		// first k-gram to the last cell of the last k-gram.
		firstCell := fp.Positions[i]
		lastCell := fp.Positions[i+f-1] + k - 1
		if lastCell >= len(fp.Cells) {
			lastCell = len(fp.Cells) - 1
		}
		w.start = fp.Cells[firstCell].First
		w.end = fp.Cells[lastCell].Last + 1
		out = append(out, w)
	}
	return out, nil
}

// sortedSet returns the distinct values of s in ascending order.
func sortedSet(s []uint32) []uint32 {
	out := slices.Clone(s)
	slices.Sort(out)
	return slices.Compact(out)
}

func groundLength(points []geo.Point) float64 {
	var sum float64
	for i := 1; i < len(points); i++ {
		sum += geo.Haversine(points[i-1], points[i])
	}
	return sum
}
