package motif

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/geo"
	"geodabs/internal/roadnet"
)

// pathWithSharedSegment builds two trajectories that approach from
// different directions, share a common diagonal segment, and diverge
// again. The shared segment is returned as a point range of each.
func pathWithSharedSegment(noise float64, seedA, seedB int64) (a, b []geo.Point, aShared, bShared [2]int) {
	build := func(seed int64, leadIn float64) ([]geo.Point, [2]int) {
		rng := rand.New(rand.NewSource(seed))
		var pts []geo.Point
		// Lead-in: head east at a latitude offset.
		for i := 0; i < 120; i++ {
			pts = append(pts, noisy(geo.Offset(roadnet.LondonCenter, leadIn, float64(i)*12-1600), noise, rng))
		}
		start := len(pts)
		// Shared segment: diagonal from the center.
		for i := 0; i < 200; i++ {
			pts = append(pts, noisy(geo.Offset(roadnet.LondonCenter, float64(i)*9, float64(i)*9), noise, rng))
		}
		end := len(pts)
		// Lead-out: diverge.
		last := geo.Offset(roadnet.LondonCenter, 9*199, 9*199)
		for i := 0; i < 120; i++ {
			pts = append(pts, noisy(geo.Offset(last, leadIn+float64(i)*10, float64(i)*3), noise, rng))
		}
		return pts, [2]int{start, end}
	}
	a, aShared = build(seedA, 700)
	b, bShared = build(seedB, -900)
	return a, b, aShared, bShared
}

func noisy(p geo.Point, noise float64, rng *rand.Rand) geo.Point {
	if noise == 0 {
		return p
	}
	return geo.Offset(p, rng.NormFloat64()*noise, rng.NormFloat64()*noise)
}

func TestFindBTMRecoversSharedSegment(t *testing.T) {
	a, b, aShared, _ := pathWithSharedSegment(0, 1, 2)
	// Use shorter trajectories to keep the exact method fast.
	a, b = a[:300], b[:300]
	l := 60
	m, err := FindBTM(a, b, l)
	if err != nil {
		t.Fatal(err)
	}
	// The best pair must lie inside the shared segment, where the paths
	// coincide: distance near zero.
	if m.Distance > 50 {
		t.Fatalf("BTM distance = %.1f m, want ≈0 within the shared segment", m.Distance)
	}
	if m.AStart < aShared[0]-l || m.AEnd > aShared[1]+l {
		t.Errorf("BTM motif [%d, %d) not inside shared segment %v", m.AStart, m.AEnd, aShared)
	}
}

func TestFindBTMMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 10; round++ {
		a := randomWalk(rng, 40)
		b := randomWalk(rng, 35)
		l := 5 + rng.Intn(10)
		pruned, err := FindBTM(a, b, l)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := FindBTMBrute(a, b, l)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pruned.Distance-brute.Distance) > 1e-9 {
			t.Fatalf("pruning changed the optimum: %.3f vs %.3f", pruned.Distance, brute.Distance)
		}
	}
}

func randomWalk(rng *rand.Rand, n int) []geo.Point {
	p := roadnet.LondonCenter
	out := make([]geo.Point, n)
	for i := range out {
		p = geo.Offset(p, rng.Float64()*60-30, rng.Float64()*60-30)
		out[i] = p
	}
	return out
}

func TestFindBTMErrors(t *testing.T) {
	a := randomWalk(rand.New(rand.NewSource(1)), 10)
	if _, err := FindBTM(a, a, 1); err == nil {
		t.Error("l=1 should fail")
	}
	if _, err := FindBTM(a, a, 11); err != ErrTooShort {
		t.Errorf("too-long motif: want ErrTooShort, got %v", err)
	}
}

func TestFindGeodabRecoversSharedSegment(t *testing.T) {
	a, b, aShared, bShared := pathWithSharedSegment(8, 3, 4)
	f := core.MustFingerprinter(core.DefaultConfig())
	m, err := FindGeodab(f, a, b, 1200)
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance > 0.8 {
		t.Fatalf("geodab motif distance = %.3f, want well below 1 on a shared segment", m.Distance)
	}
	// The discovered windows overlap the shared ranges substantially.
	if ov := overlap(m.AStart, m.AEnd, aShared[0], aShared[1]); ov < 0.5 {
		t.Errorf("A motif [%d,%d) overlaps shared %v by only %.0f%%", m.AStart, m.AEnd, aShared, ov*100)
	}
	if ov := overlap(m.BStart, m.BEnd, bShared[0], bShared[1]); ov < 0.5 {
		t.Errorf("B motif [%d,%d) overlaps shared %v by only %.0f%%", m.BStart, m.BEnd, bShared, ov*100)
	}
	// Motif lengths approximate the requested ground length. Fingerprint
	// density is probabilistic (threshold effects, §VI-C), so allow a
	// factor of 2.
	for _, span := range [][2]int{{m.AStart, m.AEnd}, {m.BStart, m.BEnd}} {
		meters := groundLength(aOrB(a, b, span))
		if meters < 400 || meters > 2800 {
			t.Errorf("motif covers %.0f m, want ≈1200", meters)
		}
	}
}

// aOrB slices whichever trajectory the span belongs to; spans are only
// used with their own trajectory, so pick by bounds.
func aOrB(a, b []geo.Point, span [2]int) []geo.Point {
	if span[1] <= len(a) {
		return a[span[0]:span[1]]
	}
	return b[span[0]:span[1]]
}

func overlap(s1, e1, s2, e2 int) float64 {
	inter := min(e1, e2) - max(s1, s2)
	if inter <= 0 {
		return 0
	}
	return float64(inter) / float64(min(e1-s1, e2-s2))
}

func TestFindGeodabDisjointTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := core.MustFingerprinter(core.DefaultConfig())
	// Two straight trajectories far apart: no common fingerprints, so the
	// best window distance is 1.
	var a, b []geo.Point
	for i := 0; i < 400; i++ {
		a = append(a, noisy(geo.Offset(roadnet.LondonCenter, float64(i)*8, float64(i)*8), 5, rng))
		b = append(b, noisy(geo.Offset(roadnet.LondonCenter, 20000+float64(i)*8, float64(i)*8), 5, rng))
	}
	m, err := FindGeodab(f, a, b, 800)
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance < 1 {
		t.Errorf("disjoint trajectories should have distance 1, got %.3f", m.Distance)
	}
}

func TestFindGeodabErrors(t *testing.T) {
	f := core.MustFingerprinter(core.DefaultConfig())
	a, b, _, _ := pathWithSharedSegment(5, 6, 7)
	if _, err := FindGeodab(f, a, b, 0); err == nil {
		t.Error("zero length should fail")
	}
	if _, err := FindGeodab(f, a, b, 1e7); err != ErrTooShort {
		t.Errorf("huge motif: want ErrTooShort, got %v", err)
	}
	if _, err := FindGeodab(f, nil, b, 500); err != ErrTooShort {
		t.Errorf("empty trajectory: want ErrTooShort, got %v", err)
	}
	short := a[:40] // too short to fingerprint at all
	if _, err := FindGeodab(f, short, b, 500); err != ErrTooShort {
		t.Errorf("unfingerprinted trajectory: want ErrTooShort, got %v", err)
	}
}

func TestSortedSet(t *testing.T) {
	got := sortedSet([]uint32{5, 1, 5, 3, 1})
	want := []uint32{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("sortedSet = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sortedSet = %v, want %v", got, want)
		}
	}
	if out := sortedSet(nil); len(out) != 0 {
		t.Errorf("sortedSet(nil) = %v", out)
	}
}

func BenchmarkFindBTM(b *testing.B) {
	a, bb, _, _ := pathWithSharedSegment(0, 1, 2)
	a, bb = a[:200], bb[:200]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindBTM(a, bb, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFindGeodab(b *testing.B) {
	a, bb, _, _ := pathWithSharedSegment(8, 1, 2)
	f := core.MustFingerprinter(core.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FindGeodab(f, a, bb, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// FindBTMBrute is FindBTM without the endpoint pruning: the reference the
// tests check the bound's admissibility against.
func FindBTMBrute(a, b []geo.Point, l int) (Match, error) {
	if l < 2 {
		return Match{}, fmt.Errorf("motif: length %d too short", l)
	}
	if len(a) < l || len(b) < l {
		return Match{}, ErrTooShort
	}
	best := Match{Distance: math.Inf(1)}
	for i := 0; i+l <= len(a); i++ {
		for j := 0; j+l <= len(b); j++ {
			d := distance.DFD(a[i:i+l], b[j:j+l])
			if d < best.Distance {
				best = Match{AStart: i, AEnd: i + l, BStart: j, BEnd: j + l, Distance: d}
			}
		}
	}
	return best, nil
}
