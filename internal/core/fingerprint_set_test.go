package core

import (
	"math/rand"
	"slices"
	"testing"

	"geodabs/internal/geo"
)

// randomWalk synthesizes a GPS-like trajectory: a heading-correlated walk
// with per-point jitter, so grid normalization exercises its debounce and
// jitter-folding branches.
func randomWalk(rng *rand.Rand, n int) []geo.Point {
	pts := make([]geo.Point, n)
	lat, lon := 51.5+rng.Float64()*0.1, -0.1+rng.Float64()*0.1
	heading := rng.Float64() * 6.28
	for i := range pts {
		heading += (rng.Float64() - 0.5) * 0.4
		step := 0.00005 + rng.Float64()*0.00005
		lat += step * 0.8
		lon += step * heading // crude but sufficient: direction drifts
		pts[i] = geo.Point{
			Lat: lat + (rng.Float64()-0.5)*0.00002,
			Lon: lon + (rng.Float64()-0.5)*0.00002,
		}
	}
	return pts
}

// TestFingerprintSetMatchesFingerprint pins the set-only fast path to the
// full pipeline: for any input the two must produce identical sets, or
// index searches and full fingerprints would disagree about the same
// trajectory.
func TestFingerprintSetMatchesFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	configs := []Config{
		DefaultConfig(),
		{K: 6, T: 12, NormDepth: 36, PrefixBits: 16, MinCellPoints: 1, SmoothWindow: 0},
		{K: 3, T: 5, NormDepth: 30, PrefixBits: 8, MinCellPoints: 3, SmoothWindow: 7, KeepShort: true},
		{K: 2, T: 2, NormDepth: 40, PrefixBits: 24, MinCellPoints: 2, SmoothWindow: 5},
		func() Config { c := DefaultConfig(); c.Strategy = PrefixCentroid; return c }(),
	}
	for ci, cfg := range configs {
		f := MustFingerprinter(cfg)
		for trial := 0; trial < 20; trial++ {
			pts := randomWalk(rng, rng.Intn(600))
			want := f.Fingerprint(pts).Set
			// Twice, so the second run exercises recycled scratch.
			for round := 0; round < 2; round++ {
				got := f.FingerprintSet(pts)
				if !slices.Equal(got, TermsOf(want)) {
					t.Fatalf("config %d trial %d round %d: FingerprintSet differs from Fingerprint().Set (%d vs %d terms)",
						ci, trial, round, len(got), want.Cardinality())
				}
			}
		}
		// Degenerate inputs.
		for _, pts := range [][]geo.Point{nil, randomWalk(rng, 1), randomWalk(rng, 3)} {
			want := f.Fingerprint(pts).Set
			if got := f.FingerprintSet(pts); !slices.Equal(got, TermsOf(want)) {
				t.Fatalf("config %d: degenerate input (%d points) differs", ci, len(pts))
			}
		}
	}
}

// TestFingerprintSetDoesNotAliasInput guards the no-smoothing path: the
// pooled scratch must never capture (and later scribble over) the
// caller's point slice.
func TestFingerprintSetDoesNotAliasInput(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SmoothWindow = 0
	f := MustFingerprinter(cfg)
	rng := rand.New(rand.NewSource(3))
	pts := randomWalk(rng, 300)
	orig := append([]geo.Point(nil), pts...)
	f.FingerprintSet(pts)
	f.FingerprintSet(randomWalk(rng, 400))
	for i := range pts {
		if pts[i] != orig[i] {
			t.Fatalf("point %d mutated by FingerprintSet", i)
		}
	}
}
