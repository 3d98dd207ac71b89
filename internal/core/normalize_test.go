package core

import (
	"math/rand"
	"testing"

	"geodabs/internal/geo"
	"geodabs/internal/trajectory"
)

// TestSamplingRateInvariance checks the claim behind the paper's Fig 4:
// normalization makes trajectories recorded at different sampling rates
// converge to similar fingerprint sets. The same noisy path sampled at
// 1× and 3× density should fingerprint near-identically once resampled
// to a common spatial rate.
func TestSamplingRateInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := MustFingerprinter(DefaultConfig())
	dense := walk(1200, 8, rng) // ~4 m steps after the 3× densification below
	// Down-sample by taking every 3rd point: a slower recorder.
	var sparse []geo.Point
	for i := 0; i < len(dense); i += 3 {
		sparse = append(sparse, dense[i])
	}
	// Resample both to a common 10 m spatial rate before fingerprinting.
	a := f.Fingerprint(trajectory.Resample(dense, 10))
	b := f.Fingerprint(trajectory.Resample(sparse, 10))
	// The two recordings carry independent noise, so the ceiling is the
	// noisy-copy similarity (≈0.4 at this noise level), not 1.
	if j := jaccard(a, b); j < 0.3 {
		t.Errorf("sampling rates diverged: J = %.3f, want ≥ 0.3", j)
	}
	// Without resampling the divergence is real but bounded; with it, the
	// sets should be closer than the raw pair.
	rawA := f.Fingerprint(dense)
	rawB := f.Fingerprint(sparse)
	if jr, j := jaccard(rawA, rawB), jaccard(a, b); j < jr {
		t.Errorf("resampling should not hurt: J=%.3f raw vs %.3f resampled", jr, j)
	}
}

func TestSmooth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	noisy := walk(200, 20, rng)
	clean := walk(200, 0, nil)
	smoothed := smoothInto(nil, noisy, 5)
	if len(smoothed) != len(noisy) {
		t.Fatalf("smoothing changed length: %d → %d", len(noisy), len(smoothed))
	}
	// Smoothing reduces RMS error against the clean path.
	rms := func(pts []geo.Point) float64 {
		var sq float64
		for i := range pts {
			d := geo.Haversine(pts[i], clean[i])
			sq += d * d
		}
		return sq / float64(len(pts))
	}
	if rms(smoothed) >= rms(noisy) {
		t.Errorf("smoothing did not reduce noise: %.1f vs %.1f", rms(smoothed), rms(noisy))
	}
	// Window ≤ 1 is the identity.
	if got := smoothInto(nil, noisy, 1); &got[0] != &noisy[0] {
		t.Error("window 1 should return the input slice")
	}
	if got := smoothInto(nil, nil, 5); len(got) != 0 {
		t.Errorf("smoothInto(nil) = %v", got)
	}
}

func TestNormalizeDebounceAbsorbsJitter(t *testing.T) {
	// A path that flaps across one cell boundary: with debouncing the
	// one-point excursions disappear.
	cfg := DefaultConfig()
	cfg.SmoothWindow = 0 // isolate the debouncing effect
	f := MustFingerprinter(cfg)
	noDebounce := cfg
	noDebounce.MinCellPoints = 1
	g := MustFingerprinter(noDebounce)

	// Build the flapping sequence from two adjacent cell centers.
	aCell := f.Normalize([]geo.Point{london})[0]
	east := geo.Offset(london, 0, 120) // next cell east at 36 bits
	bCell := f.Normalize([]geo.Point{east})[0]
	if aCell.Hash == bCell.Hash {
		t.Fatal("test points landed in the same cell")
	}
	pts := []geo.Point{
		aCell.Center, aCell.Center, aCell.Center,
		bCell.Center, // one-point jitter
		aCell.Center, aCell.Center,
		bCell.Center, bCell.Center, bCell.Center, // genuine move
	}
	with := f.Normalize(pts)
	without := g.Normalize(pts)
	if len(with) != 2 {
		t.Errorf("debounced sequence has %d cells, want 2 (A, B)", len(with))
	}
	if len(without) != 4 {
		t.Errorf("raw sequence has %d cells, want 4 (A, B, A, B)", len(without))
	}
}

func TestNormalizeSinglePointAndShortRuns(t *testing.T) {
	f := MustFingerprinter(DefaultConfig())
	one := f.Normalize([]geo.Point{london})
	if len(one) != 1 || one[0].First != 0 || one[0].Last != 0 {
		t.Errorf("single point normalization = %+v", one)
	}
	if got := f.Normalize(nil); len(got) != 0 {
		t.Errorf("Normalize(nil) = %v", got)
	}
}

func TestGeodabSequenceShortInput(t *testing.T) {
	f := MustFingerprinter(DefaultConfig())
	cells := f.Normalize(walk(30, 0, nil))
	if len(cells) >= f.Config().K {
		cells = cells[:f.Config().K-1]
	}
	if got := f.GeodabSequence(cells); got != nil {
		t.Errorf("GeodabSequence of %d cells = %v, want nil", len(cells), got)
	}
}
