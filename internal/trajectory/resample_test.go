package trajectory

import (
	"math"
	"testing"

	"geodabs/internal/geo"
)

func TestResampleSpacing(t *testing.T) {
	// A 1 km line sampled every 5 m, resampled to 50 m spacing.
	base := geo.Point{Lat: 51.5, Lon: -0.12}
	var pts []geo.Point
	for i := 0; i <= 200; i++ {
		pts = append(pts, geo.Offset(base, 0, float64(i)*5))
	}
	out := Resample(pts, 50)
	if len(out) < 19 || len(out) > 23 {
		t.Fatalf("resampled to %d points, want ≈21", len(out))
	}
	for i := 1; i < len(out)-1; i++ {
		d := geo.Haversine(out[i-1], out[i])
		if math.Abs(d-50) > 2 {
			t.Fatalf("spacing %d–%d = %.1f m, want 50", i-1, i, d)
		}
	}
	// Endpoints preserved.
	if out[0] != pts[0] {
		t.Error("start point lost")
	}
	if out[len(out)-1] != pts[len(pts)-1] {
		t.Error("end point lost")
	}
}

func TestResampleUpAndDown(t *testing.T) {
	base := geo.Point{Lat: 51.5, Lon: -0.12}
	var sparse []geo.Point
	for i := 0; i <= 10; i++ {
		sparse = append(sparse, geo.Offset(base, 0, float64(i)*100))
	}
	// Up-sampling a sparse trace adds points.
	dense := Resample(sparse, 10)
	if len(dense) <= len(sparse) {
		t.Errorf("up-sampling: %d → %d points", len(sparse), len(dense))
	}
	// The resampled path stays on the original polyline: each point's
	// distance to its nearest segment, on a flat projection about the
	// segment's start, is under a meter.
	const mPerDeg = 2 * math.Pi * geo.EarthRadius / 360
	for _, p := range dense {
		best := math.Inf(1)
		for i := 1; i < len(sparse); i++ {
			a, b := sparse[i-1], sparse[i]
			cos := math.Cos(a.Lat * math.Pi / 180)
			dx, dy := (b.Lon-a.Lon)*mPerDeg*cos, (b.Lat-a.Lat)*mPerDeg
			px, py := (p.Lon-a.Lon)*mPerDeg*cos, (p.Lat-a.Lat)*mPerDeg
			f := min(max((px*dx+py*dy)/(dx*dx+dy*dy), 0), 1)
			best = min(best, math.Hypot(px-f*dx, py-f*dy))
		}
		if best > 1 {
			t.Fatalf("resampled point %.1f m off the path", best)
		}
	}
}

func TestResampleEdgeCases(t *testing.T) {
	if got := Resample(nil, 10); len(got) != 0 {
		t.Errorf("Resample(nil) = %v", got)
	}
	p := []geo.Point{{Lat: 1, Lon: 1}}
	if got := Resample(p, 10); len(got) != 1 {
		t.Errorf("single point resampled to %d", len(got))
	}
	// Non-positive spacing returns input unchanged.
	if got := Resample(p, 0); len(got) != 1 {
		t.Errorf("zero spacing returned %d points", len(got))
	}
	// Duplicate points (zero-length legs) do not crash or divide by zero.
	dup := []geo.Point{{Lat: 1, Lon: 1}, {Lat: 1, Lon: 1}, {Lat: 1.001, Lon: 1}}
	if got := Resample(dup, 20); len(got) < 2 {
		t.Errorf("duplicate-point input resampled to %d", len(got))
	}
}
