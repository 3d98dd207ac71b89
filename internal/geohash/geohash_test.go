package geohash

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"geodabs/internal/geo"
)

var london = geo.Point{Lat: 51.5074, Lon: -0.1278}

func TestEncodeKnownValues(t *testing.T) {
	// Reference values from the standard geohash algorithm: the base32
	// geohash of central London is "gcpvj0du…"; of Sydney "r3gx2…".
	tests := []struct {
		name  string
		p     geo.Point
		depth uint8
		want  string
	}{
		{"london-25", london, 25, "gcpvj"},
		{"sydney-25", geo.Point{Lat: -33.8688, Lon: 151.2093}, 25, "r3gx2"},
		{"null-island-10", geo.Point{Lat: 0, Lon: 0}, 10, "s0"},
		{"rio-15", geo.Point{Lat: -22.9068, Lon: -43.1729}, 15, "75c"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// Each base32 character is five bits of the hash, most
			// significant first.
			want := Hash{Depth: tt.depth}
			for _, c := range tt.want {
				want.Bits = want.Bits<<5 | uint64(strings.IndexRune("0123456789bcdefghjkmnpqrstuvwxyz", c))
			}
			if got := Encode(tt.p, tt.depth); got != want {
				t.Errorf("Encode(%v, %d) = %v, want %v (%q)", tt.p, tt.depth, got, want, tt.want)
			}
		})
	}
}

func TestEncodeFirstBits(t *testing.T) {
	// First bit: 1 iff lon >= 0. Second bit: 1 iff lat >= 0 (Fig 2a).
	tests := []struct {
		p    geo.Point
		want string
	}{
		{geo.Point{Lat: 45, Lon: 90}, "11"},
		{geo.Point{Lat: 45, Lon: -90}, "01"},
		{geo.Point{Lat: -45, Lon: 90}, "10"},
		{geo.Point{Lat: -45, Lon: -90}, "00"},
	}
	for _, tt := range tests {
		if got := Encode(tt.p, 2).String(); got != tt.want {
			t.Errorf("Encode(%v, 2) = %s, want %s", tt.p, got, tt.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000}
	f := func(latSeed, lonSeed uint32, depthSeed uint8) bool {
		p := geo.Point{
			Lat: float64(latSeed)/math.MaxUint32*180 - 90,
			Lon: float64(lonSeed)/math.MaxUint32*360 - 180,
		}
		depth := depthSeed%MaxDepth + 1
		h := Encode(p, depth)
		b := h.Bounds()
		if !b.Contains(p) {
			// The fixed-point clamp can push points on the extreme edge
			// into the last cell; allow a hair of tolerance.
			eps := 1e-7
			grown := geo.NewBox(
				geo.Point{Lat: b.MinLat - eps, Lon: b.MinLon - eps},
				geo.Point{Lat: b.MaxLat + eps, Lon: b.MaxLon + eps},
			)
			if !grown.Contains(p) {
				t.Logf("point %v outside bounds %+v of %s (depth %d)", p, b, h, depth)
				return false
			}
		}
		// Re-encoding the center must give the same hash.
		return Encode(h.Center(), depth) == h
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestPrefix: encoding at a shallower depth truncates the deeper hash, so
// each depth-d cell contains the depth-40 cell of the same point.
func TestPrefix(t *testing.T) {
	h := Encode(london, 40)
	for d := uint8(0); d <= 40; d++ {
		pre := Encode(london, d)
		if pre.Depth != d {
			t.Fatalf("Encode(london, %d).Depth = %d", d, pre.Depth)
		}
		if pre.Bits != h.Bits>>(40-d) {
			t.Fatalf("Encode(london, %d) = %v, not a prefix of the depth-40 hash %v", d, pre, h)
		}
		if !pre.Contains(london) {
			t.Fatalf("depth-%d cell does not contain the encoded point", d)
		}
	}
}

func TestString(t *testing.T) {
	if got := (Hash{}).String(); got != "ε" {
		t.Errorf("whole-earth String = %q", got)
	}
	h := Hash{Bits: 0b110101, Depth: 6}
	if got := h.String(); got != "110101" {
		t.Errorf("String = %q, want 110101", got)
	}
}

func TestCurvePositionLocality(t *testing.T) {
	// Points in the same depth-16 cell share the curve position prefix.
	a := Encode(london, 36)
	b := Encode(geo.Point{Lat: 51.52, Lon: -0.13}, 36)
	if (Hash{Bits: a.Bits >> 20, Depth: 16}).CurvePosition() != (Hash{Bits: b.Bits >> 20, Depth: 16}).CurvePosition() {
		t.Error("nearby points should share the depth-16 curve position")
	}
}

func TestSpreadCompactInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		v := rng.Uint32()
		if got := compact(spread(v)); got != v {
			t.Fatalf("compact(spread(%#x)) = %#x", v, got)
		}
	}
}

func TestEncodePanicsOnDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Encode with depth 61 should panic")
		}
	}()
	Encode(london, MaxDepth+1)
}

func BenchmarkEncode36(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Encode(london, 36)
	}
}

// TestEncoderMatchesEncode pins the streaming encoder's fast path to the
// one-shot Encode across depths, including cell-boundary hops and repeats.
func TestEncoderMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, depth := range []uint8{0, 1, 2, 5, 16, 36, 40, 60} {
		enc := NewEncoder(depth)
		lat, lon := 51.5, -0.12
		for i := 0; i < 2000; i++ {
			// Mostly tiny steps (same-cell hits), occasional jumps.
			step := 0.000001
			if rng.Intn(20) == 0 {
				step = 0.3
			}
			lat += (rng.Float64() - 0.5) * step
			lon += (rng.Float64() - 0.5) * step
			p := geo.Point{Lat: lat, Lon: lon}
			if got, want := enc.Encode(p), Encode(p, depth); got != want {
				t.Fatalf("depth %d point %v: Encoder %v, Encode %v", depth, p, got, want)
			}
		}
		// Domain edges (clamping paths).
		for _, p := range []geo.Point{{Lat: 90, Lon: 180}, {Lat: -90, Lon: -180}, {Lat: 0, Lon: 0}} {
			if got, want := enc.Encode(p), Encode(p, depth); got != want {
				t.Fatalf("depth %d edge %v: Encoder %v, Encode %v", depth, p, got, want)
			}
		}
	}
}
