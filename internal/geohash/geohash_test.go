package geohash

import (
	"math"
	"math/rand"
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
			got, err := Encode(tt.p, tt.depth).Base32()
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Encode(%v, %d) = %q, want %q", tt.p, tt.depth, got, tt.want)
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

func TestPrefix(t *testing.T) {
	h := Encode(london, 40)
	for d := uint8(0); d <= 40; d++ {
		pre := h.Prefix(d)
		if pre.Depth != d {
			t.Fatalf("Prefix(%d).Depth = %d", d, pre.Depth)
		}
		if !pre.IsPrefixOf(h) {
			t.Fatalf("Prefix(%d) not a prefix of the full hash", d)
		}
		if !pre.Contains(london) {
			t.Fatalf("Prefix(%d) cell does not contain the encoded point", d)
		}
	}
}

func TestBase32RoundTrip(t *testing.T) {
	h := Encode(london, 40)
	s, err := h.Base32()
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromBase32(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Errorf("FromBase32(%q) = %v, want %v", s, back, h)
	}
	if _, err := Encode(london, 36).Base32(); err == nil {
		t.Error("Base32 of depth 36 should fail (not a multiple of 5)")
	}
	if _, err := FromBase32("a"); err == nil {
		t.Error(`FromBase32("a") should fail: 'a' is not in the alphabet`)
	}
	if _, err := FromBase32("0123456789012"); err == nil {
		t.Error("FromBase32 of 13 chars (65 bits) should fail")
	}
	if up, err := FromBase32("GCPVJ"); err != nil || up != Encode(london, 25) {
		t.Errorf("FromBase32 should accept upper case, got %v, %v", up, err)
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

func TestCellSize(t *testing.T) {
	// Paper §VI-A2: "In London, a geohash of 36 bits has a width of 95
	// meters and a height of 76 meters."
	w, h := CellSize(36, london.Lat)
	if math.Abs(w-95) > 3 {
		t.Errorf("36-bit cell width in London = %.1fm, want ≈95m", w)
	}
	if math.Abs(h-76) > 3 {
		t.Errorf("36-bit cell height in London = %.1fm, want ≈76m", h)
	}
	// Paper §VI-E: depth-16 cells are ≈156 km wide at the equator.
	w, _ = CellSize(16, 0)
	if math.Abs(w-156_000) > 5000 {
		t.Errorf("16-bit cell width at equator = %.0fm, want ≈156km", w)
	}
}

func TestNeighbor(t *testing.T) {
	h := Encode(london, 30)
	for _, dir := range []Direction{North, South, East, West} {
		n := h.Neighbor(dir)
		if n == h {
			t.Errorf("neighbor %d equals the cell itself", dir)
		}
		if n.Depth != h.Depth {
			t.Errorf("neighbor depth = %d, want %d", n.Depth, h.Depth)
		}
		// Neighbors must be adjacent: bounds intersect after a hair of
		// growth, and centers are within ~2 cell diagonals.
		hw, hh := CellSize(30, london.Lat)
		if d := geo.Haversine(h.Center(), n.Center()); d > 2*math.Hypot(hw, hh) {
			t.Errorf("neighbor %d center %.0fm away", dir, d)
		}
	}
	// Polar edge: the northern neighbor at the pole is the cell itself.
	pole := Encode(geo.Point{Lat: 89.99, Lon: 0}, 10)
	if n := pole.Neighbor(North); n != pole {
		t.Errorf("north of polar cell = %v, want the cell itself", n)
	}
}

func TestNeighborRoundTrip(t *testing.T) {
	h := Encode(london, 26)
	if got := h.Neighbor(East).Neighbor(West); got != h {
		t.Errorf("E then W = %v, want %v", got, h)
	}
	if got := h.Neighbor(North).Neighbor(South); got != h {
		t.Errorf("N then S = %v, want %v", got, h)
	}
}

func TestCurvePositionLocality(t *testing.T) {
	// Points in the same depth-16 cell share the curve position prefix.
	a := Encode(london, 36)
	b := Encode(geo.Point{Lat: 51.52, Lon: -0.13}, 36)
	if a.Prefix(16).CurvePosition() != b.Prefix(16).CurvePosition() {
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
