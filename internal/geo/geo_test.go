package geo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// london and paris are reference points with a well-known separation.
var (
	london = Point{Lat: 51.5074, Lon: -0.1278}
	paris  = Point{Lat: 48.8566, Lon: 2.3522}
)

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name    string
		a, b    Point
		want    float64 // meters
		tolFrac float64
	}{
		{"london-paris", london, paris, 343_550, 0.005},
		{"same-point", london, london, 0, 0},
		{"equator-degree", Point{0, 0}, Point{0, 1}, 111_195, 0.001},
		{"meridian-degree", Point{0, 0}, Point{1, 0}, 111_195, 0.001},
		{"antipodal", Point{0, 0}, Point{0, -180}, math.Pi * EarthRadius, 0.001},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Haversine(tt.a, tt.b)
			if tol := tt.want * tt.tolFrac; math.Abs(got-tt.want) > tol+1e-9 {
				t.Errorf("Haversine(%v, %v) = %.1f, want %.1f ± %.1f", tt.a, tt.b, got, tt.want, tol)
			}
		})
	}
}

func TestHaversineSymmetric(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: randomPointPair}
	if err := quick.Check(func(a, b Point) bool {
		return math.Abs(Haversine(a, b)-Haversine(b, a)) < 1e-6
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b, c := randPoint(rng), randPoint(rng), randPoint(rng)
		if Haversine(a, c) > Haversine(a, b)+Haversine(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated for %v %v %v", a, b, c)
		}
	}
}

func TestOffsetMatchesHaversine(t *testing.T) {
	p := london
	q := Offset(p, 300, 400) // 3-4-5 triangle: 500 m displacement
	if d := Haversine(p, q); math.Abs(d-500) > 1 {
		t.Errorf("Offset displacement = %.2fm, want 500 ± 1", d)
	}
}

func TestOffsetDirections(t *testing.T) {
	q := Offset(london, 1000, 0)
	if q.Lat <= london.Lat || math.Abs(q.Lon-london.Lon) > 1e-9 {
		t.Errorf("north offset moved to %v", q)
	}
	q = Offset(london, 0, -1000)
	if q.Lon >= london.Lon || math.Abs(q.Lat-london.Lat) > 1e-9 {
		t.Errorf("west offset moved to %v", q)
	}
}

func TestInterpolate(t *testing.T) {
	a, b := Point{10, 20}, Point{20, 40}
	tests := []struct {
		f    float64
		want Point
	}{
		{-0.5, a},
		{0, a},
		{0.5, Point{15, 30}},
		{1, b},
		{1.5, b},
	}
	for _, tt := range tests {
		if got := Interpolate(a, b, tt.f); got != tt.want {
			t.Errorf("Interpolate(f=%.1f) = %v, want %v", tt.f, got, tt.want)
		}
	}
}

func TestNormalizeLon(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0},
		{180, -180},
		{-180, -180},
		{181, -179},
		{-181, 179},
		{540, -180},
		{359, -1},
	}
	for _, tt := range tests {
		if got := NormalizeLon(tt.in); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("NormalizeLon(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestBoxExtendContains(t *testing.T) {
	var b Box
	if b.nonEmpty {
		t.Fatal("zero box should be empty")
	}
	if b.Contains(Point{0, 0}) {
		t.Fatal("empty box should contain nothing")
	}
	b.Extend(Point{1, 1})
	b.Extend(Point{-1, 3})
	if !b.nonEmpty {
		t.Fatal("extended box should not be empty")
	}
	for _, p := range []Point{{0, 2}, {1, 1}, {-1, 3}, {0.5, 1.5}} {
		if !b.Contains(p) {
			t.Errorf("box should contain %v", p)
		}
	}
	for _, p := range []Point{{2, 2}, {0, 0}, {0, 4}} {
		if b.Contains(p) {
			t.Errorf("box should not contain %v", p)
		}
	}
	if c := b.Center(); c != (Point{0, 2}) {
		t.Errorf("Center = %v, want (0, 2)", c)
	}
}

func randPoint(rng *rand.Rand) Point {
	return Point{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
}

func randomPointPair(values []reflect.Value, rng *rand.Rand) {
	values[0] = reflect.ValueOf(randPoint(rng))
	values[1] = reflect.ValueOf(randPoint(rng))
}
