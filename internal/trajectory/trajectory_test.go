package trajectory

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"geodabs/internal/geo"
)

func makeTrajectory(id ID, n int) *Trajectory {
	t := &Trajectory{ID: id, Route: uint32(id) / 20, Dir: Forward}
	base := geo.Point{Lat: 51.5, Lon: -0.12}
	for i := 0; i < n; i++ {
		t.Points = append(t.Points, geo.Offset(base, float64(i)*15, float64(i)*5))
	}
	return t
}

func TestCloneIndependence(t *testing.T) {
	tr := makeTrajectory(1, 3)
	c := tr.Clone()
	c.Points[0] = geo.Point{Lat: 0, Lon: 0}
	if tr.Points[0] == c.Points[0] {
		t.Error("clone shares point storage")
	}
}

func TestDatasetByID(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 10; i++ {
		d.Add(makeTrajectory(ID(i), 3))
	}
	if got := d.ByID(7); got == nil || got.ID != 7 {
		t.Errorf("ByID(7) = %v", got)
	}
	if got := d.ByID(99); got != nil {
		t.Errorf("ByID(99) = %v, want nil", got)
	}
	// Non-positional IDs still resolve via scan.
	scrambled := &Dataset{}
	scrambled.Add(makeTrajectory(5, 3))
	scrambled.Add(makeTrajectory(2, 3))
	if got := scrambled.ByID(2); got == nil || got.ID != 2 {
		t.Errorf("scan ByID(2) = %v", got)
	}
}

func TestDatasetTotals(t *testing.T) {
	d := &Dataset{}
	d.Add(makeTrajectory(0, 5))
	d.Add(makeTrajectory(1, 7))
	if d.Len() != 2 {
		t.Errorf("Len = %d", d.Len())
	}
	if d.TotalPoints() != 12 {
		t.Errorf("TotalPoints = %d", d.TotalPoints())
	}
}

func TestDirectionString(t *testing.T) {
	tests := []struct {
		d    Direction
		want string
	}{
		{Forward, "forward"},
		{Reverse, "reverse"},
		{DirectionUnknown, "unknown"},
		{Direction(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestE7RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1000; i++ {
		deg := rng.Float64()*360 - 180
		got := fromE7(toE7(deg))
		if math.Abs(got-deg) > 5e-8 {
			t.Fatalf("E7 round trip of %v = %v", deg, got)
		}
	}
}

func TestDatasetIORoundTrip(t *testing.T) {
	d := &Dataset{}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		tr := makeTrajectory(ID(i), rng.Intn(50))
		if i%3 == 0 {
			tr.Dir = Reverse
		}
		d.Add(tr)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatalf("WriteDataset: %v", err)
	}
	got, err := ReadDataset(&buf)
	if err != nil {
		t.Fatalf("ReadDataset: %v", err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("read %d trajectories, want %d", got.Len(), d.Len())
	}
	for i, want := range d.Trajectories {
		g := got.Trajectories[i]
		if g.ID != want.ID || g.Route != want.Route || g.Dir != want.Dir || g.Len() != want.Len() {
			t.Fatalf("trajectory %d metadata mismatch: %v vs %v", i, g, want)
		}
		for j := range want.Points {
			if math.Abs(g.Points[j].Lat-want.Points[j].Lat) > 5e-8 ||
				math.Abs(g.Points[j].Lon-want.Points[j].Lon) > 5e-8 {
				t.Fatalf("trajectory %d point %d drifted", i, j)
			}
		}
	}
}

func TestReadDatasetRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad-magic", []byte{9, 9, 9, 9, 1, 0, 0, 0, 0}},
		{"truncated", func() []byte {
			var buf bytes.Buffer
			d := &Dataset{}
			d.Add(makeTrajectory(0, 5))
			if err := WriteDataset(&buf, d); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()[:buf.Len()-3]
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadDataset(bytes.NewReader(tt.data)); err == nil {
				t.Error("ReadDataset should fail")
			}
		})
	}
}

func TestReadDatasetRejectsHugePointCount(t *testing.T) {
	var buf bytes.Buffer
	d := &Dataset{}
	d.Add(makeTrajectory(0, 1))
	if err := WriteDataset(&buf, d); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Point count lives after magic(4) + version(1) + count(4) + id(4) +
	// route(4) + dir(1) = byte offset 18.
	data[18], data[19], data[20], data[21] = 0xff, 0xff, 0xff, 0xff
	if _, err := ReadDataset(bytes.NewReader(data)); err == nil {
		t.Error("ReadDataset should reject absurd point counts")
	}
}
