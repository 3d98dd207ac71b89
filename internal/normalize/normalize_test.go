package normalize

import (
	"math/rand"
	"testing"

	"geodabs/internal/geo"
	"geodabs/internal/geohash"
	"geodabs/internal/roadnet"
)

var testCity = func() *roadnet.Graph {
	g, err := roadnet.GenerateCity(roadnet.CityConfig{RadiusMeters: 2500, Seed: 17})
	if err != nil {
		panic(err)
	}
	return g
}()

func noisyLine(n int, noise float64, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Offset(roadnet.LondonCenter,
			float64(i)*10+rng.NormFloat64()*noise,
			float64(i)*10+rng.NormFloat64()*noise)
	}
	return pts
}

func TestGridNormalize(t *testing.T) {
	out, err := Grid{Depth: 36}.Normalize(noisyLine(200, 10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 || len(out) >= 200 {
		t.Fatalf("grid normalization returned %d points", len(out))
	}
	// Every output point is a cell center at depth 36.
	for i, p := range out {
		if c := geohash.Encode(p, 36).Center(); c != p {
			t.Fatalf("point %d is not a cell center: %v vs %v", i, p, c)
		}
		if i > 0 && out[i-1] == p {
			t.Fatalf("consecutive duplicate at %d", i)
		}
	}
}

func TestGridNormalizeDepths(t *testing.T) {
	pts := noisyLine(300, 10, 2)
	prev := -1
	for _, depth := range []uint8{32, 36, 40} {
		out, err := Grid{Depth: depth, SmoothWindow: -1, MinCellPoints: -1}.Normalize(pts)
		if err != nil {
			t.Fatal(err)
		}
		// Deeper grids produce finer (longer) sequences.
		if prev >= 0 && len(out) <= prev {
			t.Errorf("depth %d produced %d points, not more than %d", depth, len(out), prev)
		}
		prev = len(out)
	}
}

func TestGridNormalizeRejectsBadDepth(t *testing.T) {
	if _, err := (Grid{Depth: 61}).Normalize(noisyLine(10, 0, 3)); err == nil {
		t.Error("depth 61 should fail")
	}
}

// TestGridNormalizeShallowGrid covers grids shallower than the
// fingerprinter's default 16-bit prefix, which the grid never uses.
func TestGridNormalizeShallowGrid(t *testing.T) {
	for _, depth := range []uint8{1, 10, 15} {
		out, err := Grid{Depth: depth}.Normalize(noisyLine(50, 10, 4))
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if len(out) == 0 {
			t.Errorf("depth %d: no points", depth)
		}
	}
}

func TestGridNormalizeEmpty(t *testing.T) {
	out, err := Grid{}.Normalize(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("empty input produced %d points", len(out))
	}
}

// matchScenario generates a noisy trajectory along a known route and
// returns both.
func matchScenario(t *testing.T, seed int64) (truth []roadnet.NodeID, trace []geo.Point) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	route, err := roadnet.RandomRoute(testCity, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Sample the route directly for tight control over noise and spacing.
	legs := route.Legs(testCity)
	var pts []geo.Point
	for _, leg := range legs {
		steps := int(leg.Length/12) + 1
		for s := 0; s < steps; s++ {
			p := geo.Interpolate(leg.From, leg.To, float64(s)/float64(steps))
			pts = append(pts, geo.Offset(p, rng.NormFloat64()*14, rng.NormFloat64()*14))
		}
	}
	return route.Nodes, pts
}

func TestMapMatchRecoversRoute(t *testing.T) {
	truth, trace := matchScenario(t, 7)
	m := NewMapMatcher(testCity)
	matched, err := m.Match(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(matched) < len(truth)/2 {
		t.Fatalf("matched only %d nodes for a %d-node route", len(matched), len(truth))
	}
	// Most matched nodes lie on the true route.
	onRoute := make(map[roadnet.NodeID]bool, len(truth))
	for _, id := range truth {
		onRoute[id] = true
	}
	hits := 0
	for _, id := range matched {
		if onRoute[id] {
			hits++
		}
	}
	if frac := float64(hits) / float64(len(matched)); frac < 0.7 {
		t.Errorf("only %.0f%% of matched nodes are on the true route", frac*100)
	}
	// The expanded path must follow the network: consecutive nodes are
	// neighbors (or equal after deduplication).
	for i := 1; i < len(matched); i++ {
		adjacent := false
		for _, e := range testCity.Neighbors(matched[i-1]) {
			if e.To == matched[i] {
				adjacent = true
				break
			}
		}
		if !adjacent {
			t.Fatalf("expanded path jumps from %d to %d", matched[i-1], matched[i])
		}
	}
}

func TestMapMatchNormalizeInterface(t *testing.T) {
	_, trace := matchScenario(t, 8)
	var n Normalizer = NewMapMatcher(testCity)
	out, err := n.Normalize(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no output points")
	}
	// All output points are node positions of the graph.
	for _, p := range out {
		if _, d := testCity.NearestNode(p); d > 0.5 {
			t.Fatalf("output point %v is not a graph node (%.1f m away)", p, d)
		}
	}
}

func TestMapMatchFarFromNetwork(t *testing.T) {
	m := NewMapMatcher(testCity)
	far := []geo.Point{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 0.001}}
	if _, err := m.Match(far); err != ErrNoMatch {
		t.Errorf("want ErrNoMatch, got %v", err)
	}
	if _, err := m.Match(nil); err != ErrNoMatch {
		t.Errorf("empty input: want ErrNoMatch, got %v", err)
	}
}

func TestMapMatchNoGraph(t *testing.T) {
	m := &MapMatcher{}
	if _, err := m.Match([]geo.Point{{Lat: 1, Lon: 1}}); err == nil {
		t.Error("matcher without graph should error")
	}
}

func TestMapMatchSkipsOutages(t *testing.T) {
	truth, trace := matchScenario(t, 9)
	// Inject an outage: a far-away excursion in the middle.
	mid := len(trace) / 2
	outage := make([]geo.Point, len(trace)+5)
	copy(outage, trace[:mid])
	for i := 0; i < 5; i++ {
		outage[mid+i] = geo.Point{Lat: 0, Lon: 0}
	}
	copy(outage[mid+5:], trace[mid:])
	m := NewMapMatcher(testCity)
	matched, err := m.Match(outage)
	if err != nil {
		t.Fatal(err)
	}
	if len(matched) < len(truth)/2 {
		t.Errorf("outage broke the match: %d nodes", len(matched))
	}
}

func TestMapMatchDeterminism(t *testing.T) {
	_, trace := matchScenario(t, 10)
	m := NewMapMatcher(testCity)
	a, err := m.Match(trace)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Match(trace)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("map matching is not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("map matching is not deterministic")
		}
	}
}

func BenchmarkMapMatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	route, err := roadnet.RandomRoute(testCity, 2000, rng)
	if err != nil {
		b.Fatal(err)
	}
	var pts []geo.Point
	for _, leg := range route.Legs(testCity) {
		steps := int(leg.Length/12) + 1
		for s := 0; s < steps; s++ {
			p := geo.Interpolate(leg.From, leg.To, float64(s)/float64(steps))
			pts = append(pts, geo.Offset(p, rng.NormFloat64()*14, rng.NormFloat64()*14))
		}
	}
	m := NewMapMatcher(testCity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(pts); err != nil {
			b.Fatal(err)
		}
	}
}
