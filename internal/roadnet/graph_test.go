package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"geodabs/internal/geo"
)

// lineGraph builds a path graph of n nodes spaced 100 m apart heading
// east, all edges at 10 m/s.
func lineGraph(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.AddNode(geo.Offset(LondonCenter, 0, float64(i)*100))
	}
	for i := 0; i < n-1; i++ {
		if err := g.AddEdge(NodeID(i), NodeID(i+1), 10); err != nil {
			panic(err)
		}
	}
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := &Graph{}
	a := g.AddNode(LondonCenter)
	b := g.AddNode(geo.Offset(LondonCenter, 100, 0))
	tests := []struct {
		name    string
		from    NodeID
		to      NodeID
		speed   float64
		wantErr bool
	}{
		{"ok", a, b, 10, false},
		{"self-loop", a, a, 10, true},
		{"unknown-node", a, 99, 10, true},
		{"negative-node", -1, b, 10, true},
		{"zero-speed", a, b, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.from, tt.to, tt.speed)
			if (err != nil) != tt.wantErr {
				t.Errorf("AddEdge error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	// Undirected: both adjacency lists see the edge.
	if len(g.Neighbors(a)) != 1 || len(g.Neighbors(b)) != 1 {
		t.Error("edge should appear in both adjacency lists")
	}
	if got := g.Neighbors(a)[0].Length; math.Abs(got-100) > 1 {
		t.Errorf("edge length = %.1f, want ≈100", got)
	}
}

func TestShortestPathLine(t *testing.T) {
	g := lineGraph(10)
	r, err := g.ShortestPath(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 10 {
		t.Fatalf("route has %d nodes, want 10", len(r.Nodes))
	}
	if math.Abs(r.Length-900) > 2 {
		t.Errorf("Length = %.1f, want ≈900", r.Length)
	}
	if math.Abs(r.Duration-90) > 1 {
		t.Errorf("Duration = %.1f, want ≈90", r.Duration)
	}
	pts := r.Points(g)
	if len(pts) != 10 || pts[0] != g.Point(0) {
		t.Error("Points mapping broken")
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := lineGraph(3)
	r, err := g.ShortestPath(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Nodes) != 1 || r.Length != 0 || r.Duration != 0 {
		t.Errorf("trivial route = %+v", r)
	}
}

func TestShortestPathDisconnected(t *testing.T) {
	g := lineGraph(3)
	island := g.AddNode(geo.Offset(LondonCenter, 5000, 0))
	if _, err := g.ShortestPath(0, island); err != ErrNoRoute {
		t.Errorf("want ErrNoRoute, got %v", err)
	}
	if _, err := g.ShortestPath(0, 99); err == nil {
		t.Error("unknown node should error")
	}
}

func TestShortestPathPrefersFastRoad(t *testing.T) {
	// Two parallel paths: a short slow street and a longer fast arterial.
	g := &Graph{}
	a := g.AddNode(LondonCenter)
	b := g.AddNode(geo.Offset(LondonCenter, 0, 1000))
	slow := g.AddNode(geo.Offset(LondonCenter, 100, 500))
	fast := g.AddNode(geo.Offset(LondonCenter, -400, 500))
	mustEdge(t, g, a, slow, kmh(20))
	mustEdge(t, g, slow, b, kmh(20))
	mustEdge(t, g, a, fast, kmh(100))
	mustEdge(t, g, fast, b, kmh(100))
	r, err := g.ShortestPath(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes[1] != fast {
		t.Errorf("route went through node %d, want the arterial %d", r.Nodes[1], fast)
	}
}

func mustEdge(t *testing.T, g *Graph, a, b NodeID, speed float64) {
	t.Helper()
	if err := g.AddEdge(a, b, speed); err != nil {
		t.Fatal(err)
	}
}

func TestAStarMatchesDijkstra(t *testing.T) {
	city, err := GenerateCity(CityConfig{RadiusMeters: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		from := NodeID(rng.Intn(city.NumNodes()))
		to := NodeID(rng.Intn(city.NumNodes()))
		d, errD := city.ShortestPath(from, to)
		a, errA := city.AStar(from, to)
		if (errD == nil) != (errA == nil) {
			t.Fatalf("error mismatch: dijkstra %v, astar %v", errD, errA)
		}
		if errD != nil {
			continue
		}
		if math.Abs(d.Duration-a.Duration) > 1e-6 {
			t.Fatalf("duration mismatch: dijkstra %.3f, astar %.3f", d.Duration, a.Duration)
		}
	}
}

func TestDistancesWithin(t *testing.T) {
	g := lineGraph(10)
	dist := g.DistancesWithin(0, 350)
	// Nodes 0..3 are within 350 m along the line.
	for id := NodeID(0); id <= 3; id++ {
		want := float64(id) * 100
		if got, ok := dist[id]; !ok || math.Abs(got-want) > 2 {
			t.Errorf("dist[%d] = %v, want ≈%.0f", id, got, want)
		}
	}
	if _, ok := dist[4]; ok {
		t.Error("node 4 is beyond the bound")
	}
}

func TestLargestComponent(t *testing.T) {
	g := lineGraph(5)
	// An island pair.
	i1 := g.AddNode(geo.Offset(LondonCenter, 10000, 0))
	i2 := g.AddNode(geo.Offset(LondonCenter, 10100, 0))
	mustEdge(t, g, i1, i2, 10)
	lc := g.LargestComponent()
	if lc.NumNodes() != 5 {
		t.Fatalf("largest component has %d nodes, want 5", lc.NumNodes())
	}
	if lc.NumEdges() != 4 {
		t.Fatalf("largest component has %d edges, want 4", lc.NumEdges())
	}
	if _, err := lc.ShortestPath(0, 4); err != nil {
		t.Errorf("component should be connected: %v", err)
	}
}

func TestNearestNode(t *testing.T) {
	g := lineGraph(10)
	g.Freeze(250)
	query := geo.Offset(LondonCenter, 30, 420) // closest to node 4 (400 m east)
	id, d := g.NearestNode(query)
	if id != 4 {
		t.Errorf("NearestNode = %d, want 4", id)
	}
	if d > 50 {
		t.Errorf("distance = %.1f, want < 50", d)
	}
	// A far query still resolves (ring expansion).
	far := geo.Offset(LondonCenter, 20000, 20000)
	if id, _ := g.NearestNode(far); id != 9 {
		t.Errorf("far NearestNode = %d, want 9", id)
	}
}

func TestNearestNodePanicsWithoutFreeze(t *testing.T) {
	g := lineGraph(3)
	defer func() {
		if recover() == nil {
			t.Error("want panic before Freeze")
		}
	}()
	g.NearestNode(LondonCenter)
}

func TestNodesWithin(t *testing.T) {
	g := lineGraph(10)
	g.Freeze(250)
	got := g.NodesWithin(LondonCenter, 250)
	// Nodes 0, 1, 2 lie within 250 m.
	if len(got) != 3 {
		t.Fatalf("NodesWithin = %v, want 3 nodes", got)
	}
	// Ordered by distance.
	if got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("NodesWithin order = %v", got)
	}
	if empty := g.NodesWithin(geo.Offset(LondonCenter, 50000, 0), 100); len(empty) != 0 {
		t.Errorf("far query returned %v", empty)
	}
}

func TestGenerateCityProperties(t *testing.T) {
	cfg := CityConfig{RadiusMeters: 3000, Seed: 42}
	g, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() < 500 {
		t.Fatalf("city too small: %d nodes", g.NumNodes())
	}
	// Every node is inside the disk (with jitter slack).
	for i := 0; i < g.NumNodes(); i++ {
		if d := geo.Haversine(LondonCenter, g.Point(NodeID(i))); d > 3000+200 {
			t.Fatalf("node %d is %.0f m from center", i, d)
		}
	}
	// Connected by construction.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		from := NodeID(rng.Intn(g.NumNodes()))
		to := NodeID(rng.Intn(g.NumNodes()))
		if _, err := g.ShortestPath(from, to); err != nil {
			t.Fatalf("city not connected: %v", err)
		}
	}
	// Determinism: same seed, same city.
	g2, err := GenerateCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Errorf("same seed produced different city: %d/%d vs %d/%d nodes/edges",
			g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
	}
	// Different seed, different city.
	g3, err := GenerateCity(CityConfig{RadiusMeters: 3000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() == g.NumEdges() {
		t.Log("different seeds produced same edge count (possible but unlikely)")
	}
}

func TestGenerateCityValidation(t *testing.T) {
	if _, err := GenerateCity(CityConfig{RadiusMeters: 50, BlockMeters: 200}); err == nil {
		t.Error("radius smaller than a block should fail")
	}
	if _, err := GenerateCity(CityConfig{RemoveFraction: 0.9}); err == nil {
		t.Error("remove fraction 0.9 should fail")
	}
	if _, err := GenerateCity(CityConfig{BlockMeters: 5, RadiusMeters: 100}); err == nil {
		t.Error("tiny blocks should fail")
	}
}

func TestRandomRoute(t *testing.T) {
	g, err := GenerateCity(CityConfig{RadiusMeters: 3000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		r, err := RandomRoute(g, 2000, rng)
		if err != nil {
			t.Fatal(err)
		}
		if r.Length < 2000 {
			t.Errorf("route length %.0f below minimum", r.Length)
		}
		if r.Duration <= 0 {
			t.Errorf("route duration %.1f", r.Duration)
		}
	}
	if _, err := RandomRoute(g, 1e9, rng); err == nil {
		t.Error("impossible minimum length should fail")
	}
	if _, err := RandomRoute(&Graph{}, 10, rng); err == nil {
		t.Error("empty graph should fail")
	}
}

func TestWorldSampler(t *testing.T) {
	ws := NewWorldSampler(0, 1)
	pts := ws.SampleN(20000)
	if len(pts) != 20000 {
		t.Fatalf("SampleN returned %d points", len(pts))
	}
	// Most samples lie near some city; background samples spread farther
	// but stay within a few σ of the background spread.
	cities := WorldCities()
	counts := make(map[string]int)
	nearby := 0
	for _, p := range pts {
		bestName, bestD := "", math.Inf(1)
		for _, c := range cities {
			if d := geo.Haversine(p, c.Center); d < bestD {
				bestName, bestD = c.Name, d
			}
		}
		if bestD > 6*400_000 {
			t.Fatalf("sample %v is %f km from any city", p, bestD/1000)
		}
		if bestD <= 360_000 {
			nearby++
		}
		counts[bestName]++
	}
	// ≈70% of samples are metropolitan (σ = 60 km) plus the share of the
	// background that stays regional.
	if frac := float64(nearby) / float64(len(pts)); frac < 0.75 {
		t.Errorf("only %.0f%% of samples are near a city", frac*100)
	}
	// The heaviest city receives the most samples (allowing nearby-city
	// bleed): Mexico City should be at or near the top.
	if counts["Mexico City"] < counts["Berlin"] {
		t.Errorf("Mexico City (%d) should outweigh Berlin (%d)", counts["Mexico City"], counts["Berlin"])
	}
	// Determinism by seed.
	ws2 := NewWorldSampler(0, 1)
	if ws2.Sample() != NewWorldSampler(0, 1).Sample() {
		t.Error("same seed should reproduce samples")
	}
}

func TestWorldCitiesSorted(t *testing.T) {
	cities := WorldCities()
	if len(cities) < 60 {
		t.Fatalf("only %d cities embedded", len(cities))
	}
	for i := 1; i < len(cities); i++ {
		if cities[i].Weight > cities[i-1].Weight {
			t.Fatalf("cities not sorted by weight at %d", i)
		}
	}
	if cities[0].Name != "Mexico City" {
		t.Errorf("heaviest city = %s, want Mexico City (paper Fig 15)", cities[0].Name)
	}
	for _, c := range cities {
		if p := c.Center; p.Lat < -90 || p.Lat > 90 || p.Lon < -180 || p.Lon >= 180 {
			t.Errorf("%s has invalid coordinates %v", c.Name, c.Center)
		}
	}
}

func BenchmarkAStarCityRoute(b *testing.B) {
	g, err := GenerateCity(CityConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = RandomRoute(g, 3000, rng)
	}
}
