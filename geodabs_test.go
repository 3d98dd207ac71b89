package geodabs_test

import (
	"context"
	"math"
	"sync"
	"testing"

	"geodabs"
)

// testWorld caches a small city + dataset for the public API tests.
var testWorld = sync.OnceValues(func() (g *geodabs.RoadNetwork, out *genOutput) {
	city, err := geodabs.GenerateCity(geodabs.CityConfig{RadiusMeters: 3000, Seed: 33})
	if err != nil {
		panic(err)
	}
	cfg := geodabs.DefaultDatasetConfig()
	cfg.Routes = 8
	cfg.TrajectoriesPerDirection = 4
	cfg.MinRouteMeters = 2000
	o, err := geodabs.GenerateDataset(city, cfg)
	if err != nil {
		panic(err)
	}
	return city, &genOutput{o.Dataset, o.Queries, o.Relevant}
})

type genOutput struct {
	Dataset  *geodabs.Dataset
	Queries  []*geodabs.Trajectory
	Relevant map[geodabs.ID][]geodabs.ID
}

// hits runs one search with a distance cutoff and a result limit (0 for
// none) and returns the ranked hits.
func hits(t testing.TB, s geodabs.Searcher, q *geodabs.Trajectory, maxDistance float64, limit int) []geodabs.Result {
	t.Helper()
	opts := []geodabs.SearchOption{geodabs.WithMaxDistance(maxDistance)}
	if limit > 0 {
		opts = append(opts, geodabs.WithKNN(limit))
	}
	res, err := s.Search(context.Background(), q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Hits
}

func TestPublicIndexRoundTrip(t *testing.T) {
	_, w := testWorld()
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != w.Dataset.Len() {
		t.Fatalf("Len = %d, want %d", idx.Len(), w.Dataset.Len())
	}
	q := w.Queries[0]
	results := hits(t, idx, q, 0.99, 10)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	// The top hit shares the query's route and direction.
	top := w.Dataset.ByID(results[0].ID)
	if top.Route != q.Route || top.Dir != q.Dir {
		t.Errorf("top result from route %d/%v, query route %d/%v", top.Route, top.Dir, q.Route, q.Dir)
	}
	stats := idx.Stats()
	if stats.Trajectories != idx.Len() || stats.Terms == 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestPublicGeohashBaseline(t *testing.T) {
	_, w := testWorld()
	base, err := geodabs.NewGeohashIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := base.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	if got := hits(t, base, w.Queries[0], 0.99, 5); len(got) == 0 {
		t.Error("baseline returned nothing")
	}
}

func TestPublicConfigValidation(t *testing.T) {
	if _, err := geodabs.NewIndex(geodabs.Config{}); err == nil {
		t.Error("zero config should be rejected")
	}
	if _, err := geodabs.NewGeohashIndex(geodabs.Config{}); err == nil {
		t.Error("zero config should be rejected")
	}
	if _, err := geodabs.NewFingerprinter(geodabs.Config{}); err == nil {
		t.Error("zero config should be rejected")
	}
}

func TestPublicFingerprintAndJaccard(t *testing.T) {
	_, w := testWorld()
	f, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := f.Fingerprint(w.Dataset.Trajectories[0].Points)
	b := f.Fingerprint(w.Dataset.Trajectories[1].Points)
	if len(a.Geodabs) == 0 {
		t.Fatal("no fingerprints")
	}
	d := geodabs.JaccardDistance(a, b)
	if d < 0 || d > 1 {
		t.Errorf("Jaccard distance = %v", d)
	}
	if self := geodabs.JaccardDistance(a, a); self != 0 {
		t.Errorf("self distance = %v", self)
	}
}

func TestPublicDistances(t *testing.T) {
	_, w := testWorld()
	p := w.Dataset.Trajectories[0].Points
	q := w.Dataset.Trajectories[1].Points
	if d := geodabs.DTW(p, q); d <= 0 || math.IsInf(d, 1) {
		t.Errorf("DTW = %v", d)
	}
	if d := geodabs.DFD(p, q); d <= 0 || math.IsInf(d, 1) {
		t.Errorf("DFD = %v", d)
	}
	if d := geodabs.Haversine(p[0], p[1]); d <= 0 {
		t.Errorf("Haversine = %v", d)
	}
}

func TestPublicMotifs(t *testing.T) {
	_, w := testWorld()
	// Two trajectories of the same route share (almost) everything.
	a := w.Dataset.Trajectories[0]
	b := w.Dataset.Trajectories[1]
	f, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := f.Motif(a.Points, b.Points, 800)
	if err != nil {
		t.Fatal(err)
	}
	if m.Distance > 0.9 {
		t.Errorf("same-route motif distance = %.3f", m.Distance)
	}
	exact, err := geodabs.FindMotifExact(a.Points[:80], b.Points[:80], 20)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Distance > 100 {
		t.Errorf("exact motif distance = %.1f m", exact.Distance)
	}
}

func TestPublicNormalization(t *testing.T) {
	city, w := testWorld()
	pts := w.Dataset.Trajectories[0].Points
	grid, err := geodabs.GridNormalize(36, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) == 0 || len(grid) >= len(pts) {
		t.Errorf("grid normalization: %d → %d points", len(pts), len(grid))
	}
	matched, err := geodabs.MapMatch(city, pts)
	if err != nil {
		t.Fatal(err)
	}
	if len(matched) == 0 {
		t.Error("map matching returned nothing")
	}
}

func TestPublicCluster(t *testing.T) {
	_, w := testWorld()
	var addrs []string
	for i := 0; i < 2; i++ {
		n, err := geodabs.StartShardNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		addrs = append(addrs, n.Addr())
	}
	cfg := geodabs.DefaultConfig()
	cl, err := geodabs.NewCluster(cfg, geodabs.ShardStrategy{PrefixBits: 16, Shards: 1000, Nodes: 2}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, tr := range w.Dataset.Trajectories {
		if err := cl.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	// Cluster results match the local index exactly.
	local, err := geodabs.NewIndex(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	q := w.Queries[0]
	want := hits(t, local, q, 0.99, 0)
	got := hits(t, cl, q, 0.99, 0)
	if len(got) != len(want) {
		t.Fatalf("cluster %d results, local %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
