package gen

import (
	"math"
	"testing"

	"geodabs/internal/geo"
	"geodabs/internal/roadnet"
	"geodabs/internal/trajectory"
)

// testCity caches a small city shared by the tests in this package.
var testCity = func() *roadnet.Graph {
	g, err := roadnet.GenerateCity(roadnet.CityConfig{RadiusMeters: 3000, Seed: 99})
	if err != nil {
		panic(err)
	}
	return g
}()

// smallConfig returns a fast configuration for tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Routes = 10
	cfg.MinRouteMeters = 1500
	return cfg
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		want   bool
	}{
		{"default", func(c *Config) {}, false},
		{"no-routes", func(c *Config) { c.Routes = 0 }, true},
		{"no-trajectories", func(c *Config) { c.TrajectoriesPerDirection = 0 }, true},
		{"negative-queries", func(c *Config) { c.QueriesPerRoute = -1 }, true},
		{"zero-hz", func(c *Config) { c.SampleHz = 0 }, true},
		{"negative-noise", func(c *Config) { c.NoiseMeters = -1 }, true},
		{"jitter-1", func(c *Config) { c.SpeedJitter = 1 }, true},
		{"short-routes", func(c *Config) { c.MinRouteMeters = 10 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if gotErr := cfg.Validate() != nil; gotErr != tt.want {
				t.Errorf("Validate error = %v, want error %v", cfg.Validate(), tt.want)
			}
		})
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := smallConfig()
	out, err := Generate(testCity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantData := cfg.Routes * 2 * cfg.TrajectoriesPerDirection
	if out.Dataset.Len() != wantData {
		t.Fatalf("dataset has %d trajectories, want %d", out.Dataset.Len(), wantData)
	}
	if len(out.Queries) != cfg.Routes*cfg.QueriesPerRoute {
		t.Fatalf("got %d queries, want %d", len(out.Queries), cfg.Routes*cfg.QueriesPerRoute)
	}
	// IDs are positional and dense.
	for i, tr := range out.Dataset.Trajectories {
		if tr.ID != trajectory.ID(i) {
			t.Fatalf("trajectory %d has ID %d", i, tr.ID)
		}
	}
	// Query IDs continue after dataset IDs and have ground truth.
	for i, q := range out.Queries {
		if q.ID != trajectory.ID(wantData+i) {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		rel := out.Relevant[q.ID]
		if len(rel) != cfg.TrajectoriesPerDirection {
			t.Fatalf("query %d has %d relevant results, want %d", i, len(rel), cfg.TrajectoriesPerDirection)
		}
		// Relevant trajectories share route and direction with the query.
		for _, id := range rel {
			dt := out.Dataset.ByID(id)
			if dt == nil {
				t.Fatalf("relevant ID %d not in dataset", id)
			}
			if dt.Route != q.Route || dt.Dir != q.Dir {
				t.Fatalf("relevant %d has route %d/%v, query has %d/%v", id, dt.Route, dt.Dir, q.Route, q.Dir)
			}
		}
	}
}

func TestGenerateSamplingRate(t *testing.T) {
	cfg := smallConfig()
	cfg.NoiseMeters = 0
	cfg.SpeedJitter = 0
	out, err := Generate(testCity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At 1 Hz and ≥30 km/h, consecutive samples are at most ~17 m apart
	// (60 km/h) and at least a few meters.
	tr := out.Dataset.Trajectories[0]
	if tr.Len() < 50 {
		t.Fatalf("trajectory too short: %d points for a %.0f m route", tr.Len(), cfg.MinRouteMeters)
	}
	var length float64
	for i := 1; i < tr.Len(); i++ {
		d := geo.Haversine(tr.Points[i-1], tr.Points[i])
		if d > 18 {
			t.Fatalf("samples %d–%d are %.1f m apart (faster than 60 km/h at 1 Hz)", i-1, i, d)
		}
		length += d
	}
	// The trajectory's ground length approximates the route length.
	if length < cfg.MinRouteMeters*0.9 {
		t.Errorf("trajectory covers %.0f m, route minimum is %.0f m", length, cfg.MinRouteMeters)
	}
}

func TestGenerateNoiseMagnitude(t *testing.T) {
	cfg := smallConfig()
	cfg.Routes = 3
	noisy, err := Generate(testCity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NoiseMeters = 0
	clean, err := Generate(testCity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same seed: pairwise comparison of the same trajectory with and
	// without noise. RMS displacement ≈ NoiseMeters.
	nt, ct := noisy.Dataset.Trajectories[0], clean.Dataset.Trajectories[0]
	if nt.Len() != ct.Len() {
		// Noise does not change timing, so lengths must match.
		t.Fatalf("noisy and clean lengths differ: %d vs %d", nt.Len(), ct.Len())
	}
	var sq float64
	for i := range nt.Points {
		d := geo.Haversine(nt.Points[i], ct.Points[i])
		sq += d * d
	}
	rms := math.Sqrt(sq / float64(nt.Len()))
	if rms < 12 || rms > 28 {
		t.Errorf("RMS noise = %.1f m, want ≈20", rms)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := smallConfig()
	cfg.Routes = 3
	a, err := Generate(testCity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testCity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset.Len() != b.Dataset.Len() {
		t.Fatal("same seed, different dataset size")
	}
	for i := range a.Dataset.Trajectories {
		ta, tb := a.Dataset.Trajectories[i], b.Dataset.Trajectories[i]
		if ta.Len() != tb.Len() {
			t.Fatalf("trajectory %d lengths differ", i)
		}
		for j := range ta.Points {
			if ta.Points[j] != tb.Points[j] {
				t.Fatalf("trajectory %d point %d differs", i, j)
			}
		}
	}
}

func TestSameRouteTrajectoriesAreSimilar(t *testing.T) {
	cfg := smallConfig()
	cfg.Routes = 3
	out, err := Generate(testCity, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two trajectories of the same route+direction stay within tens of
	// meters of each other's path; opposite directions reverse endpoints.
	a, b := out.Dataset.Trajectories[0], out.Dataset.Trajectories[1]
	if a.Route != b.Route || a.Dir != b.Dir {
		t.Fatal("first two trajectories should share route and direction")
	}
	if d := geo.Haversine(a.Points[0], b.Points[0]); d > 100 {
		t.Errorf("same-direction starts %.0f m apart", d)
	}
	rev := out.Dataset.Trajectories[cfg.TrajectoriesPerDirection] // first reverse
	if rev.Dir != trajectory.Reverse || rev.Route != a.Route {
		t.Fatal("expected first reverse trajectory of route 0")
	}
	if d := geo.Haversine(a.Points[0], rev.Points[len(rev.Points)-1]); d > 100 {
		t.Errorf("reverse end should be near forward start, %.0f m apart", d)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.Routes = 0
	if _, err := Generate(testCity, cfg); err == nil {
		t.Error("Generate should reject invalid config")
	}
}

func TestGenerateImpossibleRoutes(t *testing.T) {
	cfg := smallConfig()
	cfg.MinRouteMeters = 1e8
	if _, err := Generate(testCity, cfg); err == nil {
		t.Error("Generate should fail when no route is long enough")
	}
}
