package core

import (
	"math/rand"
	"slices"
	"testing"

	"geodabs/internal/geo"
	"geodabs/internal/geohash"
)

var london = geo.Point{Lat: 51.5074, Lon: -0.1278}

// walk builds a raw 1 Hz-like trajectory heading diagonally north-east,
// stepping ~14 m per point so several points land in each 36-bit cell.
// A diagonal heading avoids running exactly along one grid boundary, which
// is pathological for any grid normalization (paper §V-A).
func walk(n int, noise float64, rng *rand.Rand) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		dn, de := float64(i)*10, float64(i)*10
		if noise > 0 {
			dn += rng.NormFloat64() * noise
			de += rng.NormFloat64() * noise
		}
		pts[i] = geo.Offset(london, dn, de)
	}
	return pts
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(c *Config) {}, false},
		{"k-too-small", func(c *Config) { c.K = 1 }, true},
		{"t-below-k", func(c *Config) { c.T = 3 }, true},
		{"t-equals-k", func(c *Config) { c.T = c.K }, false},
		{"depth-zero", func(c *Config) { c.NormDepth = 0 }, true},
		{"depth-too-big", func(c *Config) { c.NormDepth = 61 }, true},
		{"prefix-zero", func(c *Config) { c.PrefixBits = 0 }, true},
		{"prefix-32", func(c *Config) { c.PrefixBits = 32 }, true},
		{"prefix-deeper-than-grid", func(c *Config) { c.NormDepth, c.PrefixBits = 10, 16 }, true},
		{"prefix-as-deep-as-grid", func(c *Config) { c.NormDepth, c.PrefixBits = 16, 16 }, false},
		{"bad-strategy", func(c *Config) { c.Strategy = 99 }, true},
		{"centroid", func(c *Config) { c.Strategy = PrefixCentroid }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
			f, err2 := NewFingerprinter(cfg)
			if (err2 != nil) != tt.wantErr {
				t.Errorf("NewFingerprinter error = %v, wantErr %v", err2, tt.wantErr)
			}
			if err2 == nil {
				// Every accepted configuration must fingerprint, even a line
				// that crosses the coarsest grid's cells.
				line := make([]geo.Point, 200)
				for i := range line {
					line[i] = geo.Point{Lat: -80 + float64(i)*0.8, Lon: -179 + float64(i)*1.79}
				}
				f.Fingerprint(line)
			}
		})
	}
}

func TestMustFingerprinterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustFingerprinter should panic on invalid config")
		}
	}()
	MustFingerprinter(Config{})
}

func TestWindow(t *testing.T) {
	if got := DefaultConfig().Window(); got != 7 {
		t.Errorf("Window = %d, want 7 (t=12, k=6)", got)
	}
}

func TestNormalizeDeduplicates(t *testing.T) {
	f := MustFingerprinter(DefaultConfig())
	pts := walk(100, 0, nil)
	cells := f.Normalize(pts)
	if len(cells) == 0 || len(cells) >= len(pts) {
		t.Fatalf("normalization should shrink the sequence: %d cells from %d points", len(cells), len(pts))
	}
	for i := 1; i < len(cells); i++ {
		if cells[i].Hash == cells[i-1].Hash {
			t.Fatalf("consecutive duplicate cell at %d", i)
		}
	}
	// Point ranges must tile the raw sequence.
	next := 0
	for i, c := range cells {
		if c.First != next {
			t.Fatalf("cell %d starts at point %d, want %d", i, c.First, next)
		}
		if c.Last < c.First {
			t.Fatalf("cell %d has inverted range", i)
		}
		next = c.Last + 1
	}
	if next != len(pts) {
		t.Fatalf("cells cover %d points, want %d", next, len(pts))
	}
	// Centers must be the cell centers.
	for i, c := range cells {
		if c.Center != c.Hash.Center() {
			t.Fatalf("cell %d center mismatch", i)
		}
	}
}

func TestNormalizeAbsorbsNoise(t *testing.T) {
	// Two noisy copies of the same path should normalize to mostly equal
	// cell sequences at 36 bits (cells ≈95×76 m vs 10 m noise).
	rng := rand.New(rand.NewSource(42))
	f := MustFingerprinter(DefaultConfig())
	a := f.Normalize(walk(300, 10, rng))
	b := f.Normalize(walk(300, 10, rng))
	inter := 0
	seen := map[uint64]bool{}
	for _, c := range a {
		seen[c.Hash.Bits] = true
	}
	for _, c := range b {
		if seen[c.Hash.Bits] {
			inter++
		}
	}
	if frac := float64(inter) / float64(len(b)); frac < 0.7 {
		t.Errorf("only %.0f%% of cells shared between noisy copies", frac*100)
	}
}

func TestGeodabDeterministic(t *testing.T) {
	f := MustFingerprinter(DefaultConfig())
	cells := f.Normalize(walk(60, 0, nil))
	k := f.Config().K
	g1 := f.GeodabSequence(cells[:k])[0]
	g2 := f.GeodabSequence(cells[:k])[0]
	if g1 != g2 {
		t.Error("geodab of identical k-grams differs")
	}
}

func TestGeodabPrefixIsLocal(t *testing.T) {
	f := MustFingerprinter(DefaultConfig())
	cells := f.Normalize(walk(60, 0, nil))
	k := f.Config().K
	g := f.GeodabSequence(cells[:k])[0]
	p := f.Config().PrefixBits
	prefix := geohash.Hash{Bits: uint64(g >> (GeodabBits - p)), Depth: p}
	// The prefix cell must contain the k-gram's first cell center.
	if !prefix.Contains(cells[0].Center) {
		t.Errorf("prefix %s does not contain the k-gram", prefix)
	}
	// And it must equal the depth-16 geohash of the area.
	want := geohash.Encode(london, 16)
	if prefix != want {
		t.Errorf("prefix = %v, want %v", prefix, want)
	}
}

func TestGeodabDiscriminatesDirection(t *testing.T) {
	f := MustFingerprinter(DefaultConfig())
	cells := f.Normalize(walk(60, 0, nil))
	k := f.Config().K
	kgram := cells[:k]
	reversed := make([]Cell, k)
	for i := range kgram {
		reversed[i] = kgram[k-1-i]
	}
	g, rg := f.GeodabSequence(kgram)[0], f.GeodabSequence(reversed)[0]
	if g == rg {
		t.Error("geodab does not discriminate direction")
	}
	// Same area ⇒ same prefix; different order ⇒ different suffix.
	p := f.Config().PrefixBits
	if g>>(GeodabBits-p) != rg>>(GeodabBits-p) {
		t.Error("reversed k-gram changed the spatial prefix")
	}
}

func TestCentroidStrategy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Strategy = PrefixCentroid
	f := MustFingerprinter(cfg)
	cells := f.Normalize(walk(60, 0, nil))
	g := f.GeodabSequence(cells[:cfg.K])[0]
	prefix := geohash.Hash{Bits: uint64(g >> (GeodabBits - cfg.PrefixBits)), Depth: cfg.PrefixBits}
	if !prefix.Contains(london) {
		t.Errorf("centroid prefix %s is not local", prefix)
	}
}

func TestFingerprintPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := MustFingerprinter(DefaultConfig())
	fp := f.Fingerprint(walk(600, 15, rng))
	if len(fp.Geodabs) == 0 {
		t.Fatal("no fingerprints extracted")
	}
	if len(fp.Geodabs) != len(fp.Positions) {
		t.Fatalf("geodabs/positions length mismatch: %d vs %d", len(fp.Geodabs), len(fp.Positions))
	}
	// Winnowing should select a fraction ≈2/(w+1) of candidates.
	candidates := len(fp.Cells) - f.Config().K + 1
	if len(fp.Geodabs) >= candidates {
		t.Errorf("winnowing selected %d of %d candidates", len(fp.Geodabs), candidates)
	}
	// Positions reference k-gram starts.
	for i, p := range fp.Positions {
		if p < 0 || p+f.Config().K > len(fp.Cells) {
			t.Fatalf("position %d out of range", p)
		}
		if i > 0 && p <= fp.Positions[i-1] {
			t.Fatalf("positions not increasing at %d", i)
		}
		// Recomputing the geodab at the position must reproduce it.
		if g := f.GeodabSequence(fp.Cells[p : p+f.Config().K])[0]; g != fp.Geodabs[i] {
			t.Fatalf("geodab at position %d does not match", p)
		}
	}
	// The set holds exactly the distinct geodab values.
	distinct := map[uint32]bool{}
	for _, g := range fp.Geodabs {
		distinct[g] = true
	}
	if fp.Set.Cardinality() != len(distinct) {
		t.Errorf("set cardinality %d, want %d", fp.Set.Cardinality(), len(distinct))
	}
}

func TestFingerprintShortTrajectory(t *testing.T) {
	f := MustFingerprinter(DefaultConfig())
	short := walk(30, 0, nil) // ~4 cells < T
	fp := f.Fingerprint(short)
	if fp.Set.Cardinality() != 0 {
		t.Errorf("strict fingerprinter should drop short trajectories, got %d", fp.Set.Cardinality())
	}
	// Dropped, the set is still a set: empty, not the zero Set.
	if TermsOf(fp.Set) == nil || f.FingerprintSet(short) == nil {
		t.Error("a short trajectory's set should be empty, not nil")
	}
	cfg := DefaultConfig()
	cfg.KeepShort = true
	if kept := MustFingerprinter(cfg).Fingerprint(short); kept.Set.Cardinality() == 0 {
		t.Error("KeepShort fingerprinter should keep short trajectories")
	}
	// Genuinely empty input stays empty either way.
	if fp := MustFingerprinter(cfg).Fingerprint(nil); fp.Set.Cardinality() != 0 {
		t.Error("empty input should have no fingerprints")
	}
}

func TestFingerprintSimilarTrajectoriesOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := MustFingerprinter(DefaultConfig())
	a := f.Fingerprint(walk(800, 15, rng))
	b := f.Fingerprint(walk(800, 15, rng))
	c := f.Fingerprint(reversePoints(walk(800, 15, rng)))

	sim := jaccard(a, b)
	rev := jaccard(a, c)
	if sim < 0.08 {
		t.Errorf("similar trajectories share too little: J = %.3f", sim)
	}
	if rev > sim/3 {
		t.Errorf("reverse direction too similar: J = %.3f vs %.3f", rev, sim)
	}
}

func jaccard(a, b *Fingerprint) float64 {
	inter := 0
	seen := map[uint32]bool{}
	for _, v := range TermsOf(a.Set) {
		seen[v] = true
	}
	union := a.Set.Cardinality()
	for _, v := range TermsOf(b.Set) {
		if seen[v] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func reversePoints(pts []geo.Point) []geo.Point {
	out := make([]geo.Point, len(pts))
	for i, p := range pts {
		out[len(pts)-1-i] = p
	}
	return out
}

func TestFingerprinterConcurrentUse(t *testing.T) {
	f := MustFingerprinter(DefaultConfig())
	pts := walk(400, 0, nil)
	want := f.Fingerprint(pts)
	done := make(chan *Fingerprint, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- f.Fingerprint(pts) }()
	}
	for i := 0; i < 8; i++ {
		got := <-done
		if !slices.Equal(got.Set.ToSlice(), want.Set.ToSlice()) {
			t.Fatal("concurrent fingerprinting is not deterministic")
		}
	}
}

func BenchmarkFingerprint1000Points(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := MustFingerprinter(DefaultConfig())
	pts := walk(1000, 15, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Fingerprint(pts)
	}
}

func BenchmarkFingerprintSet1000Points(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := MustFingerprinter(DefaultConfig())
	pts := walk(1000, 15, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.FingerprintSet(pts)
	}
}

// BenchmarkNormalize1000Points times the first stage of FingerprintSet
// on its input: smoothing, grid snapping and debouncing into scratch.
func BenchmarkNormalize1000Points(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := MustFingerprinter(DefaultConfig())
	pts := walk(1000, 15, rng)
	sc := &fpScratch{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.normalize(sc, pts)
	}
}

// BenchmarkGeodabs1000Points times the second stage of FingerprintSet on
// the same input: the geodab of every k-gram of the normalized cells.
func BenchmarkGeodabs1000Points(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := MustFingerprinter(DefaultConfig())
	sc := &fpScratch{}
	f.normalize(sc, walk(1000, 15, rng))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.candidates = f.geodabsInto(sc.candidates[:0], sc.hashes)
	}
}
