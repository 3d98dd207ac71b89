package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"geodabs/internal/gen"
	"geodabs/internal/geo"
	"geodabs/internal/roadnet"
)

// goldenDigests pins, per configuration, a SHA-256 of everything the
// extraction pipeline derives from a fixed input corpus. Snapshots and
// write-ahead logs hold fingerprint sets computed by this arithmetic, so
// a refactor of the pipeline must leave every digest unchanged.
var goldenDigests = map[string]string{
	"default":         "c42a8307b747fced886d56615eca988931dd20c9d790f6410f30bc4fd830910d",
	"min-cell-0":      "d85546501eff9412454759273c392f233e6ccd44aa8a0d6c944a7f8b043d5e50",
	"min-cell-1":      "d85546501eff9412454759273c392f233e6ccd44aa8a0d6c944a7f8b043d5e50",
	"min-cell-3":      "036c90ade99ea0b77e085ce2f4b113295e1e4582cb1057ccfbb985ab4c70f4a2",
	"even-smoothing":  "6259339d32875e770e572080d234297b3d91b5b0464366da931df820c5ade414",
	"keep-short":      "1ef8d2f30d11757ffb67ae780ece6cbe830c5d373d4fb16d2da68b7156999309",
	"prefix-centroid": "1f854141460131e95e75fc33838a9d3712e0e9bba07ee21a5ce3648e0a95bd27",
	"norm-depth-50":   "32e5a15760510ab0874c36082b81963b6975d7fc202a8ad99e90b3aae47874cf",
}

// goldenConfigs are the configurations goldenDigests covers: each
// reaches a branch of normalization, geodab derivation or winnowing the
// default does not.
func goldenConfigs() map[string]Config {
	with := func(mutate func(*Config)) Config {
		c := DefaultConfig()
		mutate(&c)
		return c
	}
	return map[string]Config{
		"default":    DefaultConfig(),
		"min-cell-0": with(func(c *Config) { c.MinCellPoints = 0 }),
		"min-cell-1": with(func(c *Config) { c.MinCellPoints = 1 }),
		"min-cell-3": with(func(c *Config) { c.MinCellPoints = 3 }),
		// An even window w averages w+1 points (half = w/2 on each side),
		// so 2 behaves as 3, not as the default 5.
		"even-smoothing":  with(func(c *Config) { c.SmoothWindow = 2 }),
		"keep-short":      with(func(c *Config) { c.KeepShort = true }),
		"prefix-centroid": with(func(c *Config) { c.Strategy = PrefixCentroid }),
		// Cell ids past 40 bits take fnvCell's full byte fold.
		"norm-depth-50": with(func(c *Config) { c.NormDepth = 50 }),
	}
}

// goldenCorpus is the fixed input set: seeded random walks of every
// length class, degenerate inputs, and a seeded generator corpus of
// road-constrained trajectories with GPS noise.
func goldenCorpus(t *testing.T) [][]geo.Point {
	t.Helper()
	rng := rand.New(rand.NewSource(20240601))
	corpus := [][]geo.Point{nil, randomWalk(rng, 1), randomWalk(rng, 2), randomWalk(rng, 3)}
	for i := 0; i < 40; i++ {
		corpus = append(corpus, randomWalk(rng, rng.Intn(800)))
	}
	city, err := roadnet.GenerateCity(roadnet.CityConfig{RadiusMeters: 3000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.DefaultConfig()
	cfg.Routes = 8
	out, err := gen.Generate(city, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range out.Dataset.Trajectories {
		corpus = append(corpus, tr.Points)
	}
	for _, q := range out.Queries {
		corpus = append(corpus, q.Points)
	}
	return corpus
}

// TestFingerprintGolden checks every derived value — cells with their
// raw-point ranges, the geodab sequence, the winnowed geodabs and their
// positions, and both set paths — against the pinned digests.
func TestFingerprintGolden(t *testing.T) {
	corpus := goldenCorpus(t)
	for name, cfg := range goldenConfigs() {
		f := MustFingerprinter(cfg)
		d := sha256.New()
		for _, pts := range corpus {
			writeExtraction(d, f, pts)
		}
		if got := hex.EncodeToString(d.Sum(nil)); got != goldenDigests[name] {
			t.Errorf("%s: digest %s, want %s", name, got, goldenDigests[name])
		}
	}
}

// writeExtraction feeds one trajectory's extraction into d, each list
// length-prefixed so that no two different extractions hash alike.
func writeExtraction(d hash.Hash, f *Fingerprinter, pts []geo.Point) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		d.Write(buf[:])
	}
	putCells := func(cells []Cell) {
		put(uint64(len(cells)))
		for _, c := range cells {
			put(c.Hash.Bits)
			put(uint64(c.Hash.Depth))
			put(math.Float64bits(c.Center.Lat))
			put(math.Float64bits(c.Center.Lon))
			put(uint64(c.First))
			put(uint64(c.Last))
		}
	}
	putAll := func(vs []uint32) {
		put(uint64(len(vs)))
		for _, v := range vs {
			put(uint64(v))
		}
	}
	cells := f.Normalize(pts)
	putCells(cells)
	putAll(f.GeodabSequence(cells))
	fp := f.Fingerprint(pts)
	putCells(fp.Cells)
	putAll(fp.Geodabs)
	put(uint64(len(fp.Positions)))
	for _, p := range fp.Positions {
		put(uint64(p))
	}
	putAll(fp.Set.ToSlice())
	putAll(f.FingerprintSet(pts))
}
