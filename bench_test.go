// Benchmarks regenerating the measured quantity of every figure in the
// paper's evaluation (one benchmark per figure), plus ablations of the
// design choices called out in DESIGN.md. The full parameter sweeps live
// in cmd/experiments; these benches pin the headline operating points so
// `go test -bench=. -benchmem` tracks them over time.
package geodabs_test

import (
	"context"
	"sync"
	"testing"

	"geodabs"

	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/eval"
	"geodabs/internal/gen"
	"geodabs/internal/geohash"
	"geodabs/internal/index"
	"geodabs/internal/motif"
	"geodabs/internal/roadnet"
	"geodabs/internal/shard"
	"geodabs/internal/trajectory"
)

// benchWorkload generates a moderate retrieval workload once per process.
var benchWorkload = sync.OnceValue(func() *gen.Output {
	city, err := roadnet.GenerateCity(roadnet.CityConfig{Seed: 7})
	if err != nil {
		panic(err)
	}
	cfg := gen.DefaultConfig()
	cfg.Routes = 50
	cfg.Seed = 7
	out, err := gen.Generate(city, cfg)
	if err != nil {
		panic(err)
	}
	return out
})

// benchLongTrajectories samples n trajectories of the given length.
var benchLongTrajectories = sync.OnceValue(func() [][]geodabs.Point {
	city, err := roadnet.GenerateCity(roadnet.CityConfig{Seed: 9})
	if err != nil {
		panic(err)
	}
	cfg := gen.DefaultConfig()
	cfg.Routes = 6
	cfg.TrajectoriesPerDirection = 1
	cfg.QueriesPerRoute = 0
	cfg.MinRouteMeters = 8000
	cfg.Seed = 9
	out, err := gen.Generate(city, cfg)
	if err != nil {
		panic(err)
	}
	pts := make([][]geodabs.Point, 0, out.Dataset.Len())
	for _, t := range out.Dataset.Trajectories {
		pts = append(pts, t.Points)
	}
	return pts
})

func builtIndex(b *testing.B, ex index.Extractor) *index.Inverted {
	b.Helper()
	ix := index.New(ex, false)
	if err := ix.AddAll(context.Background(), benchWorkload().Dataset, 8); err != nil {
		b.Fatal(err)
	}
	return ix
}

// rank runs one uncapped, unbounded ranked query.
func rank(b *testing.B, ix *index.Inverted, q *trajectory.Trajectory) []index.Result {
	results, _, err := ix.AppendSearchSet(context.Background(), nil, ix.Extractor().Extract(q.Points), 1, 0)
	if err != nil {
		b.Fatal(err)
	}
	return results
}

func geodabEx() index.GeodabExtractor {
	return index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
}

func cellEx(b *testing.B) index.CellExtractor {
	b.Helper()
	ex, err := index.NewCellExtractor(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return ex
}

// BenchmarkFig08Normalization measures one build-and-evaluate pass at the
// paper's chosen 36-bit grid (the sweep over 32-40 bits is
// `experiments fig8`).
func BenchmarkFig08Normalization(b *testing.B) {
	out := benchWorkload()
	for i := 0; i < b.N; i++ {
		ix := index.New(geodabEx(), false)
		if err := ix.AddAll(context.Background(), out.Dataset, 8); err != nil {
			b.Fatal(err)
		}
		runs := make([]eval.Run, 0, len(out.Queries))
		for _, q := range out.Queries[:20] {
			results := rank(b, ix, q)
			ranked := make([]trajectory.ID, len(results))
			for j, r := range results {
				ranked[j] = r.ID
			}
			rel := make(map[trajectory.ID]bool)
			for _, id := range out.Relevant[q.ID] {
				rel[id] = true
			}
			runs = append(runs, eval.Run{Ranked: ranked, Relevant: rel, Total: out.Dataset.Len()})
		}
		eval.InterpolatedPR(runs)
	}
}

// BenchmarkFig09DFDTenCandidates is the paper's worst case of Fig 9: DFD
// of a 1000-ish-point query against 5 candidates.
func BenchmarkFig09DFDTenCandidates(b *testing.B) {
	pts := benchLongTrajectories()
	query, candidates := pts[0], pts[1:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range candidates {
			distance.DFD(query, c)
		}
	}
}

// BenchmarkFig09GeodabsTenCandidates is the same workload scored by
// fingerprinting + Jaccard — the paper's flat line.
func BenchmarkFig09GeodabsTenCandidates(b *testing.B) {
	pts := benchLongTrajectories()
	f := core.MustFingerprinter(core.DefaultConfig())
	query, candidates := pts[0], pts[1:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qf := f.Fingerprint(query)
		for _, c := range candidates {
			distance.JaccardSorted(core.TermsOf(qf.Set), core.TermsOf(f.Fingerprint(c).Set))
		}
	}
}

// BenchmarkFig10DTWLong is Fig 10's right edge: DTW on long trajectories.
func BenchmarkFig10DTWLong(b *testing.B) {
	pts := benchLongTrajectories()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distance.DTW(pts[0], pts[1])
	}
}

// BenchmarkFig11MotifBTM and BenchmarkFig11MotifGeodabs compare motif
// discovery on one trajectory pair (Fig 11's per-candidate cost).
func BenchmarkFig11MotifBTM(b *testing.B) {
	pts := benchLongTrajectories()
	a, c := clip(pts[0], 300), clip(pts[1], 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := motif.FindBTM(a, c, 50); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11MotifGeodabs(b *testing.B) {
	pts := benchLongTrajectories()
	f := core.MustFingerprinter(core.DefaultConfig())
	a, c := clip(pts[0], 300), clip(pts[1], 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := motif.FindGeodab(f, a, c, 600); err != nil && err != motif.ErrTooShort {
			b.Fatal(err)
		}
	}
}

func clip(pts []geodabs.Point, n int) []geodabs.Point {
	if len(pts) > n {
		return pts[:n]
	}
	return pts
}

// BenchmarkFig12QueryGeodab and BenchmarkFig12QueryGeohash measure one
// ranked query against each index (the per-query cost behind the PR
// comparison).
func BenchmarkFig12QueryGeodab(b *testing.B) {
	ix := builtIndex(b, geodabEx())
	q := benchWorkload().Queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank(b, ix, q)
	}
}

func BenchmarkFig12QueryGeohash(b *testing.B) {
	ix := builtIndex(b, cellEx(b))
	q := benchWorkload().Queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank(b, ix, q)
	}
}

// BenchmarkFig13ROC measures computing the ROC curve + AUC over the
// query runs.
func BenchmarkFig13ROC(b *testing.B) {
	ix := builtIndex(b, geodabEx())
	out := benchWorkload()
	runs := make([]eval.Run, 0, len(out.Queries))
	for _, q := range out.Queries[:20] {
		results := rank(b, ix, q)
		ranked := make([]trajectory.ID, len(results))
		for j, r := range results {
			ranked[j] = r.ID
		}
		rel := make(map[trajectory.ID]bool)
		for _, id := range out.Relevant[q.ID] {
			rel[id] = true
		}
		runs = append(runs, eval.Run{Ranked: ranked, Relevant: rel, Total: out.Dataset.Len()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.AUC(eval.ROC(runs))
	}
}

// BenchmarkFig14HundredQueriesGeodab and ...Geohash measure the paper's
// Fig 14 quantity — a 100-query batch — at the bench workload's density.
func BenchmarkFig14HundredQueriesGeodab(b *testing.B) {
	ix := builtIndex(b, geodabEx())
	queries := benchWorkload().Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			rank(b, ix, queries[j%len(queries)])
		}
	}
}

func BenchmarkFig14HundredQueriesGeohash(b *testing.B) {
	ix := builtIndex(b, cellEx(b))
	queries := benchWorkload().Queries
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			rank(b, ix, queries[j%len(queries)])
		}
	}
}

// BenchmarkFig15WorldDistribution measures histogramming world samples
// into depth-16 cells.
func BenchmarkFig15WorldDistribution(b *testing.B) {
	sampler := roadnet.NewWorldSampler(0, 1)
	points := sampler.SampleN(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := make(map[uint64]int)
		for _, p := range points {
			counts[geohash.Encode(p, 16).CurvePosition()]++
		}
	}
}

// BenchmarkFig16ShardBalance measures computing the 10'000-shard balance
// over the world sample.
func BenchmarkFig16ShardBalance(b *testing.B) {
	sampler := roadnet.NewWorldSampler(0, 1)
	points := sampler.SampleN(100000)
	s := shard.Strategy{PrefixBits: 16, Shards: 10000, Nodes: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perShard := make([]int, s.Shards)
		for _, p := range points {
			perShard[s.ShardOf(uint32(geohash.Encode(p, 16).Bits)<<16)]++
		}
		s.BalanceOf(perShard)
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationPrefixStrategy compares the covering-prefix and
// centroid geodab prefix derivations.
func BenchmarkAblationPrefixStrategy(b *testing.B) {
	for _, strat := range []struct {
		name string
		s    core.PrefixStrategy
	}{{"cover", core.PrefixCover}, {"centroid", core.PrefixCentroid}} {
		b.Run(strat.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Strategy = strat.s
			f := core.MustFingerprinter(cfg)
			pts := benchLongTrajectories()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Fingerprint(pts)
			}
		})
	}
}

// BenchmarkAblationPrefixBits sweeps the geodab prefix width: wider
// prefixes localize more finely but leave fewer discriminating suffix
// bits.
func BenchmarkAblationPrefixBits(b *testing.B) {
	for _, bits := range []uint8{8, 16, 24} {
		b.Run(map[uint8]string{8: "p8", 16: "p16", 24: "p24"}[bits], func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.PrefixBits = bits
			f := core.MustFingerprinter(cfg)
			pts := benchLongTrajectories()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Fingerprint(pts)
			}
		})
	}
}

// BenchmarkAblationWindow sweeps the winnowing guarantee threshold t
// (window w = t−k+1): denser fingerprints cost more per trajectory.
func BenchmarkAblationWindow(b *testing.B) {
	for _, t := range []int{8, 12, 20} {
		b.Run(map[int]string{8: "t8", 12: "t12", 20: "t20"}[t], func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.T = t
			f := core.MustFingerprinter(cfg)
			pts := benchLongTrajectories()[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Fingerprint(pts)
			}
		})
	}
}
