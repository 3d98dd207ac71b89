package main

import (
	"context"
	"fmt"
	"math/rand"

	"geodabs/internal/core"
	"geodabs/internal/eval"
	"geodabs/internal/gen"
	"geodabs/internal/geo"
	"geodabs/internal/index"
	"geodabs/internal/roadnet"
	"geodabs/internal/trajectory"
)

// londonCity builds the evaluation road network: the paper's ≈300 km²
// disk around central London.
func londonCity(seed int64) (*roadnet.Graph, error) {
	return roadnet.GenerateCity(roadnet.CityConfig{Seed: seed})
}

// retrievalWorkload generates the dataset + queries used by the retrieval
// experiments (Figs 8, 12, 13, 14).
func retrievalWorkload(o options) (*gen.Output, error) {
	city, err := londonCity(o.seed)
	if err != nil {
		return nil, err
	}
	cfg := gen.DefaultConfig()
	cfg.Routes = o.routes
	cfg.Seed = o.seed
	out, err := gen.Generate(city, cfg)
	if err != nil {
		return nil, err
	}
	if len(out.Queries) > o.queries {
		out.Queries = out.Queries[:o.queries]
	}
	return out, nil
}

// buildIndex constructs an inverted index over the dataset with the given
// extractor.
func buildIndex(ex index.Extractor, d *trajectory.Dataset) (*index.Inverted, error) {
	ix := index.New(ex, false)
	if err := ix.AddAll(context.Background(), d, 8); err != nil {
		return nil, err
	}
	return ix, nil
}

// runsOf executes every query against the index and pairs the rankings
// with the ground truth.
func runsOf(ix *index.Inverted, out *gen.Output) []eval.Run {
	ctx := context.Background()
	runs := make([]eval.Run, 0, len(out.Queries))
	for _, q := range out.Queries {
		results, _, err := ix.AppendSearchSet(ctx, nil, ix.Extractor().Extract(q.Points), 1.0, 0)
		if err != nil {
			panic(err) // Background context: unreachable
		}
		ranked := make([]trajectory.ID, len(results))
		for i, r := range results {
			ranked[i] = r.ID
		}
		rel := make(map[trajectory.ID]bool, len(out.Relevant[q.ID]))
		for _, id := range out.Relevant[q.ID] {
			rel[id] = true
		}
		runs = append(runs, eval.Run{Ranked: ranked, Relevant: rel, Total: out.Dataset.Len()})
	}
	return runs
}

// geodabExtractor returns the paper's extractor at the given grid depth
// (0 = default 36 bits).
func geodabExtractor(depth uint8) (index.GeodabExtractor, error) {
	cfg := core.DefaultConfig()
	if depth != 0 {
		cfg.NormDepth = depth
	}
	f, err := core.NewFingerprinter(cfg)
	if err != nil {
		return index.GeodabExtractor{}, err
	}
	return index.GeodabExtractor{Fingerprinter: f}, nil
}

// longTrajectories samples trajectories of exactly points points, for the
// cost experiments (Figs 9-11). A vehicle drives its route out-and-back
// until enough 1 Hz samples accumulate, so any requested length is
// reachable on city-scale routes.
func longTrajectories(count, points int, seed int64) ([][]geo.Point, error) {
	city, err := londonCity(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cfg := gen.DefaultConfig()
	out := make([][]geo.Point, 0, count)
	for len(out) < count {
		route, err := roadnet.RandomRoute(city, 6000, rng)
		if err != nil {
			return nil, fmt.Errorf("sampling long trajectories: %w", err)
		}
		legs := route.Legs(city)
		var t []geo.Point
		for lap := 0; len(t) < points; lap++ {
			t = append(t, sampleAlong(legs, cfg, rng)...)
			legs = roadnet.ReverseLegs(legs)
		}
		out = append(out, t[:points])
	}
	return out, nil
}

// sampleAlong emits 1 Hz noisy samples along legs (a trimmed-down version
// of the generator's sampler, enough for the cost experiments).
func sampleAlong(legs []roadnet.Leg, cfg gen.Config, rng *rand.Rand) []geo.Point {
	var pts []geo.Point
	sigma := cfg.NoiseMeters / 1.4142
	emitAt, clock := 0.0, 0.0
	if len(legs) == 0 {
		return nil
	}
	pts = append(pts, noisy(legs[0].From, sigma, rng))
	emitAt++
	for _, leg := range legs {
		dur := leg.Length / leg.Speed
		for emitAt <= clock+dur {
			f := (emitAt - clock) / dur
			pts = append(pts, noisy(geo.Interpolate(leg.From, leg.To, f), sigma, rng))
			emitAt++
		}
		clock += dur
	}
	return pts
}

func noisy(p geo.Point, sigma float64, rng *rand.Rand) geo.Point {
	return geo.Offset(p, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
}
