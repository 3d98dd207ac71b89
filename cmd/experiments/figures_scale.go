package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"geodabs/internal/geo"
	"geodabs/internal/geohash"
	"geodabs/internal/index"
	"geodabs/internal/roadnet"
	"geodabs/internal/shard"
	"geodabs/internal/trajectory"
)

// runFig14 reproduces Figure 14: the average time to execute 100 queries
// against inverted indexes of growing density (up to 10'000 trajectories
// at the default -routes 500... the flag scales this). The geohash
// baseline cannot discriminate, so its candidate sets — and its ranking
// cost — grow with density much faster than the geodab index's.
func runFig14(o options) error {
	// Densest setting: routes × 20 trajectories.
	out, err := retrievalWorkload(o)
	if err != nil {
		return err
	}
	methods := retrievalMethods()
	indexes := make([]*index.Inverted, len(methods))
	for i, m := range methods {
		indexes[i] = index.New(m.ex, false)
	}
	queries := out.Queries

	ctx := context.Background()
	total := out.Dataset.Len()
	step := total / 10
	if step == 0 {
		step = total
	}
	row("trajectories", "geodabs_ms", "geohash_ms")
	for lo := 0; lo < total; lo += step {
		hi := min(lo+step, total)
		chunk := &trajectory.Dataset{Trajectories: out.Dataset.Trajectories[lo:hi]}
		times := make([]float64, len(methods))
		for i := range methods {
			if err := indexes[i].AddAll(ctx, chunk, 8); err != nil {
				return err
			}
			start := time.Now()
			for _, q := range queries {
				if _, _, err := indexes[i].AppendSearchSet(ctx, nil, indexes[i].Extractor().Extract(q.Points), 1.0, 0); err != nil {
					return err
				}
			}
			times[i] = ms(time.Since(start))
		}
		row(hi, times[0], times[1])
	}
	return nil
}

// runFig15 reproduces Figure 15: the distribution of trajectories over
// depth-16 geohash cells for a world-scale dataset. The synthetic world
// model shows the paper's shape: a few towering metropolitan peaks (the
// tallest around Mexico City) separated by oceanic voids.
func runFig15(o options) error {
	sampler := roadnet.NewWorldSampler(0, o.seed)
	counts := make(map[uint64]int)
	for i := 0; i < o.samples; i++ {
		h := geohash.Encode(sampler.Sample(), 16)
		counts[h.CurvePosition()]++
	}
	row("geohash_curve_position", "trajectories")
	positions := make([]int, 0, len(counts))
	for p := range counts {
		positions = append(positions, int(p))
	}
	sort.Ints(positions)
	for _, p := range positions {
		row(p, counts[uint64(p)])
	}
	// Summary: peaks and voids.
	fmt.Printf("# non-empty cells: %d of %d\n", len(counts), 1<<16)
	type peak struct {
		pos   uint64
		count int
	}
	var top peak
	for p, c := range counts {
		if c > top.count {
			top = peak{p, c}
		}
	}
	center := (geohash.Hash{Bits: top.pos, Depth: 16}).Center()
	name, d := nearestCity(center)
	fmt.Printf("# tallest peak: curve position %d (%d trajectories), %.0f km from %s (paper: Mexico City)\n",
		top.pos, top.count, d/1000, name)
	return nil
}

func nearestCity(p geo.Point) (string, float64) {
	best, bestD := "", -1.0
	for _, c := range roadnet.WorldCities() {
		if d := geo.Haversine(p, c.Center); bestD < 0 || d < bestD {
			best, bestD = c.Name, d
		}
	}
	return best, bestD
}

// runFig16 reproduces Figure 16: distributing the world dataset over a
// 10-node cluster. 100 shards leave nodes wildly unbalanced (whole dense
// regions land on one node); 10'000 shards slice the space-filling curve
// finely enough for the modulo step to even the load out.
func runFig16(o options) error {
	sampler := roadnet.NewWorldSampler(0, o.seed)
	points := sampler.SampleN(o.samples)
	row("shards", "node", "trajectories")
	for _, shards := range []int{100, 10000} {
		s := shard.Strategy{PrefixBits: 16, Shards: shards, Nodes: 10}
		perShard := make([]int, shards)
		for _, p := range points {
			g := uint32(geohash.Encode(p, 16).Bits) << 16
			perShard[s.ShardOf(g)]++
		}
		b := s.BalanceOf(perShard)
		for node, load := range b.PerNode {
			row(shards, node, load)
		}
		fmt.Printf("# %d shards: max/mean imbalance %.2f, CV %.3f\n", shards, b.Imbalance, b.CV)
	}
	return nil
}
