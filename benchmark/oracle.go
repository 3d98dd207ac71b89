package main

import (
	"context"
	"fmt"
	"sort"

	"geodabs"
)

// rerankShortlist is how many fingerprint-ranked hits a reranked kNN
// search scores exactly: eight per requested result (the documented
// WithExactRerank contract).
const rerankShortlist = 8

// oracleTop ranks the whole corpus for pool query qi by brute force, from
// public calls only: Jaccard distance between fingerprints, ties by ID,
// trajectories sharing no fingerprint excluded; on durable_rerank the
// first 8k of that ranking re-sorted by DTW. It returns the top k.
func (d *workloadData) oracleTop(qi, k int) []geodabs.Result {
	qfp := d.poolF[qi]
	var ranked []geodabs.Result
	for id, c := range d.state {
		if dist := geodabs.JaccardDistance(qfp, d.contents[c].fp); dist < 1 {
			ranked = append(ranked, geodabs.Result{ID: geodabs.ID(id), Distance: dist})
		}
	}
	byDistance := func(r []geodabs.Result) {
		sort.Slice(r, func(i, j int) bool {
			if r[i].Distance != r[j].Distance {
				return r[i].Distance < r[j].Distance
			}
			return r[i].ID < r[j].ID
		})
	}
	byDistance(ranked)
	if d.spec.kind == durableRerank {
		ranked = ranked[:min(len(ranked), k*rerankShortlist)]
		parallel(len(ranked), func(i int) {
			ranked[i].Distance = geodabs.DTW(d.pool[qi].Points, d.contents[d.state[ranked[i].ID]].points)
		})
		byDistance(ranked)
	}
	return ranked[:min(len(ranked), k)]
}

// verify checks the first verifyQueries pool queries against the oracle,
// ID for ID and distance for distance, and returns how many disagreed.
// Each check is one attempted operation.
func verify(ctx context.Context, d *workloadData, sys system, when string) (attempted, failed int) {
	for qi := 0; qi < d.spec.verifyQueries; qi++ {
		attempted++
		got, err := sys.search(ctx, 0, qi, knn)
		if err != nil {
			logf("verify %s: query %d: %v", when, qi, err)
			failed++
			continue
		}
		if err := sameRanking(got, d.oracleTop(qi, knn)); err != nil {
			logf("verify %s: query %d: %v", when, qi, err)
			failed++
		}
	}
	return attempted, failed
}

func sameRanking(got, want []geodabs.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, oracle has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Distance != want[i].Distance {
			return fmt.Errorf("rank %d: got (id %d, %v), oracle (id %d, %v)",
				i, got[i].ID, got[i].Distance, want[i].ID, want[i].Distance)
		}
	}
	return nil
}

// rPrecision is the mean over the first precisionQueries pool queries
// (all of them when there are fewer) of |top-R ∩ relevant| / R, R being
// the size of the query's relevant set, through the workload's own search
// path.
func rPrecision(ctx context.Context, d *workloadData, sys system) (float64, error) {
	var sum float64
	n := min(d.spec.precisionQueries, len(d.pool))
	for qi := 0; qi < n; qi++ {
		rel := make(map[geodabs.ID]bool, len(d.relevant[qi]))
		for _, id := range d.relevant[qi] {
			rel[id] = true
		}
		hits, err := sys.search(ctx, 0, qi, len(rel))
		if err != nil {
			return 0, fmt.Errorf("r_precision query %d: %w", qi, err)
		}
		found := 0
		for _, h := range hits {
			if rel[h.ID] {
				found++
			}
		}
		sum += float64(found) / float64(len(rel))
	}
	return sum / float64(n), nil
}
