package rerank

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"geodabs/internal/distance"
	"geodabs/internal/geo"
)

// shortlist builds count synthetic candidates: short diagonals marching
// away from the origin, so lower bounds genuinely separate them.
func shortlist(count int) []Candidate {
	cands := make([]Candidate, count)
	for i := range cands {
		base := float64(i) * 0.01
		pts := []geo.Point{
			{Lat: base, Lon: base},
			{Lat: base + 0.005, Lon: base + 0.004},
			{Lat: base + 0.010, Lon: base + 0.009},
		}
		cands[i] = Candidate{ID: uint32(i + 1), Points: pts, Box: geo.NewBox(pts...)}
	}
	return cands
}

// topOf reduces scored candidates to their limit best (score, ID) pairs
// in final-merge order — the only part of a pass a caller's sort and
// truncate depends on.
func topOf(cands []Candidate, limit int) []kept {
	var pairs []kept
	for _, c := range cands {
		if !c.Skipped {
			pairs = append(pairs, kept{c.Score, c.ID})
		}
	}
	slices.SortFunc(pairs, func(a, b kept) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
	if limit > 0 && len(pairs) > limit {
		pairs = pairs[:limit]
	}
	return pairs
}

// TestScoreMatchesScoringEverything pins the gated pass to the reference —
// the metric on every candidate, sorted, truncated — for both built-ins
// and an ungated custom metric, across limits, on one worker and on a
// pool, short shortlists (below parallelMin) and long.
func TestScoreMatchesScoringEverything(t *testing.T) {
	query := []geo.Point{{Lat: 0.02, Lon: 0.02}, {Lat: 0.025, Lon: 0.024}, {Lat: 0.03, Lon: 0.029}}
	custom := func(a, b []geo.Point) float64 { return -distance.DFD(a, b) } // farthest first: any bound would be wrong
	for _, tc := range []struct {
		name   string
		metric func(a, b []geo.Point) float64
		gate   Metric
	}{
		{"dtw", distance.DTW, DTW},
		{"dfd", distance.DFD, DFD},
		{"custom", custom, 0},
	} {
		for _, count := range []int{parallelMin - 2, 3 * parallelMin} {
			var reference []Candidate
			for _, c := range shortlist(count) {
				c.Score = tc.metric(query, c.Points)
				reference = append(reference, c)
			}
			for _, limit := range []int{0, 1, 10} {
				for _, procs := range []int{1, max(4, runtime.GOMAXPROCS(0))} {
					cands := shortlist(count)
					prev := runtime.GOMAXPROCS(procs)
					err := Score(context.Background(), query, cands, tc.metric, tc.gate, limit)
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := topOf(cands, limit), topOf(reference, limit); !slices.Equal(got, want) {
						t.Fatalf("%s count=%d limit=%d procs=%d: top = %v, want %v", tc.name, count, limit, procs, got, want)
					}
					skipped := 0
					for _, c := range cands {
						if c.Skipped {
							skipped++
						}
					}
					if (tc.gate == 0 || limit == 0) && skipped != 0 {
						t.Fatalf("%s count=%d limit=%d: %d candidates skipped with the gate off", tc.name, count, limit, skipped)
					}
				}
			}
		}
	}
}

// TestScoreGateSkipsFarCandidate is the gate doing its job: once the
// single slot of a limit-1 pass holds a near candidate, a far-away one is
// settled by its lower bound and the metric never runs on it.
func TestScoreGateSkipsFarCandidate(t *testing.T) {
	near := []geo.Point{{Lat: 0, Lon: 0}, {Lat: 0.001, Lon: 0.001}}
	far := []geo.Point{{Lat: 40, Lon: 40}, {Lat: 40.001, Lon: 40.001}}
	cands := []Candidate{
		{ID: 1, Points: near, Box: geo.NewBox(near...)},
		{ID: 2, Points: far, Box: geo.NewBox(far...)},
	}
	var scoredFar atomic.Bool
	metric := func(a, b []geo.Point) float64 {
		if &b[0] == &far[0] {
			scoredFar.Store(true)
		}
		return distance.DTW(a, b)
	}
	if err := Score(context.Background(), near, cands, metric, DTW, 1); err != nil {
		t.Fatal(err)
	}
	if cands[0].Skipped || cands[0].Score != 0 {
		t.Errorf("near candidate: %+v, want scored at 0", cands[0])
	}
	if !cands[1].Skipped || scoredFar.Load() {
		t.Errorf("far candidate was scored (skipped=%v); its lower bound is thousands of kilometres above the best", cands[1].Skipped)
	}
	// The same shortlist with the gate off scores both.
	cands[1].Skipped = false
	if err := Score(context.Background(), near, cands, metric, 0, 1); err != nil {
		t.Fatal(err)
	}
	if cands[1].Skipped || !scoredFar.Load() || math.IsInf(cands[1].Score, 0) {
		t.Errorf("ungated pass left the far candidate unscored: %+v", cands[1])
	}
}

func TestScoreHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	metric := func(a, b []geo.Point) float64 {
		if calls++; calls == 2 {
			cancel()
		}
		return 0
	}
	cands := shortlist(parallelMin - 1) // one worker, so calls needs no lock
	err := Score(ctx, cands[0].Points, cands, metric, 0, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 2 {
		t.Errorf("metric ran %d times, want it to stop at the cancellation", calls)
	}
}
