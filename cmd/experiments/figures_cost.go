package main

import (
	"time"

	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/geo"
	"geodabs/internal/motif"
)

// Figures 9 and 10 compare the cost of answering "how similar are these
// candidates to the query" with DFD, DTW and geodab Jaccard. The paper's
// caption/body labels for the two sweeps are swapped; we follow the
// captions: Fig 9 sweeps the candidate count at fixed length, Fig 10
// sweeps the trajectory length at fixed candidate count.

// runFig9 reproduces Figure 9: candidate count 2..10, trajectories of
// 1'000 points. DFD/DTW grow linearly in the candidate count with a huge
// constant (O(t²) each); geodab Jaccard stays at microseconds.
func runFig9(o options) error {
	const length = 1000
	trajectories, err := longTrajectories(11, length, o.seed)
	if err != nil {
		return err
	}
	query, candidates := trajectories[0], trajectories[1:]
	row("candidates", "dfd_ms", "dtw_ms", "geodabs_ms")
	for c := 2; c <= 10; c += 2 {
		dfd, dtw, geodab := scoreCosts(query, candidates[:c])
		row(c, ms(dfd), ms(dtw), ms(geodab))
	}
	return nil
}

// runFig10 reproduces Figure 10: trajectory length 200..1000 points, 10
// candidates. DFD/DTW grow quadratically in the length; geodabs grow
// mildly (normalization is linear) and stay orders of magnitude cheaper.
func runFig10(o options) error {
	row("length", "dfd_ms", "dtw_ms", "geodabs_ms")
	for length := 200; length <= 1000; length += 200 {
		trajectories, err := longTrajectories(11, length, o.seed)
		if err != nil {
			return err
		}
		dfd, dtw, geodab := scoreCosts(trajectories[0], trajectories[1:])
		row(length, ms(dfd), ms(dtw), ms(geodab))
	}
	return nil
}

// scoreCosts measures the time to score all candidates against the query
// under each distance. The geodab cost includes fingerprinting the query
// and all candidates from raw points — the worst case for geodabs, since
// an index stores candidate fingerprints precomputed.
func scoreCosts(query []geo.Point, candidates [][]geo.Point) (dfd, dtw, geodab time.Duration) {
	start := time.Now()
	for _, c := range candidates {
		distance.DFD(query, c)
	}
	dfd = time.Since(start)

	start = time.Now()
	for _, c := range candidates {
		distance.DTW(query, c)
	}
	dtw = time.Since(start)

	f := core.MustFingerprinter(core.DefaultConfig())
	start = time.Now()
	qf := f.Fingerprint(query)
	for _, c := range candidates {
		cf := f.Fingerprint(c)
		distance.JaccardSorted(core.TermsOf(qf.Set), core.TermsOf(cf.Set))
	}
	geodab = time.Since(start)
	return dfd, dtw, geodab
}

// runFig11 reproduces Figure 11: motif discovery between a query and a
// growing candidate set, BTM (exact discrete-Fréchet search with endpoint
// pruning) against geodab window scanning. Trajectories are 300 points,
// motifs ≈50 points / 600 m: even at this reduced scale BTM is thousands
// of times more expensive, matching the paper's shape.
func runFig11(o options) error {
	const (
		length      = 300
		motifPoints = 50
		motifMeters = 600
	)
	trajectories, err := longTrajectories(11, length, o.seed)
	if err != nil {
		return err
	}
	query, candidates := trajectories[0], trajectories[1:]
	f := core.MustFingerprinter(core.DefaultConfig())
	row("candidates", "btm_ms", "geodabs_ms")
	for c := 2; c <= 10; c += 2 {
		start := time.Now()
		for _, cand := range candidates[:c] {
			if _, err := motif.FindBTM(query, cand, motifPoints); err != nil {
				return err
			}
		}
		btm := time.Since(start)

		start = time.Now()
		for _, cand := range candidates[:c] {
			if _, err := motif.FindGeodab(f, query, cand, motifMeters); err != nil && err != motif.ErrTooShort {
				return err
			}
		}
		geodab := time.Since(start)
		row(c, ms(btm), ms(geodab))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
