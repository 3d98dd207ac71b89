// Package eval implements the information-retrieval effectiveness
// measures of the paper's evaluation (§V-C, §VI-D): interpolated
// precision/recall curves (Figs 8 and 12), receiver-operating-
// characteristic curves and the area under them (Fig 13).
package eval

import (
	"sort"

	"geodabs/internal/trajectory"
)

// Run is the outcome of one ranked query against a ground truth.
type Run struct {
	// Ranked lists the retrieved trajectory IDs, most similar first.
	Ranked []trajectory.ID
	// Relevant is the ground-truth set for the query.
	Relevant map[trajectory.ID]bool
	// Total is the dataset size, needed for specificity (true negatives).
	Total int
}

// PRPoint is one point of a precision/recall curve.
type PRPoint struct {
	Recall    float64
	Precision float64
}

// InterpolatedPR returns the standard 11-point interpolated
// precision/recall curve averaged over the runs (Manning et al., IR
// textbook): at each recall level r ∈ {0, 0.1, …, 1.0}, the interpolated
// precision is the maximum precision at any recall ≥ r, averaged across
// queries. Queries with no relevant results are skipped.
func InterpolatedPR(runs []Run) []PRPoint {
	const levels = 11
	sums := make([]float64, levels)
	queries := 0
	for _, run := range runs {
		if len(run.Relevant) == 0 {
			continue
		}
		queries++
		interp := interpolatedPrecisions(run)
		for i := 0; i < levels; i++ {
			sums[i] += interp[i]
		}
	}
	curve := make([]PRPoint, levels)
	for i := range curve {
		curve[i].Recall = float64(i) / (levels - 1)
		if queries > 0 {
			curve[i].Precision = sums[i] / float64(queries)
		}
	}
	return curve
}

// interpolatedPrecisions computes, for one run, the interpolated precision
// at the 11 standard recall levels.
func interpolatedPrecisions(run Run) [11]float64 {
	type prPair struct{ recall, precision float64 }
	var pairs []prPair
	tp := 0
	for rank, id := range run.Ranked {
		if run.Relevant[id] {
			tp++
			pairs = append(pairs, prPair{
				recall:    float64(tp) / float64(len(run.Relevant)),
				precision: float64(tp) / float64(rank+1),
			})
		}
	}
	var out [11]float64
	for i := 0; i < 11; i++ {
		level := float64(i) / 10
		best := 0.0
		for _, p := range pairs {
			if p.recall >= level-1e-12 && p.precision > best {
				best = p.precision
			}
		}
		out[i] = best
	}
	return out
}

// ROCPoint is one point of an ROC curve: sensitivity (recall of the
// positive class) against 1 − specificity (false-positive rate).
type ROCPoint struct {
	FPR float64 // 1 − specificity
	TPR float64 // sensitivity
}

// ROC pools the runs' rankings into one micro-averaged ROC curve: every
// (query, trajectory) pair is an instance, scored by its rank position
// (unretrieved instances score worst). The curve starts at (0, 0) and ends
// at (1, 1).
func ROC(runs []Run) []ROCPoint {
	// For each run: positives P = |Relevant|, negatives N = Total − P.
	// Walking the ranked lists accumulates TP and FP. Everything a query
	// never retrieves — positives and negatives alike — is tied at the
	// worst score, which the final straight segment to (1, 1) represents
	// (the standard tie treatment, equivalent to random ordering of the
	// tail).
	var totalP, totalN int
	// Pool instances by per-query rank so queries of different dataset
	// sizes average sensibly: instance score = rank index.
	type instance struct {
		score float64 // rank position; lower is better
		isRel bool
	}
	var instances []instance
	for _, run := range runs {
		p := len(run.Relevant)
		totalP += p
		totalN += run.Total - p
		for rank, id := range run.Ranked {
			instances = append(instances, instance{score: float64(rank), isRel: run.Relevant[id]})
		}
	}
	sort.Slice(instances, func(i, j int) bool { return instances[i].score < instances[j].score })

	curve := []ROCPoint{{FPR: 0, TPR: 0}}
	tp, fp := 0, 0
	for i := 0; i < len(instances); {
		// Process ties as one block for a faithful step curve.
		j := i
		for j < len(instances) && instances[j].score == instances[i].score {
			if instances[j].isRel {
				tp++
			} else {
				fp++
			}
			j++
		}
		i = j
		curve = append(curve, ROCPoint{
			FPR: safeDiv(fp, totalN),
			TPR: safeDiv(tp, totalP),
		})
	}
	// The unretrieved tail takes the curve to (1, 1).
	if last := curve[len(curve)-1]; last.FPR < 1 || last.TPR < 1 {
		curve = append(curve, ROCPoint{FPR: 1, TPR: 1})
	}
	return curve
}

func safeDiv(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// AUC returns the area under an ROC curve by trapezoidal integration.
// The curve must be sorted by FPR (as returned by ROC).
func AUC(curve []ROCPoint) float64 {
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area
}
