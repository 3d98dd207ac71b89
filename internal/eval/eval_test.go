package eval

import (
	"math"
	"testing"

	"geodabs/internal/trajectory"
)

// run builds a Run from a ranked ID list and a relevant set.
func run(total int, ranked []trajectory.ID, relevant ...trajectory.ID) Run {
	rel := make(map[trajectory.ID]bool, len(relevant))
	for _, id := range relevant {
		rel[id] = true
	}
	return Run{Ranked: ranked, Relevant: rel, Total: total}
}

func TestInterpolatedPRPerfect(t *testing.T) {
	// All relevant items retrieved first: precision 1 at every level.
	r := run(100, []trajectory.ID{1, 2, 3, 10, 11}, 1, 2, 3)
	curve := InterpolatedPR([]Run{r})
	if len(curve) != 11 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for _, p := range curve {
		if p.Precision != 1 {
			t.Errorf("precision at recall %.1f = %.3f, want 1", p.Recall, p.Precision)
		}
	}
}

func TestInterpolatedPRWorthless(t *testing.T) {
	// No relevant item retrieved: precision 0 everywhere.
	r := run(100, []trajectory.ID{10, 11, 12}, 1, 2)
	curve := InterpolatedPR([]Run{r})
	for _, p := range curve {
		if p.Precision != 0 {
			t.Errorf("precision at recall %.1f = %.3f, want 0", p.Recall, p.Precision)
		}
	}
}

func TestInterpolatedPRKnownShape(t *testing.T) {
	// Ranked: rel, irrel, rel → precisions 1/1 at recall .5, 2/3 at 1.0.
	r := run(100, []trajectory.ID{1, 10, 2}, 1, 2)
	curve := InterpolatedPR([]Run{r})
	// Levels 0.0–0.5 take max precision at recall ≥ level = 1.
	for i := 0; i <= 5; i++ {
		if math.Abs(curve[i].Precision-1) > 1e-12 {
			t.Errorf("level %.1f precision = %.3f, want 1", curve[i].Recall, curve[i].Precision)
		}
	}
	// Levels 0.6–1.0: only the recall-1.0 point qualifies → 2/3.
	for i := 6; i <= 10; i++ {
		if math.Abs(curve[i].Precision-2.0/3) > 1e-12 {
			t.Errorf("level %.1f precision = %.3f, want 2/3", curve[i].Recall, curve[i].Precision)
		}
	}
}

func TestInterpolatedPRAveragesQueries(t *testing.T) {
	perfect := run(10, []trajectory.ID{1}, 1)
	worthless := run(10, []trajectory.ID{5}, 2)
	curve := InterpolatedPR([]Run{perfect, worthless})
	for _, p := range curve {
		if math.Abs(p.Precision-0.5) > 1e-12 {
			t.Errorf("averaged precision at %.1f = %.3f, want 0.5", p.Recall, p.Precision)
		}
	}
	// Queries with no ground truth are skipped, not zero-averaged.
	empty := Run{Ranked: []trajectory.ID{1}, Relevant: map[trajectory.ID]bool{}, Total: 10}
	curve2 := InterpolatedPR([]Run{perfect, empty})
	for _, p := range curve2 {
		if p.Precision != 1 {
			t.Errorf("empty-truth query should be skipped, got %.3f", p.Precision)
		}
	}
}

func TestInterpolatedPRNoRuns(t *testing.T) {
	curve := InterpolatedPR(nil)
	if len(curve) != 11 {
		t.Fatalf("curve has %d points", len(curve))
	}
	for _, p := range curve {
		if p.Precision != 0 {
			t.Errorf("no-runs precision = %v", p.Precision)
		}
	}
}

func TestROCPerfectRanking(t *testing.T) {
	// 2 relevant ranked first out of 10 total: the curve reaches TPR 1 at
	// FPR 0, then runs to (1, 1). AUC = 1.
	r := run(10, []trajectory.ID{1, 2, 20, 21}, 1, 2)
	curve := ROC([]Run{r})
	if auc := AUC(curve); math.Abs(auc-1) > 1e-12 {
		t.Errorf("perfect AUC = %.4f, want 1", auc)
	}
}

func TestROCInvertedRanking(t *testing.T) {
	// Relevant items ranked after all retrieved negatives, dataset
	// entirely retrieved: AUC = 0 for the retrieved part... but the two
	// relevant are still before nothing. With total=4 and ranking
	// [neg, neg, rel, rel], AUC = 0.
	r := run(4, []trajectory.ID{10, 11, 1, 2}, 1, 2)
	curve := ROC([]Run{r})
	if auc := AUC(curve); math.Abs(auc) > 1e-12 {
		t.Errorf("inverted AUC = %.4f, want 0", auc)
	}
}

func TestROCRandomTail(t *testing.T) {
	// Nothing retrieved: the curve is the diagonal, AUC 0.5.
	r := run(100, nil, 1, 2)
	curve := ROC([]Run{r})
	if len(curve) != 2 {
		t.Fatalf("curve = %v", curve)
	}
	if auc := AUC(curve); math.Abs(auc-0.5) > 1e-12 {
		t.Errorf("diagonal AUC = %.4f, want 0.5", auc)
	}
}

func TestROCMonotone(t *testing.T) {
	r1 := run(50, []trajectory.ID{1, 9, 2, 8, 3}, 1, 2, 3)
	r2 := run(50, []trajectory.ID{7, 1, 2}, 1, 2)
	curve := ROC([]Run{r1, r2})
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatalf("curve not monotone at %d: %+v after %+v", i, curve[i], curve[i-1])
		}
	}
	if last := curve[len(curve)-1]; last.FPR != 1 || last.TPR != 1 {
		t.Errorf("curve ends at %+v, want (1,1)", last)
	}
	auc := AUC(curve)
	if auc <= 0.5 || auc > 1 {
		t.Errorf("AUC = %.4f for a better-than-random ranking", auc)
	}
}
