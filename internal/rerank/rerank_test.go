package rerank

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"geodabs/internal/distance"
	"geodabs/internal/geo"
)

// shortlist builds count synthetic candidates: short diagonals marching
// away from the origin, so the kernel's bound genuinely separates them.
func shortlist(count int) []Candidate {
	cands := make([]Candidate, count)
	for i := range cands {
		base := float64(i) * 0.01
		pts := []geo.Point{
			{Lat: base, Lon: base},
			{Lat: base + 0.005, Lon: base + 0.004},
			{Lat: base + 0.010, Lon: base + 0.009},
		}
		cands[i] = Candidate{ID: uint32(i + 1), Points: pts}
	}
	return cands
}

// sameRoute builds count candidates that all drive the query's road: the
// route resampled at varying lengths, leaving it by up to a hundred meters mid-way
// and rejoining it. Every bounding box overlaps the query's and every
// endpoint sits on the query's, so only the dynamic program can tell them
// apart — the dense-city shortlist. Candidates 2k and 2k+1 are the same points under
// two IDs: exact score ties, which an odd limit puts right at the bar.
func sameRoute(query []geo.Point, count int) []Candidate {
	cands := make([]Candidate, count)
	for i := range cands {
		twin := i / 2
		pts := make([]geo.Point, len(query)-twin%5)
		for j := range pts {
			bulge := math.Sin(math.Pi * float64(j) / float64(len(pts)-1))
			pts[j] = geo.Offset(query[j*len(query)/len(pts)], bulge*(5+float64(twin*29%97)), 0)
		}
		cands[i] = Candidate{ID: uint32(count - i), Points: pts}
	}
	return cands
}

// road is an 80-point query with a bend in it.
func road() []geo.Point {
	pts := make([]geo.Point, 80)
	at := geo.Point{Lat: 48.85, Lon: 2.35}
	for i := range pts {
		pts[i] = at
		at = geo.Offset(at, 12, float64(i)/4)
	}
	return pts
}

// kept is one scored (score, ID) pair.
type kept struct {
	score float64
	id    uint32
}

// worse is the (score asc, ID asc) comparison of index.SortResults: a is
// worse than b when it would sort after b in the final merge.
func worse(a, b kept) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id > b.id
}

// sameOutcome returns the index of the first candidate that a and b —
// one shortlist scored twice — did not score or skip alike, or -1.
func sameOutcome(a, b []Candidate) int {
	for i := range a {
		if a[i].Skipped != b[i].Skipped || !a[i].Skipped && a[i].Score != b[i].Score {
			return i
		}
	}
	return -1
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

// TestScoreMatchesScoringEverything pins the bounded pass to the
// reference — the unbounded metric on every candidate, sorted, truncated —
// for both built-ins, on a spread-out shortlist and a same-route one,
// across limits (none,
// odd ones that cut a score tie in two, one past the shortlist), on one
// worker and on a pool, short shortlists (below parallelMin) and long;
// and checks that the pool scores and skips exactly what one worker does.
func TestScoreMatchesScoringEverything(t *testing.T) {
	spread := []geo.Point{{Lat: 0.02, Lon: 0.02}, {Lat: 0.025, Lon: 0.024}, {Lat: 0.03, Lon: 0.029}}
	for _, tc := range []struct {
		name      string
		metric    Metric
		unbounded func(a, b []geo.Point) float64
	}{
		{"dtw", DTW, distance.DTW},
		{"dfd", DFD, distance.DFD},
	} {
		for _, sl := range []struct {
			name  string
			query []geo.Point
			build func(count int) []Candidate
		}{
			{"spread", spread, shortlist},
			{"same-route", road(), func(count int) []Candidate { return sameRoute(road(), count) }},
		} {
			for _, count := range []int{parallelMin - 2, 3 * parallelMin} {
				reference := sl.build(count)
				for i := range reference {
					reference[i].Score = tc.unbounded(sl.query, reference[i].Points)
				}
				for _, limit := range []int{0, 1, 5, 10, count + 5} {
					want := topOf(reference, limit)
					var serial []Candidate
					for _, procs := range []int{1, max(4, runtime.GOMAXPROCS(0))} {
						cands := sl.build(count)
						prev := runtime.GOMAXPROCS(procs)
						err := Score(context.Background(), sl.query, cands, tc.metric, limit)
						runtime.GOMAXPROCS(prev)
						if err != nil {
							t.Fatal(err)
						}
						where := fmt.Sprintf("%s %s count=%d limit=%d procs=%d", tc.name, sl.name, count, limit, procs)
						if got := topOf(cands, limit); !slices.Equal(got, want) {
							t.Fatalf("%s: top = %v, want %v", where, got, want)
						}
						skipped := 0
						for _, c := range cands {
							if c.Skipped {
								skipped++
							}
						}
						switch unbounded := limit == 0 || limit >= count; {
						case unbounded && skipped != 0:
							t.Fatalf("%s: %d candidates skipped with no bar to skip them by", where, skipped)
						case !unbounded && skipped == 0:
							t.Fatalf("%s: the bar skipped no candidate", where)
						}
						if serial == nil {
							serial = cands
						} else if i := sameOutcome(serial, cands); i >= 0 {
							t.Fatalf("%s: candidate %d differs from one worker: %+v, want %+v", where, cands[i].ID, cands[i], serial[i])
						}
					}
				}
			}
		}
	}
}

func TestScoreRejectsUnknownMetric(t *testing.T) {
	if err := Score(context.Background(), road(), shortlist(3), 0, 1); err == nil {
		t.Fatal("metric 0 names no built-in, yet Score ran")
	}
}

// TestScoreGateSkipsFarCandidate is the kernel's chord-cost gate doing
// its job: once the single slot of a limit-1 pass holds a near candidate,
// a far-away one is proved over the bar — before any exact cell, since
// the chord pass already puts the far corner thousands of kilometres
// above it. With no limit, it is scored.
func TestScoreGateSkipsFarCandidate(t *testing.T) {
	near := []geo.Point{{Lat: 0, Lon: 0}, {Lat: 0.001, Lon: 0.001}}
	far := []geo.Point{{Lat: 40, Lon: 40}, {Lat: 40.001, Lon: 40.001}}
	build := func() []Candidate {
		return []Candidate{{ID: 1, Points: near}, {ID: 2, Points: far}}
	}
	cands := build()
	if err := Score(context.Background(), near, cands, DTW, 1); err != nil {
		t.Fatal(err)
	}
	if cands[0].Skipped || cands[0].Score != 0 {
		t.Errorf("near candidate: %+v, want scored at 0", cands[0])
	}
	if !cands[1].Skipped {
		t.Error("far candidate was scored; its chord cost is thousands of kilometres above the best")
	}
	// The same shortlist with no limit scores both.
	cands = build()
	if err := Score(context.Background(), near, cands, DTW, 0); err != nil {
		t.Fatal(err)
	}
	if cands[1].Skipped || cands[1].Score != distance.DTW(near, far) {
		t.Errorf("unlimited pass left the far candidate unscored: %+v", cands[1])
	}
}

func TestScoreHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cands := shortlist(parallelMin - 1)
	if err := Score(ctx, cands[0].Points, cands, DTW, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("Score on a cancelled context: err = %v, want context.Canceled", err)
	}
}

// fuzzShortlist builds a query of n points and count candidates from
// seed: independent walks around the query's start (spread), or noisy
// copies of the query resampled to other lengths (same-route). With dups
// set, every other candidate repeats the one before it under another ID —
// exact score ties — and candidates stutter, repeating some of their
// points, so the kernel meets zero-length steps.
func fuzzShortlist(seed int64, n, count int, same, dups bool) ([]geo.Point, []Candidate) {
	rng := rand.New(rand.NewSource(seed))
	start := geo.Point{Lat: 45 + rng.Float64(), Lon: 7 + rng.Float64()}
	walk := func(from geo.Point, k int) []geo.Point {
		pts := make([]geo.Point, k)
		for i := range pts {
			from = geo.Offset(from, rng.Float64()*100-50, rng.Float64()*100-50)
			pts[i] = from
		}
		return pts
	}
	query := walk(start, n)
	cands := make([]Candidate, count)
	for i := range cands {
		var pts []geo.Point
		switch {
		case dups && i%2 == 1:
			pts = cands[i-1].Points
		case same:
			k, noise := 1+rng.Intn(300), rng.Float64()*50
			pts = make([]geo.Point, k)
			for j := range pts {
				pts[j] = geo.Offset(query[j*n/k], (rng.Float64()*2-1)*noise, (rng.Float64()*2-1)*noise)
			}
		default:
			pts = walk(geo.Offset(start, rng.Float64()*4000-2000, rng.Float64()*4000-2000), 1+rng.Intn(300))
		}
		if dups && i%2 == 0 {
			for j := 1; j < len(pts); j += 1 + rng.Intn(4) {
				pts[j] = pts[j-1]
			}
		}
		cands[i] = Candidate{ID: uint32(rng.Intn(1 << 20)), Points: pts}
	}
	return query, cands
}

// FuzzScore holds a pass to the reference — the unbounded metric on every
// candidate, sorted by (score, ID) and truncated — over fuzzed shortlists,
// limits from none to two past the shortlist and both metrics, on one
// worker and on a pool; and checks that nothing is skipped when no limit
// cuts the shortlist, and that the pool scores and skips exactly what one
// worker does.
func FuzzScore(f *testing.F) {
	f.Add(int64(1), uint16(80), uint8(40), true, false, uint8(10), false)
	f.Add(int64(2), uint16(120), uint8(30), false, false, uint8(5), true)
	f.Add(int64(3), uint16(60), uint8(20), true, true, uint8(3), false)
	f.Add(int64(4), uint16(0), uint8(1), false, true, uint8(0), true)
	f.Add(int64(5), uint16(299), uint8(17), true, true, uint8(19), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, count uint8, same, dups bool, limit uint8, leash bool) {
		query, reference := fuzzShortlist(seed, 1+int(n)%300, 1+int(count)%40, same, dups)
		size := len(reference)
		lim := int(limit) % (size + 3)
		m, unbounded := DTW, distance.DTW
		if leash {
			m, unbounded = DFD, distance.DFD
		}
		for i := range reference {
			reference[i].Score = unbounded(query, reference[i].Points)
		}
		want := topOf(reference, lim)
		var serial []Candidate
		for _, procs := range []int{1, 4} {
			cands := slices.Clone(reference)
			for i := range cands {
				cands[i].Score = 0
			}
			prev := runtime.GOMAXPROCS(procs)
			err := Score(context.Background(), query, cands, m, lim)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if got := topOf(cands, lim); !slices.Equal(got, want) {
				t.Fatalf("metric %d size=%d limit=%d procs=%d: top = %v, want %v", m, size, lim, procs, got, want)
			}
			if lim <= 0 || lim >= size {
				for _, c := range cands {
					if c.Skipped {
						t.Fatalf("metric %d size=%d limit=%d procs=%d: candidate %d skipped with no bar to skip it by", m, size, lim, procs, c.ID)
					}
				}
			}
			if serial == nil {
				serial = cands
			} else if i := sameOutcome(serial, cands); i >= 0 {
				t.Fatalf("metric %d size=%d limit=%d: candidate %d differs across procs", m, size, lim, i)
			}
		}
	})
}

// BenchmarkScorePass is one pass over an 80-candidate same-route
// shortlist — the shape a reranked kNN search sends a node — capped at
// 10, as a WithKNN(10) search is, and uncapped.
func BenchmarkScorePass(b *testing.B) {
	query := road()
	cands := sameRoute(query, 80)
	for _, limit := range []int{10, 0} {
		name := "capped"
		if limit == 0 {
			name = "uncapped"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for i := range cands {
					cands[i].Skipped = false
				}
				if err := Score(context.Background(), query, cands, DTW, limit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
