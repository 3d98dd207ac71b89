package index

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"geodabs/internal/distance"
	"geodabs/internal/geo"
	"geodabs/internal/trajectory"
)

// termSet returns the distinct values, ascending: the form an Extractor
// returns and an index keeps.
func termSet(values ...uint32) []uint32 {
	set := slices.Clone(values)
	slices.Sort(set)
	return slices.Compact(set)
}

// sharedTerms counts |F ∩ G| with a binary search of f for each term of
// g, independently of the merge distance.Shared runs.
func sharedTerms(f, g []uint32) int {
	n := 0
	for _, term := range g {
		if _, ok := slices.BinarySearch(f, term); ok {
			n++
		}
	}
	return n
}

// jaccardDistance is dJ(F, G) = 1 − |F∩G| / |F∪G| from sharedTerms, the
// same floating-point expression the ranking contract evaluates; two empty
// sets are at distance 0.
func jaccardDistance(f, g []uint32) float64 {
	shared := sharedTerms(f, g)
	union := len(f) + len(g) - shared
	if union == 0 {
		return 0
	}
	return 1 - float64(shared)/float64(union)
}

// bruteForceSearch is the reference scorer: score every indexed document
// with an independent Jaccard computation, keep candidates sharing at
// least one term, sort by the ranking contract, truncate. The
// counting-merge core must be byte-identical to it.
func bruteForceSearch(docs map[trajectory.ID][]uint32, set []uint32, maxDistance float64, limit int) []Result {
	var results []Result
	for id, doc := range docs {
		shared := sharedTerms(set, doc)
		if shared == 0 {
			continue
		}
		if d := jaccardDistance(set, doc); d <= maxDistance {
			results = append(results, Result{ID: id, Distance: d, Shared: shared})
		}
	}
	SortResults(results)
	if limit > 0 && len(results) > limit {
		results = results[:limit]
	}
	return results
}

// randomSet draws a fingerprint set whose terms overlap heavily across
// documents (term universe much smaller than the number of draws).
func randomSet(rng *rand.Rand, maxTerms int, universe uint32) []uint32 {
	var terms []uint32
	for n := rng.Intn(maxTerms); n > 0; n-- {
		terms = append(terms, rng.Uint32()%universe)
	}
	return termSet(terms...)
}

// buildRandomIndex fills an index with fingerprint-only documents whose
// IDs span multiple counter chunks.
func buildRandomIndex(t testing.TB, rng *rand.Rand, docs int) (*Inverted, map[trajectory.ID][]uint32) {
	t.Helper()
	ix := New(stubExtractor{}, false)
	reference := make(map[trajectory.ID][]uint32, docs)
	for i := 0; i < docs; i++ {
		id := trajectory.ID(rng.Uint32() % 200000)
		if _, dup := reference[id]; dup {
			continue
		}
		set := randomSet(rng, 60, 500)
		if err := ix.insert(id, set, nil); err != nil {
			t.Fatal(err)
		}
		reference[id] = set
	}
	return ix, reference
}

// stubExtractor satisfies Extractor for fingerprint-only workloads; the
// differential tests insert pre-built sets and never extract from points.
type stubExtractor struct{}

func (stubExtractor) Extract([]geo.Point) []uint32 { return nil }

func equalResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Shared != w.Shared ||
			math.Float64bits(g.Distance) != math.Float64bits(w.Distance) {
			t.Fatalf("%s: result %d = %+v, want %+v (distance bits %x vs %x)",
				label, i, g, w, math.Float64bits(g.Distance), math.Float64bits(w.Distance))
		}
	}
}

// TestSearchMatchesBruteForce drives the counting core over randomized
// workloads — random maxDistance (range semantics), result caps (the
// WithKNN shape), and post-mutation states — and requires rankings
// byte-identical to the brute-force scorer.
func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		ix, reference := buildRandomIndex(t, rng, 200)
		check := func(label string) {
			t.Helper()
			for q := 0; q < 8; q++ {
				set := randomSet(rng, 80, 500)
				maxDistance := []float64{0, 0.25, 0.5, 0.8, 0.95, 1}[rng.Intn(6)]
				limit := []int{0, 1, 3, 10, 1000}[rng.Intn(5)]
				got, stats, err := searchSet(ix, set, maxDistance, limit)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForceSearch(reference, set, maxDistance, limit)
				equalResults(t, label, got, want)
				wantCandidates := 0
				for _, doc := range reference {
					if sharedTerms(set, doc) > 0 {
						wantCandidates++
					}
				}
				if stats.Candidates != wantCandidates {
					t.Fatalf("%s: Candidates = %d, want %d", label, stats.Candidates, wantCandidates)
				}
				if stats.Pruned < 0 || stats.Pruned > stats.Candidates {
					t.Fatalf("%s: implausible Pruned = %d of %d", label, stats.Pruned, stats.Candidates)
				}
			}
		}
		check("fresh index")

		// Mutate: delete a third, upsert (replace) a third, then re-verify —
		// this exercises the cached-cardinality maintenance.
		i := 0
		for id := range reference {
			switch i % 3 {
			case 0:
				ix.Delete(id)
				delete(reference, id)
			case 1:
				set := randomSet(rng, 60, 500)
				ix.Upsert(&trajectory.Trajectory{ID: id, Points: nil})
				// Upsert extracted an empty set via the stub; replace with a
				// real one to keep the workload meaningful.
				ix.Delete(id)
				if err := ix.insert(id, set, nil); err != nil {
					t.Fatal(err)
				}
				reference[id] = set
			}
			i++
		}
		check("after mutations")
	}
}

// TestSearchWideQuery pins queries of more than 65535 terms to the same
// brute-force contract as any other, across distance cutoffs and result
// caps. The counter's array entries are 16 bits wide; one document here
// shares 67000 terms with the query, so its count only comes out right
// if the counter really is exact past that width.
func TestSearchWideQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ix := New(stubExtractor{}, false)
	reference := make(map[trajectory.ID][]uint32)
	for i := 0; i < 60; i++ {
		id := trajectory.ID(i * 977)
		var terms []uint32
		// Mixed sizes so the cardinality window has real work at tight
		// cutoffs: some documents near the query's overlap, some tiny.
		for n := 0; n < 10+(i%5)*200; n++ {
			terms = append(terms, rng.Uint32()%100000)
		}
		set := termSet(terms...)
		if err := ix.insert(id, set, nil); err != nil {
			t.Fatal(err)
		}
		reference[id] = set
	}
	var huge []uint32
	for v := uint32(0); v < 67000; v++ {
		huge = append(huge, v)
	}
	if err := ix.insert(1, huge, nil); err != nil {
		t.Fatal(err)
	}
	reference[1] = huge
	var wide []uint32
	for v := uint32(0); v < 70000; v++ {
		wide = append(wide, v)
	}
	if shared := sharedTerms(wide, huge); shared <= math.MaxUint16 {
		t.Fatalf("largest shared count %d fits 16 bits", shared)
	}
	sawPruning := false
	for _, maxDistance := range []float64{0, 0.5, 0.9, 0.99, 1} {
		for _, limit := range []int{0, 1, 5} {
			got, stats, err := searchSet(ix, wide, maxDistance, limit)
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForceSearch(reference, wide, maxDistance, limit)
			equalResults(t, "wide query", got, want)
			if stats.Pruned < 0 || stats.Pruned > stats.Candidates {
				t.Fatalf("implausible Pruned = %d of %d candidates", stats.Pruned, stats.Candidates)
			}
			sawPruning = sawPruning || stats.Pruned > 0
		}
	}
	if !sawPruning {
		t.Error("no combination exercised threshold pruning")
	}
}

// TestCardinalityWindowMatchesRanker pins the exported window to the
// bounds the Ranker starts from: the shard nodes prune with
// CardinalityWindow, the coordinator with the Ranker, and the node-side
// prune is only invisible in the results if the two agree exactly.
func TestCardinalityWindowMatchesRanker(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var r Ranker
	for trial := 0; trial < 2000; trial++ {
		qc := 1 + rng.Intn(100000)
		maxDistance := []float64{0, 0.01, 0.3, 0.5, 0.9, 0.99, 1, rng.Float64()}[rng.Intn(8)]
		r.Init(qc, maxDistance, rng.Intn(10))
		minCard, maxCard := CardinalityWindow(qc, maxDistance)
		if minCard != r.minCard || maxCard != r.maxCard {
			t.Fatalf("CardinalityWindow(%d, %v) = [%d, %d], Ranker starts at [%d, %d]",
				qc, maxDistance, minCard, maxCard, r.minCard, r.maxCard)
		}
	}
}

// TestCardinalityWindowSound verifies the window never excludes a truly
// qualifying candidate: whenever dJ(F, G) ≤ d, |G| falls inside
// CardinalityWindow(|F|, d).
func TestCardinalityWindowSound(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 500; trial++ {
		f := randomSet(rng, 120, 400)
		g := randomSet(rng, 120, 400)
		if len(f) == 0 || len(g) == 0 {
			continue
		}
		d := jaccardDistance(f, g)
		for _, bound := range []float64{d, d + 0.05, 1} {
			if bound > 1 {
				bound = 1
			}
			minCard, maxCard := CardinalityWindow(len(f), bound)
			card := len(g)
			if card < minCard || (maxCard > 0 && card > maxCard) {
				t.Fatalf("window [%d, %d] for qc=%d bound=%v excludes qualifying card=%d (dJ=%v)",
					minCard, maxCard, len(f), bound, card, d)
			}
		}
	}
}

// TestAppendSearchReusesBuffer verifies the zero-alloc contract's
// ingredient: results append into the caller's buffer.
func TestAppendSearchReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix, reference := buildRandomIndex(t, rng, 100)
	set := randomSet(rng, 60, 500)
	buf := make([]Result, 0, 4096)
	got, _, err := ix.AppendSearchSet(context.Background(), buf, set, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cap(got) == 4096 && len(got) > 0 && &got[:1][0] != &buf[:1][0] {
		t.Fatal("results not appended into the caller's buffer")
	}
	equalResults(t, "append", got, bruteForceSearch(reference, set, 1, 0))
}

// TestSearchConcurrentMutations interleaves searches with deletes,
// upserts and inserts. Every observed result must be internally
// consistent — contract-ordered, within the distance cutoff, shared count
// plausible — and the run is meaningful under -race.
func TestSearchConcurrentMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ix, _ := buildRandomIndex(t, rng, 300)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			mrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := trajectory.ID(mrng.Uint32() % 200000)
				switch mrng.Intn(3) {
				case 0:
					ix.Delete(id)
				case 1:
					ix.insert(id, randomSet(mrng, 40, 500), nil)
				default:
					ix.DeleteAll(ctx, []trajectory.ID{id, id + 1, id + 2})
				}
			}
		}(int64(w))
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				set := randomSet(srng, 60, 500)
				maxDistance := srng.Float64()
				limit := srng.Intn(20)
				results, stats, err := searchSet(ix, set, maxDistance, limit)
				if err != nil {
					t.Error(err)
					return
				}
				if limit > 0 && len(results) > limit {
					t.Errorf("limit %d exceeded: %d results", limit, len(results))
					return
				}
				if len(results) > stats.Candidates {
					t.Errorf("more results (%d) than candidates (%d)", len(results), stats.Candidates)
					return
				}
				qc := len(set)
				for j, r := range results {
					if j > 0 && !resultLess(results[j-1], r) {
						t.Errorf("results out of contract order at %d", j)
						return
					}
					if r.Distance > maxDistance || r.Shared < 1 || r.Shared > qc {
						t.Errorf("implausible result %+v (maxDistance %v, qc %d)", r, maxDistance, qc)
						return
					}
				}
			}
		}(int64(100 + s))
	}
	// Let the searchers finish, then stop the mutators.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }()
	defer close(stop)
	// Searchers have a bounded iteration count; wait for them via wg after
	// the mutators are told to stop in the deferred close.
}

// FuzzSearchFingerprints fuzzes the counting core against the brute-force
// scorer with document sets, query, cutoff and cap all derived from the
// fuzz input, and the merge JaccardDistance counts with (distance.Shared)
// against the brute-force intersection count.
func FuzzSearchFingerprints(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(120), uint8(3))
	f.Add([]byte{0xff, 0x00, 0x42, 0x42, 0x17}, uint8(255), uint8(0))
	f.Add([]byte{9}, uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, distByte, limitByte uint8) {
		ix := New(stubExtractor{}, false)
		reference := make(map[trajectory.ID][]uint32)
		// Each byte contributes terms to one of 8 documents and the query:
		// a crude but deterministic overlap generator.
		var query []uint32
		for i, b := range data {
			id := trajectory.ID(b % 8)
			term := uint32(b)*31 + uint32(i%7)
			reference[id] = append(reference[id], term)
			if b%3 == 0 {
				query = append(query, term)
			}
			if b%5 == 0 {
				query = append(query, uint32(b)*131)
			}
		}
		query = termSet(query...)
		for id, terms := range reference {
			set := termSet(terms...)
			reference[id] = set
			ix.Delete(id)
			if err := ix.insert(id, set, nil); err != nil {
				t.Fatal(err)
			}
			if got, want := distance.Shared(query, set), sharedTerms(query, set); got != want {
				t.Fatalf("doc %d: distance.Shared = %d, brute force %d", id, got, want)
			}
		}
		maxDistance := float64(distByte) / 255
		limit := int(limitByte % 12)
		got, _, err := searchSet(ix, query, maxDistance, limit)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceSearch(reference, query, maxDistance, limit)
		equalResults(t, "fuzz", got, want)
	})
}
