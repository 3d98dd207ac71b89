package index

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"geodabs/internal/bitmap"
	"geodabs/internal/trajectory"
)

// rankCand is one candidate of a ranking fixture: its shared count with
// the query and its cardinality.
type rankCand struct {
	id           uint32
	shared, card int
}

// rankByCountAgainstConsiderAll ranks cands twice — through RankByCount,
// and through Consider on every candidate in first-touch order — and
// requires byte-identical results. It also checks the walk's accounting:
// every candidate is either pruned (skipped at the stop, or by Consider's
// bounds) or scored, Pruned + scored == Candidates. It returns the
// candidates the walk looked up.
func rankByCountAgainstConsiderAll(t *testing.T, label string, qc int, maxDistance float64, limit int, cands []rankCand) map[uint32]bool {
	t.Helper()
	counter := bitmap.NewCounter()
	cards := make(map[uint32]int, len(cands))
	shared := make(map[uint32]int, len(cands))
	var all Ranker
	all.Init(qc, maxDistance, limit)
	for _, c := range cands {
		counter.AddN(c.id, c.shared)
		cards[c.id] = c.card
		shared[c.id] = c.shared
		all.Consider(trajectory.ID(c.id), c.card, c.shared)
	}
	want := all.Finish(nil)

	var walk, replay Ranker
	walk.Init(qc, maxDistance, limit)
	replay.Init(qc, maxDistance, limit)
	looked := make(map[uint32]bool)
	err := walk.RankByCount(context.Background(), counter, func(id uint32) (int, bool) {
		looked[id] = true
		// Replaying the walk's own sequence separates what Consider pruned
		// from what it scored. The walk has drained the counter, so the
		// shared count comes from the case table.
		replay.Consider(trajectory.ID(id), cards[id], shared[id])
		return cards[id], true
	})
	if err != nil {
		t.Fatal(err)
	}
	equalResults(t, label, walk.Finish(nil), want)
	scored := len(looked) - replay.Pruned()
	if walk.Pruned()+scored != len(cands) {
		t.Fatalf("%s: Pruned %d + scored %d != Candidates %d", label, walk.Pruned(), scored, len(cands))
	}
	return looked
}

// stopCount returns the highest shared count at which a fresh ranker's
// bar fails at |G| = count — the static stop of a walk — or 0 if none.
func stopCount(qc int, maxDistance float64) int {
	var r Ranker
	r.Init(qc, maxDistance, 0)
	for c := qc; c > 0; c-- {
		if r.belowBar(c, c) {
			return c
		}
	}
	return 0
}

// TestRankByCountMatchesConsiderAll pins the count-order walk to the
// first-touch order it replaced, on the shapes where stopping early could
// go wrong, then on random ones.
func TestRankByCountMatchesConsiderAll(t *testing.T) {
	t.Run("ties at the kth distance", func(t *testing.T) {
		// Against |F| = 10: ID 50 at 1/3; IDs 30, 40 and 45 all at 2/3 from
		// counts 4, 5 and 6, so the walk meets the tie highest count (and
		// highest ID) first and the ID tiebreak must still place 30; ID 35
		// at 0.8.
		cands := []rankCand{{45, 6, 14}, {35, 2, 2}, {40, 5, 10}, {50, 8, 10}, {30, 4, 6}}
		for _, limit := range []int{1, 2, 3, 4, 5} {
			for _, maxDistance := range []float64{0.7, 1} {
				rankByCountAgainstConsiderAll(t, "ties", 10, maxDistance, limit, cands)
			}
		}
	})

	t.Run("counts around the stop", func(t *testing.T) {
		const qc, maxDistance = 40, 0.5
		stop := stopCount(qc, maxDistance)
		if stop < 2 {
			t.Fatalf("no stop below |F| = %d at maxDistance %v", qc, maxDistance)
		}
		var cands []rankCand
		id := uint32(1)
		for _, shared := range []int{stop - 1, stop, stop + 1} {
			for card := shared; card <= 2*qc; card += 7 {
				cands = append(cands, rankCand{id, shared, card})
				id++
			}
		}
		looked := rankByCountAgainstConsiderAll(t, "stop", qc, maxDistance, 0, cands)
		for _, c := range cands {
			if looked[c.id] != (c.shared > stop) {
				t.Errorf("count %d (stop %d): looked up = %v", c.shared, stop, looked[c.id])
			}
		}
		for _, limit := range []int{1, 3} {
			rankByCountAgainstConsiderAll(t, "stop/knn", qc, maxDistance, limit, cands)
		}
	})

	t.Run("range queries at distance 0 and 1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		const qc = 12
		var cands []rankCand
		for id := uint32(1); id <= 200; id++ {
			shared := 1 + rng.Intn(qc)
			cands = append(cands, rankCand{id * 977, shared, shared + rng.Intn(qc)})
		}
		cands = append(cands, rankCand{7, qc, qc}) // the one exact match
		for _, limit := range []int{0, -1} {
			rankByCountAgainstConsiderAll(t, "distance 0", qc, 0, limit, cands)
			looked := rankByCountAgainstConsiderAll(t, "distance 1", qc, 1, limit, cands)
			if len(looked) != len(cands) {
				t.Errorf("distance 1 looked up %d of %d candidates; nothing can be pruned", len(looked), len(cands))
			}
		}
	})

	t.Run("one query term", func(t *testing.T) {
		cands := []rankCand{{9, 1, 1}, {3, 1, 5}, {70000, 1, 2}, {4, 1, 1}}
		for _, limit := range []int{0, 1, 2} {
			for _, maxDistance := range []float64{0, 0.5, 0.8, 1} {
				rankByCountAgainstConsiderAll(t, "|F| = 1", 1, maxDistance, limit, cands)
			}
		}
	})

	t.Run("a count above the query", func(t *testing.T) {
		const qc = 5
		for _, count := range []int{qc + 1, 1<<32 - 1} {
			counter := bitmap.NewCounter()
			counter.AddN(1, 2)
			counter.AddN(2, count)
			var r Ranker
			r.Init(qc, 1, 10)
			err := r.RankByCount(context.Background(), counter, func(uint32) (int, bool) {
				t.Fatal("a cardinality was looked up")
				return 0, false
			})
			if err != ErrCountAboveQuery || len(r.buckets) != qc+1 {
				t.Errorf("count %d against |F| = %d: err %v, %d buckets", count, qc, err, len(r.buckets))
			}
		}
	})

	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for trial := 0; trial < 500; trial++ {
			qc := 1 + rng.Intn(60)
			seen := make(map[uint32]bool)
			var cands []rankCand
			for n := rng.Intn(300); n > 0; n-- {
				id := rng.Uint32() % 300000 // several counter chunks
				if seen[id] {
					continue
				}
				seen[id] = true
				shared := 1 + rng.Intn(qc)
				cands = append(cands, rankCand{id, shared, shared + rng.Intn(2*qc)})
			}
			maxDistance := []float64{0, 0.2, 0.5, 0.9, 1, rng.Float64()}[rng.Intn(6)]
			limit := []int{0, 1, 3, 10}[rng.Intn(4)]
			rankByCountAgainstConsiderAll(t, "random", qc, maxDistance, limit, cands)
		}
	})
}

// countSortOrder is the order a walk over cands must visit them in: one
// stable counting sort, highest shared count first and first-touch order
// within a count.
func countSortOrder(cands []rankCand) []uint32 {
	sorted := slices.Clone(cands)
	slices.SortStableFunc(sorted, func(a, b rankCand) int { return b.shared - a.shared })
	order := make([]uint32, len(sorted))
	for i, c := range sorted {
		order[i] = c.id
	}
	return order
}

// TestRankByCountBands ranks candidate sets several bands deep — low
// shared counts against larger cardinalities, so a capped walk's bar
// stays low for hundreds of candidates — and checks both the results and
// the walk itself: it looks up a prefix of countSortOrder, so banding
// never reorders what the walk visits.
func TestRankByCountBands(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	deep := 0
	for trial := 0; trial < 100; trial++ {
		qc := 2 + rng.Intn(60)
		seen := make(map[uint32]bool)
		var cands []rankCand
		for n := 300 + rng.Intn(3000); n > 0; n-- {
			id := rng.Uint32() % 200000
			if seen[id] {
				continue
			}
			seen[id] = true
			shared := 1 + min(qc-1, int(rng.ExpFloat64()*float64(qc)/6))
			cands = append(cands, rankCand{id, shared, shared + rng.Intn(3*qc)})
		}
		maxDistance := []float64{0.5, 0.9, 0.99, 1}[rng.Intn(4)]
		limit := []int{0, 1, 10, 40, 100}[rng.Intn(5)]
		label := fmt.Sprintf("trial %d (|F| %d, %d candidates, maxDistance %v, limit %d)", trial, qc, len(cands), maxDistance, limit)
		rankByCountAgainstConsiderAll(t, label, qc, maxDistance, limit, cands)

		counter := bitmap.NewCounter()
		for _, c := range cands {
			counter.AddN(c.id, c.shared)
		}
		var r Ranker
		r.Init(qc, maxDistance, limit)
		var walked []uint32
		cards := make(map[uint32]int, len(cands))
		for _, c := range cands {
			cards[c.id] = c.card
		}
		if err := r.RankByCount(context.Background(), counter, func(id uint32) (int, bool) {
			walked = append(walked, id)
			return cards[id], true
		}); err != nil {
			t.Fatal(err)
		}
		if want := countSortOrder(cands)[:len(walked)]; !slices.Equal(walked, want) {
			t.Fatalf("%s: the walk left count order", label)
		}
		if limit > 0 && len(walked) > max(minBand, 8*limit) {
			deep++
		}
	}
	if deep < 10 {
		t.Fatalf("only %d capped walks went past their first band", deep)
	}
}

// BenchmarkRankByCount ranks one counter shaped like a prepared search
// of a dense corpus: |F| = 34, ~3,600 candidates in one counter chunk,
// most sharing a term or two, a few near-duplicates, and k = 10. The
// timer covers RankByCount and Finish only; refilling the counter the
// walk drains does not count.
func BenchmarkRankByCount(b *testing.B) {
	const qc, limit = 34, 10
	rng := rand.New(rand.NewSource(1))
	var cands []rankCand
	seen := make(map[uint32]bool)
	for len(cands) < 3600 {
		id := uint32(rng.Intn(30000))
		if seen[id] {
			continue
		}
		seen[id] = true
		shared := 1 + min(qc-1, int(rng.ExpFloat64()*2))
		if rng.Intn(5) == 0 {
			shared = 4 + rng.Intn(qc-18) // a stretch of the same route
		}
		cands = append(cands, rankCand{id, shared, max(shared, 20+rng.Intn(30))})
	}
	cards := make([]int, 30000)
	for _, c := range cands {
		cards[c.id] = c.card
	}
	walked := 0
	card := func(id uint32) (int, bool) {
		walked++
		return cards[id], true
	}
	counter := bitmap.NewCounter()
	var r Ranker
	var dst []Result
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		counter.Reset()
		for _, c := range cands {
			counter.AddN(c.id, c.shared)
		}
		b.StartTimer()
		r.Init(qc, 1, limit)
		if err := r.RankByCount(context.Background(), counter, card); err != nil {
			b.Fatal(err)
		}
		dst = r.Finish(dst[:0])
	}
	b.ReportMetric(float64(walked)/float64(b.N), "walked/op")
}
