package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geodabs/internal/core"
	"geodabs/internal/gen"
	"geodabs/internal/geo"
	"geodabs/internal/geohash"
	"geodabs/internal/roadnet"
	"geodabs/internal/trajectory"
)

// testWorkload caches a small generated dataset shared across tests.
var testWorkload = func() *gen.Output {
	g, err := roadnet.GenerateCity(roadnet.CityConfig{RadiusMeters: 4000, Seed: 4})
	if err != nil {
		panic(err)
	}
	cfg := gen.DefaultConfig()
	cfg.Routes = 12
	cfg.TrajectoriesPerDirection = 5
	cfg.MinRouteMeters = 2000
	out, err := gen.Generate(g, cfg)
	if err != nil {
		panic(err)
	}
	return out
}()

// newGeodabIndex returns an empty geodab index that keeps no points.
func newGeodabIndex(t testing.TB) *Inverted {
	t.Helper()
	return New(GeodabExtractor{core.MustFingerprinter(core.DefaultConfig())}, false)
}

// newRetainingIndex returns an empty geodab index that keeps points.
func newRetainingIndex(t testing.TB) *Inverted {
	t.Helper()
	return New(GeodabExtractor{core.MustFingerprinter(core.DefaultConfig())}, true)
}

// searchTraj is a trajectory search on ix: its terms, extracted by ix's
// own extractor, ranked by AppendSearchSet.
func searchTraj(ctx context.Context, ix *Inverted, q *trajectory.Trajectory, maxDistance float64, limit int) ([]Result, SearchStats, error) {
	return ix.AppendSearchSet(ctx, nil, ix.Extractor().Extract(q.Points), maxDistance, limit)
}

// search is searchTraj for tests that only look at the ranking.
func search(t testing.TB, ix *Inverted, q *trajectory.Trajectory, maxDistance float64, limit int) []Result {
	t.Helper()
	results, _, err := searchTraj(context.Background(), ix, q, maxDistance, limit)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// searchSet ranks against a pre-built fingerprint set.
func searchSet(ix *Inverted, set []uint32, maxDistance float64, limit int) ([]Result, SearchStats, error) {
	return ix.AppendSearchSet(context.Background(), nil, set, maxDistance, limit)
}

// hasDoc reports whether the index holds a document for id.
func hasDoc(ix *Inverted, id trajectory.ID) bool {
	found := false
	ix.ScanDocs(func(got trajectory.ID, _ []uint32, _ int) bool {
		found = got == id
		return !found
	})
	return found
}

func TestAddAndQuery(t *testing.T) {
	ix := newGeodabIndex(t)
	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := ix.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != testWorkload.Dataset.Len() {
		t.Fatalf("Len = %d, want %d", ix.Len(), testWorkload.Dataset.Len())
	}
	q := testWorkload.Queries[0]
	results := search(t, ix, q, 0.99, 0)
	if len(results) == 0 {
		t.Fatal("query returned nothing")
	}
	// Results are sorted by distance.
	for i := 1; i < len(results); i++ {
		if results[i].Distance < results[i-1].Distance {
			t.Fatal("results not sorted")
		}
	}
	// The top results should be the relevant ones (same route+direction).
	relevant := map[trajectory.ID]bool{}
	for _, id := range testWorkload.Relevant[q.ID] {
		relevant[id] = true
	}
	topRelevant := 0
	for _, r := range results[:min(len(results), len(relevant))] {
		if relevant[r.ID] {
			topRelevant++
		}
	}
	// Routes in a small city can genuinely overlap, so the top results
	// are not all "relevant" in the strict same-route sense; the full
	// evaluation (Fig 12) measures this properly on a city-scale dataset.
	if frac := float64(topRelevant) / float64(len(relevant)); frac < 0.6 {
		t.Errorf("only %.0f%% of top results are relevant", frac*100)
	}
}

func TestQueryMaxDistanceAndLimit(t *testing.T) {
	ix := newGeodabIndex(t)
	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := ix.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	q := testWorkload.Queries[0]
	all := search(t, ix, q, 1, 0)
	strict := search(t, ix, q, 0.5, 0)
	if len(strict) > len(all) {
		t.Fatal("tighter Δmax returned more results")
	}
	for _, r := range strict {
		if r.Distance > 0.5 {
			t.Fatalf("result at distance %.3f exceeds Δmax", r.Distance)
		}
	}
	if limited := search(t, ix, q, 1, 3); len(limited) != 3 {
		t.Errorf("limit 3 returned %d results", len(limited))
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	ix := newGeodabIndex(t)
	tr := testWorkload.Dataset.Trajectories[0]
	if err := ix.Add(tr); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(tr); err == nil {
		t.Error("duplicate ID should be rejected")
	}
}

func TestAddAllParallelMatchesSequential(t *testing.T) {
	seq := newGeodabIndex(t)
	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := seq.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	par := newGeodabIndex(t)
	if err := par.AddAll(context.Background(), testWorkload.Dataset, 8); err != nil {
		t.Fatal(err)
	}
	if par.Len() != seq.Len() {
		t.Fatalf("parallel build has %d docs, sequential %d", par.Len(), seq.Len())
	}
	for _, q := range testWorkload.Queries[:4] {
		a := search(t, seq, q, 1, 10)
		b := search(t, par, q, 1, 10)
		if len(a) != len(b) {
			t.Fatalf("result count mismatch: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("result %d mismatch: %+v vs %+v", i, a[i], b[i])
			}
		}
	}
	if err := par.AddAll(context.Background(), testWorkload.Dataset, 4); err == nil {
		t.Error("re-adding the dataset should fail on duplicates")
	}
}

func TestQueryEmptyIndex(t *testing.T) {
	ix := newGeodabIndex(t)
	if got := search(t, ix, testWorkload.Queries[0], 1, 0); len(got) != 0 {
		t.Errorf("empty index returned %d results", len(got))
	}
}

func TestQueryUnmatchableTrajectory(t *testing.T) {
	ix := newGeodabIndex(t)
	for _, tr := range testWorkload.Dataset.Trajectories[:10] {
		if err := ix.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	// A trajectory on the other side of the planet shares no terms.
	far := &trajectory.Trajectory{ID: 9999}
	for i := 0; i < 300; i++ {
		far.Points = append(far.Points, geohash.Hash{Bits: 0b101010, Depth: 6}.Center())
	}
	if got := search(t, ix, far, 1, 0); len(got) != 0 {
		t.Errorf("far trajectory matched %d results", len(got))
	}
}

func TestCellExtractorDirectionBlind(t *testing.T) {
	// The geohash baseline cannot distinguish direction: a trajectory and
	// its reverse share (almost) all cells (paper Fig 12's 0.5 plateau).
	ex, err := NewCellExtractor(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr := testWorkload.Dataset.Trajectories[0]
	reversed := slices.Clone(tr.Points)
	slices.Reverse(reversed)
	fwd := ex.Extract(tr.Points)
	rev := ex.Extract(reversed)
	if j := 1 - jaccardDistance(fwd, rev); j < 0.5 {
		t.Errorf("cell sets of a trajectory and its reverse should overlap heavily, J = %.3f", j)
	}
	// Geodabs do distinguish: same comparison should be near zero.
	gx := GeodabExtractor{core.MustFingerprinter(core.DefaultConfig())}
	if j := 1 - jaccardDistance(gx.Extract(tr.Points), gx.Extract(reversed)); j > 0.2 {
		t.Errorf("geodab sets of opposite directions should differ, J = %.3f", j)
	}
}

func TestCellIndexReturnsBothDirections(t *testing.T) {
	ex, err := NewCellExtractor(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ix := New(ex, false)
	if err := ix.AddAll(context.Background(), testWorkload.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	q := testWorkload.Queries[0]
	results := search(t, ix, q, 0.95, 0)
	// The cell index should return trajectories from both directions of
	// the query's route.
	dirs := map[trajectory.Direction]int{}
	for _, r := range results {
		tr := testWorkload.Dataset.ByID(r.ID)
		if tr.Route == q.Route {
			dirs[tr.Dir]++
		}
	}
	if dirs[trajectory.Forward] == 0 || dirs[trajectory.Reverse] == 0 {
		t.Errorf("cell index should match both directions, got %v", dirs)
	}
}

func TestStats(t *testing.T) {
	ix := newGeodabIndex(t)
	if err := ix.AddAll(context.Background(), testWorkload.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Trajectories != testWorkload.Dataset.Len() {
		t.Errorf("Stats.Trajectories = %d", s.Trajectories)
	}
	if s.Terms == 0 || s.Postings < s.Terms || s.BitmapBytes == 0 {
		t.Errorf("degenerate stats: %+v", s)
	}
}

func TestConcurrentQueries(t *testing.T) {
	ix := newGeodabIndex(t)
	if err := ix.AddAll(context.Background(), testWorkload.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q := testWorkload.Queries[i%len(testWorkload.Queries)]
			if got, _, err := searchTraj(context.Background(), ix, q, 1, 5); err != nil || len(got) == 0 {
				t.Errorf("concurrent query %d returned %d results, err %v", i, len(got), err)
			}
		}(i)
	}
	wg.Wait()
}

func BenchmarkQuery(b *testing.B) {
	ix := newGeodabIndex(b)
	if err := ix.AddAll(context.Background(), testWorkload.Dataset, 8); err != nil {
		b.Fatal(err)
	}
	q := testWorkload.Queries[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = search(b, ix, q, 1, 10)
	}
}

// BenchmarkAddAll builds an index over testWorkload on 1, 2 and
// GOMAXPROCS workers: every extraction, then every insert under one lock.
func BenchmarkAddAll(b *testing.B) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	slices.Sort(counts)
	for _, workers := range slices.Compact(counts) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if err := newGeodabIndex(b).AddAll(context.Background(), testWorkload.Dataset, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// gatedExtractor counts Extract calls and holds every one on a gate
// except those of the free trajectory's points, so a test can bound how
// far workers run past a failure however they are scheduled.
type gatedExtractor struct {
	Extractor
	free []geo.Point
	gate chan struct{}
	n    atomic.Int64
}

func (g *gatedExtractor) Extract(points []geo.Point) []uint32 {
	g.n.Add(1)
	if len(points) == 0 || &points[0] != &g.free[0] {
		<-g.gate
	}
	return g.Extractor.Extract(points)
}

// TestAddAllFailsFast plants a duplicate ID at the front of a dataset:
// AddAll's ID check must refuse it before any fingerprinting. Every
// extraction but those of the duplicate's points waits until AddAll has
// returned, so a call that reached the workers would be seen starting at
// least one.
func TestAddAllFailsFast(t *testing.T) {
	src := testWorkload.Dataset.Trajectories
	ex := &gatedExtractor{
		Extractor: GeodabExtractor{core.MustFingerprinter(core.DefaultConfig())},
		free:      src[0].Points,
		gate:      make(chan struct{}),
	}
	ix := New(ex, false)
	poisoned := &trajectory.Dataset{Trajectories: make([]*trajectory.Trajectory, 0, len(src)+1)}
	poisoned.Trajectories = append(poisoned.Trajectories, src[0], src[0]) // duplicate ID
	poisoned.Trajectories = append(poisoned.Trajectories, src[1:]...)
	const workers = 2
	err := ix.AddAll(context.Background(), poisoned, workers)
	extracted := int(ex.n.Load())
	close(ex.gate)
	if err == nil {
		t.Fatal("duplicate ID should fail AddAll")
	}
	if extracted != 0 {
		t.Errorf("AddAll started %d extractions of %d trajectories, want 0", extracted, len(poisoned.Trajectories))
	}
	if ix.Len() != 0 {
		t.Errorf("failed AddAll left %d trajectories indexed", ix.Len())
	}
}

// racingExtractor inserts a racer trajectory into ix on its first
// Extract call, which AddAll makes only after its ID check, and holds
// every extraction until the racer is indexed. Each extraction then takes
// a few milliseconds, so one still running when AddAll returns is seen.
type racingExtractor struct {
	Extractor
	ix                *Inverted
	racer             *trajectory.Trajectory
	err               error // the racing insert's
	raced             atomic.Bool
	indexed           chan struct{}
	started, finished atomic.Int64
}

func (r *racingExtractor) Extract(points []geo.Point) []uint32 {
	r.started.Add(1)
	defer r.finished.Add(1)
	if r.raced.CompareAndSwap(false, true) {
		r.err = r.ix.insert(r.racer.ID, r.Extractor.Extract(r.racer.Points), r.racer.Points)
		close(r.indexed)
	}
	<-r.indexed
	time.Sleep(2 * time.Millisecond)
	return r.Extractor.Extract(points)
}

// TestAddAllRollsBackRacingAdd races an insert of a later batch ID
// against AddAll, after its ID check has passed: the batch must fail at
// that ID when it takes the write lock, having inserted nothing, leave
// only the racing trajectory, and return only once every extraction it
// started has finished.
func TestAddAllRollsBackRacingAdd(t *testing.T) {
	src := testWorkload.Dataset.Trajectories[:16]
	const later = 8 // unclaimed while the racer is inserted, for up to 8 workers
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ex := &racingExtractor{
				Extractor: GeodabExtractor{core.MustFingerprinter(core.DefaultConfig())},
				racer:     &trajectory.Trajectory{ID: src[later].ID, Points: src[0].Points},
				indexed:   make(chan struct{}),
			}
			ix := New(ex, false)
			ex.ix = ix
			err := ix.AddAll(context.Background(), &trajectory.Dataset{Trajectories: src}, workers)
			started, finished := ex.started.Load(), ex.finished.Load()
			if ex.err != nil {
				t.Fatalf("racing insert: %v", ex.err)
			}
			if err == nil {
				t.Fatal("AddAll succeeded over a racing insert of one of its IDs")
			}
			if started != finished {
				t.Errorf("AddAll returned with %d of its %d extractions still running", started-finished, started)
			}
			if n := ix.Len(); n != 1 {
				t.Fatalf("failed AddAll left %d trajectories indexed, want only the racing one", n)
			}
			want := ex.Extractor.Extract(ex.racer.Points)
			ix.ScanDocs(func(id trajectory.ID, terms []uint32, _ int) bool {
				if id != ex.racer.ID || !slices.Equal(terms, want) {
					t.Errorf("index holds trajectory %d (%d terms), want the racing %d (%d terms)", id, len(terms), ex.racer.ID, len(want))
				}
				return true
			})
		})
	}
}

// TestAddAllPublishesAtOnce holds every extraction but the free
// trajectory's on a gate: until the gate opens the index must look
// untouched, with no length, no epoch step and no hit for the free
// trajectory, and then hold the whole dataset at once. A ctx cancelled
// while the extractions are held must leave it untouched for good.
func TestAddAllPublishesAtOnce(t *testing.T) {
	src := testWorkload.Dataset.Trajectories
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, cancelled := range []bool{false, true} {
				ex := &gatedExtractor{
					Extractor: GeodabExtractor{core.MustFingerprinter(core.DefaultConfig())},
					free:      src[0].Points,
					gate:      make(chan struct{}),
				}
				ix := New(ex, false)
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan error, 1)
				go func() { done <- ix.AddAll(ctx, testWorkload.Dataset, workers) }()
				// The free trajectory's extraction has returned once every
				// worker is held on the gate.
				for deadline := time.Now().Add(10 * time.Second); ex.n.Load() < int64(workers+1); {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d extractions started", ex.n.Load(), workers+1)
					}
					time.Sleep(time.Millisecond)
				}
				if n, epoch := ix.Len(), ix.Epoch(); n != 0 || epoch != 0 {
					t.Errorf("while extracting: Len %d, epoch %d, want 0 and 0", n, epoch)
				}
				if got := search(t, ix, src[0], 1, 0); len(got) != 0 {
					t.Errorf("while extracting: a search found %d hits, want none", len(got))
				}
				if cancelled {
					cancel()
				}
				close(ex.gate)
				err := <-done
				cancel()
				want, wantErr := testWorkload.Dataset.Len(), error(nil)
				if cancelled {
					want, wantErr = 0, context.Canceled
				}
				if !errors.Is(err, wantErr) {
					t.Fatalf("cancelled=%v: AddAll = %v, want %v", cancelled, err, wantErr)
				}
				if n, epoch := ix.Len(), ix.Epoch(); n != want || epoch != uint64(want) {
					t.Errorf("cancelled=%v: Len %d, epoch %d, want %d and %d", cancelled, n, epoch, want, want)
				}
			}
		})
	}
}

func TestAddAllCancelledContext(t *testing.T) {
	ix := newGeodabIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ix.AddAll(ctx, testWorkload.Dataset, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("AddAll on cancelled context = %v, want context.Canceled", err)
	}
	if ix.Len() != 0 {
		t.Errorf("cancelled AddAll indexed %d trajectories", ix.Len())
	}
}

func TestSearchCancelledContext(t *testing.T) {
	ix := newGeodabIndex(t)
	if err := ix.AddAll(context.Background(), testWorkload.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := searchTraj(ctx, ix, testWorkload.Queries[0], 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search on cancelled context = %v, want context.Canceled", err)
	}
}

func TestPointsOf(t *testing.T) {
	ix := newRetainingIndex(t)
	tr := testWorkload.Dataset.Trajectories[0]
	if err := ix.Add(tr); err != nil {
		t.Fatal(err)
	}
	if got := ix.PointsOf(tr.ID); len(got) != len(tr.Points) {
		t.Errorf("PointsOf returned %d points, want %d", len(got), len(tr.Points))
	}
	if ix.PointsOf(4242) != nil {
		t.Error("PointsOf for unknown ID should be nil")
	}
	// Retention is opt-in: a default index keeps no points.
	bare := newGeodabIndex(t)
	if err := bare.Add(tr); err != nil {
		t.Fatal(err)
	}
	if bare.PointsOf(tr.ID) != nil {
		t.Error("PointsOf on a non-retaining index should be nil")
	}
}

// TestAddAllRollsBackOnFailure pins the all-or-nothing contract: a
// failed AddAll leaves nothing indexed, so retrying the same (fixed)
// dataset starts clean instead of tripping on duplicates.
func TestAddAllRollsBackOnFailure(t *testing.T) {
	ix := newGeodabIndex(t)
	src := testWorkload.Dataset.Trajectories
	poisoned := &trajectory.Dataset{Trajectories: make([]*trajectory.Trajectory, 0, len(src)+1)}
	poisoned.Trajectories = append(poisoned.Trajectories, src...)
	poisoned.Trajectories = append(poisoned.Trajectories, src[0]) // duplicate ID at the tail
	if err := ix.AddAll(context.Background(), poisoned, 4); err == nil {
		t.Fatal("duplicate ID should fail AddAll")
	}
	if n := ix.Len(); n != 0 {
		t.Fatalf("failed AddAll left %d trajectories indexed, want 0", n)
	}
	if got := search(t, ix, testWorkload.Queries[0], 1, 0); len(got) != 0 {
		t.Fatalf("rolled-back index still answers queries: %d hits", len(got))
	}
	// The retry with the clean dataset succeeds and matches a fresh build.
	if err := ix.AddAll(context.Background(), testWorkload.Dataset, 4); err != nil {
		t.Fatalf("retry after rollback: %v", err)
	}
	if ix.Len() != testWorkload.Dataset.Len() {
		t.Fatalf("retry indexed %d of %d", ix.Len(), testWorkload.Dataset.Len())
	}
}

// TestDeleteReclaimsPostings pins the posting-reclaiming contract of the
// promoted Delete: the trajectory's document, points and postings all
// go, and posting lists left empty are compacted out of the term map.
func TestDeleteReclaimsPostings(t *testing.T) {
	ix := newRetainingIndex(t)
	a, b := testWorkload.Dataset.Trajectories[0], testWorkload.Dataset.Trajectories[1]
	if err := ix.Add(a); err != nil {
		t.Fatal(err)
	}
	withA := ix.Stats()
	if err := ix.Add(b); err != nil {
		t.Fatal(err)
	}
	if !ix.Delete(b.ID) {
		t.Fatal("Delete of an indexed trajectory returned false")
	}
	got := ix.Stats()
	if got != withA {
		t.Errorf("stats after add+delete = %+v, want the pre-add %+v", got, withA)
	}
	if hasDoc(ix, b.ID) || ix.PointsOf(b.ID) != nil {
		t.Error("deleted trajectory still has fingerprints or points")
	}
	if ix.Delete(b.ID) {
		t.Error("second Delete of the same ID returned true")
	}
	// The deleted trajectory is gone from rankings, the survivor is not.
	hitIDs := map[trajectory.ID]bool{}
	for _, r := range search(t, ix, b, 1, 0) {
		hitIDs[r.ID] = true
	}
	if hitIDs[b.ID] {
		t.Error("deleted trajectory still ranked")
	}
	// Deleting everything leaves a truly empty index.
	if !ix.Delete(a.ID) {
		t.Fatal("Delete of the survivor returned false")
	}
	if s := ix.Stats(); s.Trajectories != 0 || s.Terms != 0 || s.Postings != 0 {
		t.Errorf("stats after deleting all: %+v, want zeros", s)
	}
	// The ID is free for re-use.
	if err := ix.Add(b); err != nil {
		t.Errorf("re-add after delete: %v", err)
	}
}

// TestUpsertReplaces verifies in-place replacement: same ID, new
// geometry, old postings reclaimed.
func TestUpsertReplaces(t *testing.T) {
	ix := newRetainingIndex(t)
	old := testWorkload.Dataset.Trajectories[0]
	if err := ix.Add(old); err != nil {
		t.Fatal(err)
	}
	// Re-shape the trajectory under the same ID.
	replacement := &trajectory.Trajectory{ID: old.ID, Points: testWorkload.Dataset.Trajectories[5].Points}
	ix.Upsert(replacement)
	if ix.Len() != 1 {
		t.Fatalf("Len after upsert = %d, want 1", ix.Len())
	}
	// A fresh index over only the replacement must look identical.
	want := newRetainingIndex(t)
	if err := want.Add(replacement); err != nil {
		t.Fatal(err)
	}
	if g, w := ix.Stats(), want.Stats(); g != w {
		t.Errorf("upserted index stats %+v, fresh build %+v", g, w)
	}
	if got := ix.PointsOf(old.ID); len(got) != len(replacement.Points) {
		t.Errorf("PointsOf after upsert returned %d points, want %d", len(got), len(replacement.Points))
	}
	// Upsert of an unknown ID is a plain insert.
	novel := testWorkload.Dataset.Trajectories[7]
	ix.Upsert(novel)
	if ix.Len() != 2 {
		t.Errorf("Len after insert-upsert = %d, want 2", ix.Len())
	}
}

func TestDeleteAllBatch(t *testing.T) {
	ix := newGeodabIndex(t)
	if err := ix.AddAll(context.Background(), testWorkload.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	ids := []trajectory.ID{
		testWorkload.Dataset.Trajectories[0].ID,
		testWorkload.Dataset.Trajectories[1].ID,
		99999, // unknown: skipped, not an error
	}
	deleted, err := ix.DeleteAll(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 2 {
		t.Errorf("DeleteAll deleted %d, want 2", deleted)
	}
	if ix.Len() != testWorkload.Dataset.Len()-2 {
		t.Errorf("Len = %d after deleting 2 of %d", ix.Len(), testWorkload.Dataset.Len())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.DeleteAll(ctx, ids); !errors.Is(err, context.Canceled) {
		t.Errorf("DeleteAll on cancelled context = %v, want context.Canceled", err)
	}
}

// TestEpochAdvances pins the mutation-epoch contract: every insert,
// delete and upsert bumps it; misses (unknown delete) do not.
func TestEpochAdvances(t *testing.T) {
	ix := newGeodabIndex(t)
	if ix.Epoch() != 0 {
		t.Fatalf("fresh index epoch = %d", ix.Epoch())
	}
	tr := testWorkload.Dataset.Trajectories[0]
	if err := ix.Add(tr); err != nil {
		t.Fatal(err)
	}
	if ix.Epoch() != 1 {
		t.Errorf("epoch after add = %d, want 1", ix.Epoch())
	}
	ix.Delete(99999) // miss
	if ix.Epoch() != 1 {
		t.Errorf("epoch after missed delete = %d, want 1", ix.Epoch())
	}
	ix.Upsert(tr) // delete + insert
	if ix.Epoch() != 3 {
		t.Errorf("epoch after upsert = %d, want 3", ix.Epoch())
	}
	ix.Delete(tr.ID)
	if ix.Epoch() != 4 {
		t.Errorf("epoch after delete = %d, want 4", ix.Epoch())
	}
}

// TestConcurrentMutateAndSearch interleaves adds, upserts, deletes and
// searches; run under -race it is the local half of the snapshot
// acceptance criterion. Every writer works a clone of the query
// trajectory, so any hit over the churned ID range must be an exact
// match (distance 0) — a partially-visible trajectory would surface as
// an intermediate distance.
func TestConcurrentMutateAndSearch(t *testing.T) {
	ix := newGeodabIndex(t)
	q := testWorkload.Queries[0]
	// A stable background population keeps searches non-trivial.
	for _, tr := range testWorkload.Dataset.Trajectories[:10] {
		if err := ix.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	const churnBase = trajectory.ID(50000)
	const writers, rounds = 4, 50
	stop := make(chan struct{})
	var searchErr atomic.Value
	var searchWG sync.WaitGroup
	for s := 0; s < 2; s++ {
		searchWG.Add(1)
		go func() {
			defer searchWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				results, _, err := searchTraj(context.Background(), ix, q, 1, 0)
				if err != nil {
					searchErr.Store(err)
					return
				}
				for _, r := range results {
					if r.ID >= churnBase && r.Distance != 0 {
						searchErr.Store(fmt.Errorf("partially visible trajectory %d at distance %v", r.ID, r.Distance))
						return
					}
				}
			}
		}()
	}
	var writeWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			id := churnBase + trajectory.ID(w)
			clone := &trajectory.Trajectory{ID: id, Points: q.Points}
			for r := 0; r < rounds; r++ {
				ix.Upsert(clone)
				ix.Delete(id)
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	searchWG.Wait()
	if err := searchErr.Load(); err != nil {
		t.Fatal(err)
	}
}

// onePointExtractor maps each point to one term so retention tests can
// drive Add/Upsert with real points.
type onePointExtractor struct{}

func (onePointExtractor) Extract(pts []geo.Point) []uint32 {
	var terms []uint32
	for _, p := range pts {
		terms = append(terms, uint32(p.Lat*1000)^uint32(p.Lon*1000)<<8)
	}
	return termSet(terms...)
}

func TestShardedPointRetention(t *testing.T) {
	s := New(onePointExtractor{}, true)
	pts := []geo.Point{{Lat: 1, Lon: 2}, {Lat: 3, Lon: 4}}
	if err := s.Add(&trajectory.Trajectory{ID: 7, Points: pts}); err != nil {
		t.Fatal(err)
	}
	if got := s.PointsOf(7); len(got) != 2 {
		t.Fatalf("PointsOf(7) = %v, want the 2 retained points", got)
	}
	pts2 := []geo.Point{{Lat: 5, Lon: 6}}
	s.Upsert(&trajectory.Trajectory{ID: 7, Points: pts2})
	if got := s.PointsOf(7); len(got) != 1 || got[0] != pts2[0] {
		t.Fatalf("PointsOf(7) after upsert = %v, want %v", got, pts2)
	}
	if s.Len() != 1 {
		t.Fatalf("Len after upsert = %d, want 1", s.Len())
	}
}

func TestShardedDeleteAll(t *testing.T) {
	s := New(stubExtractor{}, false)
	var ids []trajectory.ID
	for i := 0; i < 300; i++ {
		id := trajectory.ID(i)
		if err := s.insert(id, []uint32{uint32(i % 50)}, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Delete half of them plus some unknown IDs; the count reflects only
	// the indexed ones.
	batch := append([]trajectory.ID{9999, 8888}, ids[:150]...)
	n, err := s.DeleteAll(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if n != 150 {
		t.Fatalf("DeleteAll deleted %d, want 150", n)
	}
	if s.Len() != 150 {
		t.Fatalf("Len after DeleteAll = %d, want 150", s.Len())
	}
	// A cancelled context aborts without deleting everything it was given.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.DeleteAll(ctx, ids[150:]); err == nil {
		t.Fatal("DeleteAll with cancelled ctx returned nil error")
	}
}

// TestShardedAddAllRollsBackOnFailure pins that a failed AddAll leaves
// the index as it found it: a trajectory indexed before it survives.
func TestShardedAddAllRollsBackOnFailure(t *testing.T) {
	s := New(stubExtractor{}, false)
	// Pre-seed an ID that the dataset will collide with.
	if err := s.insert(42, []uint32{1}, nil); err != nil {
		t.Fatal(err)
	}
	d := &trajectory.Dataset{}
	for i := 0; i < 100; i++ {
		d.Trajectories = append(d.Trajectories, &trajectory.Trajectory{
			ID: trajectory.ID(i), Points: []geo.Point{{Lat: 1, Lon: 1}},
		})
	}
	d.Trajectories = append(d.Trajectories, &trajectory.Trajectory{
		ID: 42, Points: []geo.Point{{Lat: 1, Lon: 1}},
	})
	if err := s.AddAll(context.Background(), d, 4); err == nil {
		t.Fatal("AddAll with duplicate ID succeeded")
	}
	if s.Len() != 1 {
		t.Fatalf("Len after failed AddAll = %d, want 1 (rolled back)", s.Len())
	}
	if !hasDoc(s, 42) {
		t.Fatal("pre-existing trajectory lost in rollback")
	}
}

func TestShardedScanDocs(t *testing.T) {
	s := New(stubExtractor{}, false)
	want := make(map[trajectory.ID]int)
	for i := 0; i < 100; i++ {
		if err := s.insert(trajectory.ID(i), []uint32{uint32(i), uint32(i + 1000)}, nil); err != nil {
			t.Fatal(err)
		}
		want[trajectory.ID(i)] = 2
	}
	seen := make(map[trajectory.ID]int)
	s.ScanDocs(func(id trajectory.ID, set []uint32, card int) bool {
		seen[id] = card
		if len(set) != card {
			t.Fatalf("ScanDocs card %d != set cardinality %d", card, len(set))
		}
		return true
	})
	if len(seen) != len(want) {
		t.Fatalf("ScanDocs visited %d docs, want %d", len(seen), len(want))
	}
	for id, card := range want {
		if seen[id] != card {
			t.Fatalf("doc %d card %d, want %d", id, seen[id], card)
		}
	}
	// Early stop is honored.
	visits := 0
	s.ScanDocs(func(trajectory.ID, []uint32, int) bool {
		visits++
		return visits < 10
	})
	if visits != 10 {
		t.Fatalf("ScanDocs visited %d docs after early stop, want 10", visits)
	}
}

// TestShardedConcurrentMutateAndSearch churns Delete and re-insert on
// four goroutines while the test goroutine searches, under -race.
// Results cannot be compared to a reference mid-churn; instead every
// emitted result must satisfy the ranking invariants (sorted by the
// contract, distance within the cutoff, limit respected).
func TestShardedConcurrentMutateAndSearch(t *testing.T) {
	s := New(stubExtractor{}, false)
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 500; i++ {
		set := randomSet(rng, 40, 300)
		set = termSet(append(set, uint32(i))...)
		if err := s.insert(trajectory.ID(i), set, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := trajectory.ID(rng.Intn(500))
				if rng.Intn(3) == 0 {
					s.Delete(id)
				} else {
					set := randomSet(rng, 40, 300)
					set = termSet(append(set, uint32(id))...)
					s.Delete(id)
					_ = s.insert(id, set, nil)
				}
			}
		}(int64(100 + w))
	}
	searchRng := rand.New(rand.NewSource(35))
	for q := 0; q < 300; q++ {
		set := randomSet(searchRng, 40, 300)
		const maxDistance, limit = 0.95, 10
		results, _, err := searchSet(s, set, maxDistance, limit)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) > limit {
			t.Fatalf("got %d results over limit %d", len(results), limit)
		}
		for i, r := range results {
			if r.Distance > maxDistance {
				t.Fatalf("result %d distance %v over cutoff", i, r.Distance)
			}
			if i > 0 && resultLess(r, results[i-1]) {
				t.Fatalf("results out of order at %d: %+v before %+v", i, results[i-1], r)
			}
		}
	}
	close(stop)
	wg.Wait()
}
