package geodabs_test

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"geodabs"
	"geodabs/internal/core"
)

// preparedVariants builds every way of preparing one trajectory as a
// *Query: lazy (NewQuery), eager (Fingerprinter.Prepare) and
// fingerprint-only (QueryFromFingerprint). The fingerprint-only variant
// reports itself so callers can skip rerank cases against it.
func preparedVariants(t *testing.T, tr *geodabs.Trajectory) map[string]*geodabs.Query {
	t.Helper()
	fp, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*geodabs.Query{
		"NewQuery":             geodabs.NewQuery(tr.Points),
		"Prepare":              fp.Prepare(tr.Points),
		"QueryFromFingerprint": geodabs.QueryFromFingerprint(fp.Fingerprint(tr.Points)),
	}
}

// TestSearchQueryMatchesSearch is the redesign's acceptance gate: for
// every preparation flavor and option combination, SearchQuery(prepared)
// returns byte-identical rankings to Search(trajectory), on both engines
// — and a second call through the now-warm caches agrees again.
func TestSearchQueryMatchesSearch(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 2)
	ctx := context.Background()
	optionSets := map[string][]geodabs.SearchOption{
		"default":      nil,
		"range+limit":  {geodabs.WithMaxDistance(0.99), geodabs.WithLimit(5)},
		"knn":          {geodabs.WithKNN(3)},
		"ranged knn":   {geodabs.WithMaxDistance(0.5), geodabs.WithKNN(5)},
		"exact rerank": {geodabs.WithMaxDistance(0.99), geodabs.WithKNN(5), geodabs.WithExactRerank(geodabs.DTW)},
	}
	for _, tr := range w.Queries {
		variants := preparedVariants(t, tr)
		for optName, opts := range optionSets {
			want, err := idx.Search(ctx, tr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			clWant, err := cl.Search(ctx, tr, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Hits, clWant.Hits) {
				t.Fatalf("query %d %s: index and cluster disagree before preparation", tr.ID, optName)
			}
			rerank := optName == "exact rerank"
			for variant, q := range variants {
				if rerank && q.FingerprintOnly() {
					continue // pinned by TestQueryFromFingerprintRejectsRerank
				}
				// Twice per engine: the first call populates the query's
				// caches, the second exercises them.
				for pass := 0; pass < 2; pass++ {
					got, err := idx.SearchQuery(ctx, q, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got.Hits, want.Hits) {
						t.Fatalf("query %d %s %s pass %d: index SearchQuery = %+v, Search = %+v",
							tr.ID, optName, variant, pass, got.Hits, want.Hits)
					}
					clGot, err := cl.SearchQuery(ctx, q, opts...)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(clGot.Hits, clWant.Hits) {
						t.Fatalf("query %d %s %s pass %d: cluster SearchQuery diverges from Search",
							tr.ID, optName, variant, pass)
					}
				}
			}
		}
	}
}

// TestSearchQueryBatchMatchesSearchBatch pins the prepared batch path:
// SearchQueryBatch over prepared queries equals SearchBatch over the
// corresponding trajectories, positionally, on both engines — including
// a batch that repeats one *Query value.
func TestSearchQueryBatchMatchesSearchBatch(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 2)
	ctx := context.Background()
	opts := []geodabs.SearchOption{geodabs.WithMaxDistance(0.99), geodabs.WithLimit(5)}
	prepared := make([]*geodabs.Query, len(w.Queries))
	for i, tr := range w.Queries {
		prepared[i] = geodabs.NewQuery(tr.Points)
	}
	want, err := idx.SearchBatch(ctx, w.Queries, 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.SearchQueryBatch(ctx, prepared, 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Hits, want[i].Hits) {
			t.Errorf("query %d: prepared batch diverges from trajectory batch", w.Queries[i].ID)
		}
	}
	clGot, err := cl.SearchQueryBatch(ctx, prepared, 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(clGot[i].Hits, want[i].Hits) {
			t.Errorf("query %d: cluster prepared batch diverges", w.Queries[i].ID)
		}
	}
	// One *Query repeated across the whole batch: every position returns
	// the same ranking as a standalone search of it.
	one := prepared[0]
	repeated := make([]*geodabs.Query, 6)
	for i := range repeated {
		repeated[i] = one
	}
	rep, err := idx.SearchQueryBatch(ctx, repeated, 3, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep {
		if !reflect.DeepEqual(r.Hits, want[0].Hits) {
			t.Errorf("repeated position %d diverges from standalone search", i)
		}
	}
	// A bad option still fails the whole batch up front.
	if _, err := idx.SearchQueryBatch(ctx, prepared, 2, geodabs.WithKNN(3), geodabs.WithLimit(3)); err == nil {
		t.Error("SearchQueryBatch accepted mutually exclusive options")
	}
}

// TestQueryFromFingerprintRejectsRerank pins the fingerprint-only rule:
// a Query without raw points rejects WithExactRerank with a pointed
// error, on both engines, while fingerprint-ranked searches work.
func TestQueryFromFingerprintRejectsRerank(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 2)
	ctx := context.Background()
	fp, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := geodabs.QueryFromFingerprint(fp.Fingerprint(w.Queries[0].Points))
	if !q.FingerprintOnly() {
		t.Fatal("QueryFromFingerprint is not fingerprint-only")
	}
	if q.Points() != nil {
		t.Fatal("fingerprint-only query carries points")
	}
	for name, s := range map[string]geodabs.Searcher{"index": idx, "cluster": cl} {
		res, err := s.SearchQuery(ctx, q, geodabs.WithKNN(3))
		if err != nil || len(res.Hits) == 0 {
			t.Fatalf("%s: fingerprint-only search: %d hits, %v", name, len(res.Hits), err)
		}
		_, err = s.SearchQuery(ctx, q, geodabs.WithKNN(3), geodabs.WithExactRerank(geodabs.DTW))
		if err == nil || !strings.Contains(err.Error(), "fingerprint-only") {
			t.Errorf("%s: rerank of fingerprint-only query: %v, want pointed error", name, err)
		}
	}
	// A nil query fails cleanly rather than panicking.
	if _, err := idx.SearchQuery(ctx, nil); err == nil {
		t.Error("SearchQuery accepted a nil *Query")
	}
}

// TestWideQueryPreparedParity drives a query of more than 65535 terms
// through both engines as a fingerprint-only prepared query: the local
// index and the cluster must stay byte-identical (and stable across
// cache-warm repeats). One indexed trajectory — a raster over a block of
// geohash prefixes that all shard to one node — shares more than 65535
// terms with the query, so both the shard's and that node's count for
// it pass the 16 bits of a counter array entry.
func TestWideQueryPreparedParity(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 2)
	ctx := context.Background()
	fp, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols = 140, 7800
	raster := &geodabs.Trajectory{ID: 900001, Points: make([]geodabs.Point, 0, rows*cols)}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			east := c
			if r%2 == 1 {
				east = cols - 1 - c // boustrophedon: no jump between rows
			}
			raster.Points = append(raster.Points, geodabs.Point{Lat: 45.1 + float64(r)*1.3/rows, Lon: 0.1 + float64(east)*0.0007})
		}
	}
	huge := fp.Fingerprint(raster.Points).Set
	if huge.Cardinality() <= 1<<16 {
		t.Fatalf("raster yields %d terms, want more than 65536", huge.Cardinality())
	}
	before, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Add(raster); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add(raster); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := after[0].Postings - before[0].Postings; got != huge.Cardinality() {
		t.Fatalf("node 0 took %d of the raster's %d terms, want all of them", got, huge.Cardinality())
	}
	// Real terms (so the wide query has other candidates) plus the
	// raster's, every one of which it shares with the query.
	terms := append(fp.Fingerprint(w.Dataset.Trajectories[0].Points).Set.ToSlice(), huge.ToSlice()...)
	for _, tr := range w.Dataset.Trajectories[1:8] {
		terms = append(terms, fp.Fingerprint(tr.Points).Set.ToSlice()...)
	}
	slices.Sort(terms)
	q := geodabs.QueryFromFingerprint(&geodabs.Fingerprint{Set: core.SetOf(slices.Compact(terms))})
	for _, opts := range [][]geodabs.SearchOption{
		nil,
		{geodabs.WithLimit(10)},
		{geodabs.WithMaxDistance(0.9999), geodabs.WithKNN(5)},
	} {
		var prev []geodabs.Result
		for pass := 0; pass < 2; pass++ {
			got, err := idx.SearchQuery(ctx, q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			clGot, err := cl.SearchQuery(ctx, q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Hits, clGot.Hits) {
				t.Fatalf("wide query: index and cluster rankings diverge (opts %d, pass %d)", len(opts), pass)
			}
			if pass == 0 {
				prev = got.Hits
				if len(prev) == 0 || prev[0].ID != raster.ID || prev[0].Shared != huge.Cardinality() {
					t.Fatalf("wide query's best hit = %+v, want the raster sharing all %d terms", prev[:min(1, len(prev))], huge.Cardinality())
				}
			} else if !reflect.DeepEqual(got.Hits, prev) {
				t.Fatalf("wide query unstable across cache-warm repeat")
			}
		}
	}
}

// TestQueryAcrossConfigurations exercises the lazy cache's re-derivation:
// one NewQuery value searched against a geodab index and a geohash-cell
// baseline index must match each engine's own trajectory search.
func TestQueryAcrossConfigurations(t *testing.T) {
	_, w := testWorld()
	ctx := context.Background()
	geodab := builtTestIndex(t)
	cell, err := geodabs.NewGeohashIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := cell.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	tr := w.Queries[0]
	q := geodabs.NewQuery(tr.Points)
	for _, engines := range [][2]*geodabs.Index{{geodab, cell}, {cell, geodab}} {
		for _, ix := range engines {
			want, err := ix.Search(ctx, tr, geodabs.WithLimit(5))
			if err != nil {
				t.Fatal(err)
			}
			got, err := ix.SearchQuery(ctx, q, geodabs.WithLimit(5))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Hits, want.Hits) {
				t.Fatalf("cross-configuration reuse diverges from the engine's own search")
			}
		}
	}
}

// TestClusterAnalyzeQuery pins AnalyzeQuery against Analyze and checks
// the cached plan serves repeated analyses.
func TestClusterAnalyzeQuery(t *testing.T) {
	_, w := testWorld()
	cl := builtTestCluster(t, 2)
	for _, tr := range w.Queries[:3] {
		want := cl.Analyze(tr)
		q := geodabs.NewQuery(tr.Points)
		if got := cl.AnalyzeQuery(q); got != want {
			t.Errorf("query %d: AnalyzeQuery = %+v, Analyze = %+v", tr.ID, got, want)
		}
		if got := cl.AnalyzeQuery(q); got != want { // cached plan path
			t.Errorf("query %d: repeated AnalyzeQuery = %+v, Analyze = %+v", tr.ID, got, want)
		}
	}
}

// TestClusterQueryAlternatingStrategies uses one *Query against two
// clusters of different shard strategies in turn: the query caches the
// plan of the most recent strategy only, so every switch must plan again
// rather than route by the other cluster's plan. With one shard per
// prefix, the strategies route the query to different nodes.
func TestClusterQueryAlternatingStrategies(t *testing.T) {
	_, w := testWorld()
	ctx := context.Background()
	cfg := geodabs.DefaultConfig()
	strategies := [2]geodabs.ShardStrategy{
		{PrefixBits: cfg.PrefixBits, Shards: 1 << cfg.PrefixBits, Nodes: 2},
		{PrefixBits: cfg.PrefixBits, Shards: 1 << cfg.PrefixBits, Nodes: 3},
	}
	tr := w.Queries[0]
	f, err := geodabs.NewFingerprinter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := func(s geodabs.ShardStrategy) (mask uint64) {
		for _, term := range f.Fingerprint(tr.Points).Set.ToSlice() {
			mask |= 1 << s.NodeOfGeodab(term)
		}
		return mask
	}
	if nodes(strategies[0]) == nodes(strategies[1]) {
		t.Fatal("both strategies route the query to the same nodes: a plan of either would serve both")
	}
	two, three := builtStrategyCluster(t, strategies[0]), builtStrategyCluster(t, strategies[1])
	q := geodabs.NewQuery(tr.Points)
	for i, cl := range []*geodabs.Cluster{two, three, two, three, three, two} {
		if got, want := cl.AnalyzeQuery(q), cl.Analyze(tr); got != want {
			t.Fatalf("use %d: AnalyzeQuery = %+v, Analyze = %+v", i, got, want)
		}
		want, err := cl.Search(ctx, tr, geodabs.WithLimit(5))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.SearchQuery(ctx, q, geodabs.WithLimit(5))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) || got.Stats.NodesTouched != want.Stats.NodesTouched {
			t.Fatalf("use %d: the shared query's search diverges from the cluster's own", i)
		}
	}
}

// TestPreparedQueryConcurrentReuse shares one *Query across SearchBatch
// workers while Upserts churn the engines underneath — the -race
// acceptance test for the query caches' synchronization. Results are not
// pinned (the data is mutating); every search must simply succeed.
func TestPreparedQueryConcurrentReuse(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 2)
	ctx := context.Background()
	one := geodabs.NewQuery(w.Queries[0].Points)
	batch := make([]*geodabs.Query, 24)
	for i := range batch {
		batch[i] = one
	}
	for name, engine := range map[string]interface {
		geodabs.Searcher
		geodabs.Mutator
	}{"index": idx, "cluster": cl} {
		var wg sync.WaitGroup
		stop := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := w.Dataset.Trajectories[i%len(w.Dataset.Trajectories)]
				if err := engine.Upsert(ctx, tr); err != nil {
					t.Errorf("%s: Upsert: %v", name, err)
					return
				}
			}
		}()
		type batcher interface {
			SearchQueryBatch(ctx context.Context, qs []*geodabs.Query, workers int, opts ...geodabs.SearchOption) ([]*geodabs.SearchResult, error)
		}
		results, err := engine.(batcher).SearchQueryBatch(ctx, batch, 8, geodabs.WithLimit(5))
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatalf("%s: SearchQueryBatch under concurrent Upserts: %v", name, err)
		}
		if len(results) != len(batch) {
			t.Fatalf("%s: %d results for %d queries", name, len(results), len(batch))
		}
		for i, r := range results {
			if r == nil {
				t.Fatalf("%s: missing result at %d", name, i)
			}
		}
	}
}
