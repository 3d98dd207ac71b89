package geodabs_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"geodabs"
)

// builtTestIndex indexes the shared test dataset into a fresh geodab
// index. Points are retained so the rerank tests can run against it.
func builtTestIndex(t *testing.T) *geodabs.Index {
	t.Helper()
	_, w := testWorld()
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithPointRetention())
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	return idx
}

// prepareAll prepares every trajectory as a lazy *Query, positionally.
func prepareAll(ts []*geodabs.Trajectory) []*geodabs.Query {
	qs := make([]*geodabs.Query, len(ts))
	for i, tr := range ts {
		qs[i] = geodabs.NewQuery(tr.Points)
	}
	return qs
}

// builtTestCluster starts nodes, fronts them with a coordinator and
// indexes the shared test dataset. Points are retained so the rerank
// tests can run against it.
func builtTestCluster(t *testing.T, nodes int) *geodabs.Cluster {
	t.Helper()
	cfg := geodabs.DefaultConfig()
	return builtStrategyCluster(t, geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: 1000, Nodes: nodes})
}

// builtStrategyCluster is builtTestCluster under the given strategy.
func builtStrategyCluster(t *testing.T, strategy geodabs.ShardStrategy) *geodabs.Cluster {
	t.Helper()
	_, w := testWorld()
	var addrs []string
	for i := 0; i < strategy.Nodes; i++ {
		n, err := geodabs.StartShardNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs = append(addrs, n.Addr())
	}
	cl, err := geodabs.NewCluster(geodabs.DefaultConfig(), strategy, addrs, geodabs.WithPointRetention())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	for _, tr := range w.Dataset.Trajectories {
		if err := cl.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func TestSearchDefaultsMatchUnboundedQuery(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	q := w.Queries[0]
	res, err := idx.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want := hits(t, idx, q, 1, 0)
	if !reflect.DeepEqual(res.Hits, want) {
		t.Errorf("default Search returned %d hits, explicitly unbounded Search %d", len(res.Hits), len(want))
	}
	if res.Stats.Candidates < len(res.Hits) || res.Stats.Candidates == 0 {
		t.Errorf("Candidates = %d with %d hits", res.Stats.Candidates, len(res.Hits))
	}
	if res.Stats.Elapsed <= 0 {
		t.Errorf("Elapsed = %v", res.Stats.Elapsed)
	}
	if res.Stats.ShardsTouched != 0 || res.Stats.NodesTouched != 0 {
		t.Errorf("local search reports distributed fan-out: %+v", res.Stats)
	}
}

func TestSearchOptionValidation(t *testing.T) {
	idx := builtTestIndex(t)
	cl := stoppedCluster(t)
	_, w := testWorld()
	q := w.Queries[0]
	ctx := context.Background()
	custom := func(a, b []geodabs.Point) float64 { return geodabs.DTW(a, b) }
	for name, opts := range map[string][]geodabs.SearchOption{
		"negative distance":  {geodabs.WithMaxDistance(-0.1)},
		"distance above one": {geodabs.WithMaxDistance(1.5)},
		"zero knn":           {geodabs.WithKNN(0)},
		"negative knn":       {geodabs.WithKNN(-3)},
		"nil rerank":         {geodabs.WithExactRerank(nil)},
		"custom rerank":      {geodabs.WithKNN(3), geodabs.WithExactRerank(custom)},
	} {
		for _, e := range []struct {
			name string
			s    batchSearcher
		}{{"Index", idx}, {"Cluster", cl}} {
			_, err := e.s.Search(ctx, q, opts...)
			_, batchErr := e.s.SearchQueryBatch(ctx, prepareAll(w.Queries), 2, opts...)
			for entry, err := range map[string]error{"Search": err, "SearchQueryBatch": batchErr} {
				switch {
				case err == nil:
					t.Errorf("%s: %s.%s accepted invalid options", name, e.name, entry)
				case strings.HasSuffix(name, "rerank") && err.Error() != rerankRefusal:
					// The stopped cluster's nodes answer nothing, so any
					// other error means the search ran past its options.
					t.Errorf("%s: %s.%s: %v, want the option's refusal %q", name, e.name, entry, err, rerankRefusal)
				}
			}
		}
	}
}

// rerankRefusal is WithExactRerank's error for any metric but DTW and DFD.
const rerankRefusal = "geodabs: WithExactRerank takes geodabs.DTW or geodabs.DFD: the rerank pass prunes with bounds defined for those metrics only"

// batchSearcher is the search surface both engines share, batch included.
type batchSearcher interface {
	geodabs.Searcher
	SearchQueryBatch(ctx context.Context, qs []*geodabs.Query, workers int, opts ...geodabs.SearchOption) ([]*geodabs.SearchResult, error)
}

// stoppedCluster is an empty cluster whose shard nodes have all been
// closed: a search that gets as far as its scatter fails there.
func stoppedCluster(t *testing.T) *geodabs.Cluster {
	t.Helper()
	cfg := geodabs.DefaultConfig()
	n, err := geodabs.StartShardNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := geodabs.NewCluster(cfg, geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: 1000, Nodes: 1}, []string{n.Addr()}, geodabs.WithPointRetention())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	n.Close()
	return cl
}

// TestSearchParityIndexAndCluster pins §IV's one query model: the same
// search returns byte-identical rankings on both Searcher
// implementations.
func TestSearchParityIndexAndCluster(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 2)
	for _, q := range w.Queries {
		local, remote := hits(t, idx, q, 0.99, 5), hits(t, cl, q, 0.99, 5)
		if len(local) == 0 || !reflect.DeepEqual(local, remote) {
			t.Fatalf("query %d: index ranks %+v, cluster %+v", q.ID, local, remote)
		}
	}
}

func TestSearchKNNVersusRange(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	ctx := context.Background()
	q := w.Queries[0]
	full, err := idx.Search(ctx, q) // unbounded ranking
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Hits) < 4 {
		t.Skipf("only %d hits; dataset too sparse for the kNN check", len(full.Hits))
	}
	knn, err := idx.Search(ctx, q, geodabs.WithKNN(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(knn.Hits, full.Hits[:3]) {
		t.Errorf("WithKNN(3) is not the 3-prefix of the full ranking")
	}
	// Ranged kNN: the distance bound applies before the k cut.
	ranged, err := idx.Search(ctx, q, geodabs.WithKNN(len(full.Hits)), geodabs.WithMaxDistance(0.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range ranged.Hits {
		if h.Distance > 0.5 {
			t.Errorf("ranged kNN returned hit at distance %.3f", h.Distance)
		}
	}
}

func TestSearchExactRerank(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	ctx := context.Background()
	q := w.Queries[0]
	res, err := idx.Search(ctx, q,
		geodabs.WithMaxDistance(0.99),
		geodabs.WithKNN(5),
		geodabs.WithExactRerank(geodabs.DTW))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) == 0 {
		t.Fatal("rerank returned nothing")
	}
	for i, h := range res.Hits {
		// DTW distances are meters between city trajectories: well above
		// the Jaccard range unless the hit is a near-duplicate.
		want := geodabs.DTW(q.Points, w.Dataset.ByID(h.ID).Points)
		if h.Distance != want {
			t.Errorf("hit %d: Distance = %v, DTW = %v", i, h.Distance, want)
		}
		if i > 0 && res.Hits[i-1].Distance > h.Distance {
			t.Errorf("rerank order violated at %d", i)
		}
	}
	// The cluster path reranks identically.
	cl := builtTestCluster(t, 2)
	clRes, err := cl.Search(ctx, q,
		geodabs.WithMaxDistance(0.99),
		geodabs.WithKNN(5),
		geodabs.WithExactRerank(geodabs.DTW))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clRes.Hits, res.Hits) {
		t.Errorf("cluster rerank diverges from index rerank")
	}
}

// TestSearchBatchMatchesSequential pins the batch path: SearchQueryBatch
// equals one Search per trajectory, positionally, and the cluster's batch
// equals the index's.
func TestSearchBatchMatchesSequential(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	ctx := context.Background()
	opts := []geodabs.SearchOption{geodabs.WithMaxDistance(0.99), geodabs.WithKNN(5)}
	prepared := prepareAll(w.Queries)
	batch, err := idx.SearchQueryBatch(ctx, prepared, 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(w.Queries) {
		t.Fatalf("batch returned %d results for %d queries", len(batch), len(w.Queries))
	}
	for i, q := range w.Queries {
		single, err := idx.Search(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Hits, single.Hits) {
			t.Errorf("query %d: batch hits diverge from single search", q.ID)
		}
	}
	cl := builtTestCluster(t, 2)
	clBatch, err := cl.SearchQueryBatch(ctx, prepared, 4, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Queries {
		if !reflect.DeepEqual(clBatch[i].Hits, batch[i].Hits) {
			t.Errorf("query %d: cluster batch diverges from index batch", w.Queries[i].ID)
		}
	}
}

func TestSearchCancelledContext(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := idx.Search(ctx, w.Queries[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("index Search on cancelled context: %v", err)
	}
	if _, err := idx.SearchQueryBatch(ctx, prepareAll(w.Queries), 2); !errors.Is(err, context.Canceled) {
		t.Errorf("index SearchQueryBatch on cancelled context: %v", err)
	}
	if err := idx.AddAllContext(ctx, w.Dataset, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("AddAllContext on cancelled context: %v", err)
	}
}

// TestClusterSearchCancelledContext is the acceptance criterion: a
// cluster Search with an already-cancelled context returns promptly with
// context.Canceled instead of completing the scatter-gather.
func TestClusterSearchCancelledContext(t *testing.T) {
	_, w := testWorld()
	cl := builtTestCluster(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := cl.Search(ctx, w.Queries[0])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cluster Search on cancelled context: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancelled Search took %v, want prompt return", elapsed)
	}
}

func TestIndexSnapshotPublicRoundTrip(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	var buf bytes.Buffer
	if n, err := idx.WriteTo(&buf); err != nil || n != int64(buf.Len()) {
		t.Fatalf("WriteTo = (%d, %v), buffer has %d bytes", n, err, buf.Len())
	}
	loaded, err := geodabs.ReadIndex(geodabs.DefaultConfig(), bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() {
		t.Fatalf("loaded %d trajectories, want %d", loaded.Len(), idx.Len())
	}
	ctx := context.Background()
	for _, q := range w.Queries {
		want, err := idx.Search(ctx, q, geodabs.WithMaxDistance(0.99), geodabs.WithKNN(10))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Search(ctx, q, geodabs.WithMaxDistance(0.99), geodabs.WithKNN(10))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Fatalf("query %d: snapshot-loaded ranking diverges", q.ID)
		}
	}
	// Raw points are not part of the snapshot, so exact re-ranking must
	// fail loudly rather than rank on garbage.
	_, err = loaded.Search(ctx, w.Queries[0], geodabs.WithExactRerank(geodabs.DTW))
	if err == nil || !strings.Contains(err.Error(), "rerank") {
		t.Errorf("rerank on snapshot-loaded index: %v, want rerank error", err)
	}
	// A bad snapshot fails cleanly.
	if _, err := geodabs.ReadIndex(geodabs.DefaultConfig(), bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("ReadIndex accepted garbage")
	}
}
