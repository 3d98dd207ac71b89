package geodabs_test

import (
	"context"
	"runtime/debug"
	"slices"
	"testing"

	"geodabs"
	"geodabs/client"
	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/index"
	"geodabs/internal/server"
)

// TestSearchCoreZeroAlloc is the runtime half of the noalloc gate: the
// geodabs-vet noalloc analyzer proves the annotated search core has no
// escaping allocation sites at compile time, and this test pins the
// steady-state behavior with testing.AllocsPerRun — a warm scratch pool
// plus a recycled result buffer must search without touching the heap,
// through the engine a geodabs.Index searches with.
// GC is disabled for the measurement so a collection cannot empty the
// scratch pool mid-run and charge the refill to a search.
func TestSearchCoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	ix := index.New(geodabEx(), false)
	if err := ix.AddAll(context.Background(), benchWorkload().Dataset, 8); err != nil {
		t.Fatal(err)
	}
	set := geodabEx().Extract(benchWorkload().Queries[0].Points)
	ctx := context.Background()
	buf := make([]index.Result, 0, 4096)

	cases := []struct {
		name string
		run  func() error
	}{
		{"AppendSearchSet/wide", func() error {
			results, _, err := ix.AppendSearchSet(ctx, buf[:0], set, 1, 10)
			buf = results[:0]
			return err
		}},
		{"AppendSearchSet/knn", func() error {
			results, _, err := ix.AppendSearchSet(ctx, buf[:0], set, 0.5, 5)
			buf = results[:0]
			return err
		}},
		{"AppendSearchSet/uncapped", func() error {
			results, _, err := ix.AppendSearchSet(ctx, buf[:0], set, 0.9, 0)
			buf = results[:0]
			return err
		}},
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range cases {
		// Warm the scratch pool and size the counter chunks before
		// measuring; the first search pays one-time growth by design.
		for i := 0; i < 3; i++ {
			if err := tc.run(); err != nil {
				t.Fatalf("%s: warmup: %v", tc.name, err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.run(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.2f allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}

// TestFingerprintSetAllocs pins query extraction to its documented cost:
// smoothing, normalization, geodabs, winnowing, sorting and compacting
// the values run in pooled scratch, so once the pool is warm
// FingerprintSet allocates exactly one slice, the set it returns, at the
// size of the set. GC is off so a collection cannot empty the pool
// mid-run.
func TestFingerprintSetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	centroid := core.DefaultConfig()
	centroid.Strategy = core.PrefixCentroid
	pts := benchWorkload().Queries[0].Points
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for name, cfg := range map[string]core.Config{"cover": core.DefaultConfig(), "centroid": centroid} {
		f := core.MustFingerprinter(cfg)
		want := f.Fingerprint(pts).Set
		if want.Cardinality() == 0 {
			t.Fatalf("%s: query has no fingerprint", name)
		}
		var set []uint32 // escapes, as a returned set does
		if got := testing.AllocsPerRun(100, func() { set = f.FingerprintSet(pts) }); got != 1 {
			t.Errorf("%s: FingerprintSet %.2f allocs/op, want 1", name, got)
		}
		if !slices.Equal(set, core.TermsOf(want)) || cap(set) != len(set) {
			t.Errorf("%s: FingerprintSet returned %d terms in room for %d, want Fingerprint's %d at exact size", name, len(set), cap(set), want.Cardinality())
		}
	}
}

// TestExactDistanceZeroAlloc pins the exact-distance kernel the same way:
// prepared points, both rows of the dynamic program and a guided call's
// completion table come from a pooled scratch, so once it is warm neither
// the unbounded metrics nor a call under a bar — kept or abandoned —
// touch the heap.
func TestExactDistanceZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	qs := benchWorkload().Queries
	p, q := clip(qs[0].Points, 200), clip(qs[1].Points, 150)
	exact, leash := geodabs.DTW(p, q), geodabs.DFD(p, q)
	cases := []struct {
		name string
		run  func()
	}{
		{"DTW", func() { geodabs.DTW(p, q) }},
		{"DFD", func() { geodabs.DFD(p, q) }},
		{"DTWWithin/kept", func() { distance.DTWWithin(p, q, exact) }},
		{"DTWWithin/abandoned", func() { distance.DTWWithin(p, q, exact/2) }},
		{"DFDWithin/kept", func() { distance.DFDWithin(p, q, leash) }},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range cases {
		tc.run() // the first call sizes the scratch
		if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
			t.Errorf("%s: %.2f allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}

// TestSearchAllocBudget pins what a served fingerprint search allocates,
// across every process-local layer it crosses: the client, geodabsd's
// server, the coordinator and a shard node, all in this process over
// loopback TCP. A second case pins a direct Cluster.SearchQuery on a
// prepared query, the coordinator's share alone, and a third a
// Cluster.Search reranked by exact DTW on the owner node, whose points
// the cluster retains. docs/invariants.md ("Allocation budget of a
// served search") lists every allocation the budgets hold and why it
// stays; a count above its budget is a new allocation on the path, and a
// count below it should lower the budget. GC is off so a collection
// cannot empty a pool mid-run.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	const nodes = 3
	cfg := geodabs.DefaultConfig()
	var addrs []string
	for range nodes {
		n, err := geodabs.StartShardNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs = append(addrs, n.Addr())
	}
	cl, err := geodabs.NewCluster(cfg, geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: 10000, Nodes: nodes}, addrs, geodabs.WithPointRetention())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ctx := context.Background()
	w := benchWorkload()
	for _, tr := range w.Dataset.Trajectories {
		if err := cl.AddContext(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := server.Listen("127.0.0.1:0", cl, server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := client.Dial(srv.Addr(), client.WithPoolSize(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	f, err := geodabs.NewFingerprinter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := w.Queries[0].Points
	fp, q := f.Fingerprint(pts), f.Prepare(pts)
	if st := cl.AnalyzeQuery(q); st.Nodes != 1 {
		t.Fatalf("the query's terms span %d nodes; the budgets are a one-node plan's", st.Nodes)
	}
	served := []client.SearchOption{client.WithKNN(10)}
	direct := []geodabs.SearchOption{geodabs.WithKNN(10)}
	reranked := []geodabs.SearchOption{geodabs.WithKNN(10), geodabs.WithExactRerank(geodabs.DTW)}
	cases := []struct {
		name   string
		budget float64
		run    func() (int, error)
	}{
		{"served SearchFingerprint", 14, func() (int, error) {
			res, err := c.SearchFingerprint(ctx, fp, served...)
			if err != nil {
				return 0, err
			}
			return len(res.Hits), nil
		}},
		{"Cluster.SearchQuery", 3, func() (int, error) {
			res, err := cl.SearchQuery(ctx, q, direct...)
			if err != nil {
				return 0, err
			}
			return len(res.Hits), nil
		}},
		{"reranked Cluster.Search", 9, func() (int, error) {
			res, err := cl.Search(ctx, w.Queries[0], reranked...)
			if err != nil {
				return 0, err
			}
			return len(res.Hits), nil
		}},
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range cases {
		// Warm every pool, connection buffer and scratch first.
		for range 5 {
			if hits, err := tc.run(); err != nil || hits != 10 {
				t.Fatalf("%s: %d hits, %v; want 10 hits", tc.name, hits, err)
			}
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := tc.run(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		switch {
		case got > tc.budget:
			t.Errorf("%s: %.0f allocs/op, over its budget of %.0f", tc.name, got, tc.budget)
		case got < tc.budget:
			t.Logf("%s: %.0f allocs/op, under its budget of %.0f: lower the budget", tc.name, got, tc.budget)
		}
	}
}
