package geodabs_test

import (
	"context"
	"runtime/debug"
	"slices"
	"testing"

	"geodabs"
	"geodabs/internal/bitmap"
	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/index"
)

// TestSearchCoreZeroAlloc is the runtime half of the noalloc gate: the
// geodabs-vet noalloc analyzer proves the annotated search core has no
// escaping allocation sites at compile time, and this test pins the
// steady-state behavior with testing.AllocsPerRun — a warm scratch pool
// plus a recycled result buffer must search without touching the heap,
// through the one-shard engine — the path a one-shard geodabs.Index takes.
// GC is disabled for the measurement so a collection cannot empty the
// scratch pool mid-run and charge the refill to a search.
func TestSearchCoreZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	ix := index.NewSharded(geodabEx(), 1)
	if err := ix.AddAll(context.Background(), benchWorkload().Dataset, 8); err != nil {
		t.Fatal(err)
	}
	set := geodabEx().Extract(benchWorkload().Queries[0].Points)
	qc := set.Cardinality()
	ctx := context.Background()
	buf := make([]index.Result, 0, 4096)

	cases := []struct {
		name string
		run  func() error
	}{
		{"AppendSearchSet/wide", func() error {
			results, _, err := ix.AppendSearchSet(ctx, buf[:0], set, qc, 1, 10)
			buf = results[:0]
			return err
		}},
		{"AppendSearchSet/knn", func() error {
			results, _, err := ix.AppendSearchSet(ctx, buf[:0], set, qc, 0.5, 5)
			buf = results[:0]
			return err
		}},
		{"AppendSearchSet/uncapped", func() error {
			results, _, err := ix.AppendSearchSet(ctx, buf[:0], set, qc, 0.9, 0)
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
// smoothing, normalization, geodabs, winnowing and sorting the values run
// in pooled scratch, so once the pool is warm FingerprintSet allocates
// exactly what building its result bitmap from the same sorted values
// does. GC is off so a collection cannot empty the pool mid-run.
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
		values := f.Fingerprint(pts).Geodabs
		if len(values) == 0 {
			t.Fatalf("%s: query has no fingerprint", name)
		}
		var set *bitmap.Bitmap // both results escape, as a returned set does
		got := testing.AllocsPerRun(100, func() { set = f.FingerprintSet(pts) })
		sorted := make([]uint32, 0, len(values))
		want := testing.AllocsPerRun(100, func() {
			sorted = append(sorted[:0], values...)
			slices.Sort(sorted)
			set = bitmap.FromSorted(slices.Compact(sorted))
		})
		if got != want {
			t.Errorf("%s: FingerprintSet %.2f allocs/op, building its bitmap alone %.2f", name, got, want)
		}
		if !slices.Equal(set.ToSlice(), f.FingerprintSet(pts).ToSlice()) {
			t.Errorf("%s: the reference bitmap differs from FingerprintSet's", name)
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
