package geodabs_test

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"geodabs"
)

// TestWithShardsMatchesUnsharded pins the public contract: the same
// corpus behind WithShards(1) and WithShards(4) returns byte-identical
// rankings through Search and SearchQuery.
func TestWithShardsMatchesUnsharded(t *testing.T) {
	_, w := testWorld()
	flat, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range []*geodabs.Index{flat, sharded} {
		if err := ix.AddAll(w.Dataset, 4); err != nil {
			t.Fatal(err)
		}
	}
	if got := sharded.Stats().Shards; got != 4 {
		t.Fatalf("sharded Stats.Shards = %d, want 4", got)
	}
	if got := flat.Stats().Shards; got != 1 {
		t.Fatalf("flat Stats.Shards = %d, want 1", got)
	}
	ctx := context.Background()
	for _, q := range w.Queries {
		want, err := flat.Search(ctx, q, geodabs.WithMaxDistance(0.99), geodabs.WithLimit(10))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sharded.Search(ctx, q, geodabs.WithMaxDistance(0.99), geodabs.WithLimit(10))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) != len(want.Hits) {
			t.Fatalf("sharded %d hits, flat %d", len(got.Hits), len(want.Hits))
		}
		for i := range got.Hits {
			g, f := got.Hits[i], want.Hits[i]
			if g.ID != f.ID || g.Shared != f.Shared ||
				math.Float64bits(g.Distance) != math.Float64bits(f.Distance) {
				t.Fatalf("hit %d: sharded %+v, flat %+v", i, g, f)
			}
		}
		// Prepared queries run the same engine path.
		pq := geodabs.NewQuery(q.Points)
		got2, err := sharded.SearchQuery(ctx, pq, geodabs.WithMaxDistance(0.99), geodabs.WithLimit(10))
		if err != nil {
			t.Fatal(err)
		}
		if len(got2.Hits) != len(got.Hits) {
			t.Fatalf("prepared sharded %d hits, direct %d", len(got2.Hits), len(got.Hits))
		}
	}
}

// TestWithShardsMutations drives the Mutator surface through the sharded
// engine: upsert replaces in place, delete reclaims, epochs advance.
func TestWithShardsMutations(t *testing.T) {
	_, w := testWorld()
	ix, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := ix.Epoch()
	victim := w.Dataset.Trajectories[0]
	if err := ix.Delete(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != w.Dataset.Len()-1 {
		t.Fatalf("Len after delete = %d", ix.Len())
	}
	if err := ix.Upsert(ctx, victim); err != nil {
		t.Fatal(err)
	}
	if ix.Len() != w.Dataset.Len() {
		t.Fatalf("Len after upsert = %d", ix.Len())
	}
	if ix.Epoch() <= before {
		t.Fatalf("epoch did not advance: %d -> %d", before, ix.Epoch())
	}
}

// TestWithShardsSnapshotInterop round-trips a sharded index through its
// v3 snapshot into receivers of one and of several shards, at the
// public API level (the geodabsd -snapshot path).
func TestWithShardsSnapshotInterop(t *testing.T) {
	_, w := testWorld()
	src, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := src.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		dst, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dst.ReadFrom(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		if dst.Len() != src.Len() {
			t.Fatalf("shards=%d: loaded Len = %d, want %d", shards, dst.Len(), src.Len())
		}
		if dst.Epoch() != src.Epoch() {
			t.Fatalf("shards=%d: loaded Epoch = %d, want %d", shards, dst.Epoch(), src.Epoch())
		}
		q := w.Queries[0]
		want := hits(t, src, q, 0.99, 10)
		got := hits(t, dst, q, 0.99, 10)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: loaded %d hits, want %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shards=%d: hit %d = %+v, want %+v", shards, i, got[i], want[i])
			}
		}
	}
	// ReadIndex (the geodabsd -snapshot loader) accepts v3 too.
	loaded, err := geodabs.ReadIndex(geodabs.DefaultConfig(), bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != src.Len() {
		t.Fatalf("ReadIndex Len = %d, want %d", loaded.Len(), src.Len())
	}
}

// TestDefaultIsOneShard pins the default: an index is one shard unless
// the caller asks for more, at any GOMAXPROCS — NewIndex without the
// option, WithShards(0), and ReadIndex (the geodabsd -snapshot loader)
// even of a snapshot written by four shards.
func TestDefaultIsOneShard(t *testing.T) {
	_, w := testWorld()
	src, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := src.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		plain, err := geodabs.NewIndex(geodabs.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		zero, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(0))
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := geodabs.ReadIndex(geodabs.DefaultConfig(), bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for name, ix := range map[string]*geodabs.Index{"NewIndex": plain, "WithShards(0)": zero, "ReadIndex": loaded} {
			if got := ix.Stats().Shards; got != 1 {
				t.Errorf("GOMAXPROCS=%d: %s Stats.Shards = %d, want 1", procs, name, got)
			}
		}
	}
}

func TestWithShardsValidation(t *testing.T) {
	if _, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(-1)); err == nil {
		t.Fatal("WithShards(-1) accepted")
	}
	// Non-power-of-two counts round up.
	ix, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().Shards; got != 4 {
		t.Fatalf("WithShards(3) Stats.Shards = %d, want 4", got)
	}
	strategy := geodabs.ShardStrategy{PrefixBits: 16, Shards: 100, Nodes: 1}
	if _, err := geodabs.NewCluster(geodabs.DefaultConfig(), strategy,
		[]string{"127.0.0.1:0"},
		geodabs.WithShards(2)); err == nil || !strings.Contains(err.Error(), "WithShards") {
		t.Fatalf("NewCluster with WithShards: err = %v, want rejection", err)
	}
}
