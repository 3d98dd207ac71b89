package geodabs_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"geodabs"
)

// TestMutatorParity drives the same mutation script through both engines
// and checks the rankings stay identical — the mutation-side mirror of
// the Searcher parity gate.
func TestMutatorParity(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 2)
	ctx := context.Background()

	victims := []geodabs.ID{
		w.Dataset.Trajectories[0].ID,
		w.Dataset.Trajectories[3].ID,
	}
	for _, m := range []geodabs.Mutator{idx, cl} {
		// Replace one trajectory's geometry in place, delete two others.
		replacement := &geodabs.Trajectory{
			ID:     w.Dataset.Trajectories[1].ID,
			Points: w.Dataset.Trajectories[6].Points,
		}
		if err := m.Upsert(ctx, replacement); err != nil {
			t.Fatalf("%T.Upsert: %v", m, err)
		}
		deleted, err := m.DeleteAll(ctx, append(victims, 424242), 2)
		if err != nil {
			t.Fatalf("%T.DeleteAll: %v", m, err)
		}
		if deleted != len(victims) {
			t.Fatalf("%T.DeleteAll deleted %d, want %d", m, deleted, len(victims))
		}
	}
	for _, q := range w.Queries {
		want, err := idx.Search(ctx, q, geodabs.WithMaxDistance(0.99))
		if err != nil {
			t.Fatal(err)
		}
		got, err := cl.Search(ctx, q, geodabs.WithMaxDistance(0.99))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Hits, want.Hits) {
			t.Fatalf("query %d: mutated cluster ranking diverges from mutated index", q.ID)
		}
		for _, h := range want.Hits {
			for _, v := range victims {
				if h.ID == v {
					t.Fatalf("query %d still ranks deleted trajectory %d", q.ID, v)
				}
			}
		}
	}
}

func TestDeleteNotFound(t *testing.T) {
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 2)
	ctx := context.Background()
	for _, m := range []geodabs.Mutator{idx, cl} {
		if err := m.Delete(ctx, 424242); !errors.Is(err, geodabs.ErrNotFound) {
			t.Errorf("%T.Delete(unknown) = %v, want ErrNotFound", m, err)
		}
	}
}

// TestDeleteSnapshotRoundTrip is the public delete → WriteTo → ReadFrom
// acceptance path, including the persisted mutation epoch.
func TestDeleteSnapshotRoundTrip(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	ctx := context.Background()
	victim := w.Dataset.Trajectories[0]
	if err := idx.Delete(ctx, victim.ID); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := geodabs.ReadIndex(geodabs.DefaultConfig(), strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != idx.Len() {
		t.Fatalf("loaded %d trajectories, want %d", loaded.Len(), idx.Len())
	}
	if loaded.Epoch() != idx.Epoch() {
		t.Errorf("loaded epoch %d, want %d", loaded.Epoch(), idx.Epoch())
	}
	res, err := loaded.Search(ctx, victim, geodabs.WithMaxDistance(0.01))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hits {
		if h.ID == victim.ID {
			t.Error("deleted trajectory resurrected by the snapshot round-trip")
		}
	}
}

// TestIndexMutations drives the Mutator surface through a built index:
// upsert replaces in place, delete reclaims, epochs advance.
func TestIndexMutations(t *testing.T) {
	_, w := testWorld()
	ix, err := geodabs.NewIndex(geodabs.DefaultConfig())
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

// TestIndexSnapshotInterop loads a snapshot of four sections, as indexes
// split into four shards wrote them, through both public loaders (ReadIndex
// is the geodabsd -snapshot path), and writes it back as one section that
// loads to the same documents, epoch and rankings.
func TestIndexSnapshotInterop(t *testing.T) {
	_, w := testWorld()
	data, err := os.ReadFile(filepath.Join("internal", "index", "testdata", "v3.snap"))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := geodabs.ReadIndex(geodabs.DefaultConfig(), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 22 || loaded.Epoch() != 28 {
		t.Fatalf("ReadIndex: %d docs at epoch %d, want 22 at 28", loaded.Len(), loaded.Epoch())
	}
	var rewritten bytes.Buffer
	if _, err := loaded.WriteTo(&rewritten); err != nil {
		t.Fatal(err)
	}
	dst, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ReadFrom(&rewritten); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != loaded.Len() || dst.Epoch() != loaded.Epoch() {
		t.Fatalf("rewritten: %d docs at epoch %d, want %d at %d", dst.Len(), dst.Epoch(), loaded.Len(), loaded.Epoch())
	}
	ranked := 0
	for _, q := range w.Queries {
		got, want := hits(t, dst, q, 1, 10), hits(t, loaded, q, 1, 10)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: rewritten snapshot ranks %+v, loaded %+v", q.ID, got, want)
		}
		ranked += len(got)
	}
	if ranked == 0 {
		t.Fatal("no query ranked a hit; the comparison is vacuous")
	}
}

// TestRetentionOptIn pins the flipped default: without WithPointRetention
// the rerank path fails with a pointed error, with it the paper's §VI-C
// refinement works.
func TestRetentionOptIn(t *testing.T) {
	_, w := testWorld()
	ctx := context.Background()
	bare, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.AddAll(w.Dataset, 4); err != nil {
		t.Fatal(err)
	}
	_, err = bare.Search(ctx, w.Queries[0], geodabs.WithKNN(3), geodabs.WithExactRerank(geodabs.DTW))
	if err == nil || !strings.Contains(err.Error(), "WithPointRetention") {
		t.Errorf("rerank without retention: %v, want a WithPointRetention hint", err)
	}
	// builtTestIndex constructs with WithPointRetention; rerank works there.
	retaining := builtTestIndex(t)
	if _, err := retaining.Search(ctx, w.Queries[0], geodabs.WithKNN(3), geodabs.WithExactRerank(geodabs.DTW)); err != nil {
		t.Errorf("rerank with retention: %v", err)
	}
}

func TestConnsPerNodeValidation(t *testing.T) {
	if _, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithConnsPerNode(4)); err == nil {
		t.Error("WithConnsPerNode on a local index should be rejected")
	}
	if _, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithConnsPerNode(0)); err == nil {
		t.Error("WithConnsPerNode(0) should be rejected")
	}
}

// TestClusterPooledBatch runs the cluster batch path with a sized
// connection pool: results must match the single-connection ranking.
func TestClusterPooledBatch(t *testing.T) {
	_, w := testWorld()
	var addrs []string
	for i := 0; i < 2; i++ {
		n, err := geodabs.StartShardNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs = append(addrs, n.Addr())
	}
	cfg := geodabs.DefaultConfig()
	pooled, err := geodabs.NewCluster(cfg,
		geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: 1000, Nodes: 2}, addrs,
		geodabs.WithConnsPerNode(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pooled.Close() })
	for _, tr := range w.Dataset.Trajectories {
		if err := pooled.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	opts := []geodabs.SearchOption{geodabs.WithMaxDistance(0.99), geodabs.WithLimit(5)}
	batch, err := pooled.SearchBatch(ctx, w.Queries, 8, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range w.Queries {
		single, err := pooled.Search(ctx, q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch[i].Hits, single.Hits) {
			t.Errorf("query %d: pooled batch diverges from single search", q.ID)
		}
	}
}
