package geodabs_test

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"geodabs"
	"geodabs/internal/index"
)

// TestRerankDifferential pins both rerank paths — the local index over
// its retained points and a 3-node cluster scoring on its shard nodes —
// to a score-everything reference: the metric on every member of the
// fingerprint shortlist, sorted by the ranking contract, truncated. Both
// metrics run gated under a result cap; the hits must still be
// byte-identical — scores, order, ID tiebreaks, Shared counts — on one
// worker and on a pool.
func TestRerankDifferential(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	cl := builtTestCluster(t, 3)
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		metric geodabs.RerankMetric
	}{{"dtw", geodabs.DTW}, {"dfd", geodabs.DFD}} {
		for _, limit := range []int{0, 1, 10} {
			for _, q := range w.Queries[:2] {
				// The shortlist a capped rerank scores is the top limit×8
				// fingerprint hits; an uncapped one scores the whole range.
				want := hits(t, idx, q, 0.99, limit*8)
				for i := range want {
					want[i].Distance = tc.metric(q.Points, w.Dataset.ByID(want[i].ID).Points)
				}
				index.SortResults(want)
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				opts := []geodabs.SearchOption{geodabs.WithMaxDistance(0.99), geodabs.WithExactRerank(tc.metric)}
				if limit > 0 {
					opts = append(opts, geodabs.WithKNN(limit))
				}
				for _, procs := range []int{1, max(4, runtime.GOMAXPROCS(0))} {
					prev := runtime.GOMAXPROCS(procs)
					got, err := idx.Search(ctx, q, opts...)
					var remote *geodabs.SearchResult
					if err == nil {
						remote, err = cl.Search(ctx, q, opts...)
					}
					runtime.GOMAXPROCS(prev)
					if err != nil {
						t.Fatalf("%s limit=%d procs=%d query %d: %v", tc.name, limit, procs, q.ID, err)
					}
					if !reflect.DeepEqual(got.Hits, want) {
						t.Fatalf("%s limit=%d procs=%d query %d: index hits %+v, want %+v", tc.name, limit, procs, q.ID, got.Hits, want)
					}
					if !reflect.DeepEqual(remote.Hits, want) {
						t.Fatalf("%s limit=%d procs=%d query %d: cluster hits %+v, want %+v", tc.name, limit, procs, q.ID, remote.Hits, want)
					}
				}
			}
		}
	}
}

// TestClusterRerankDuringChurn races rerank fan-outs against concurrent
// Upsert/Delete churn. A search may cleanly fail when a shortlist
// member is deleted between the fingerprint ranking and the node-side
// scoring — that error must name the rerank — but it must never panic,
// race, or return a corrupt ranking. Run under -race in CI.
func TestClusterRerankDuringChurn(t *testing.T) {
	_, w := testWorld()
	cl := builtTestCluster(t, 2)
	ctx := context.Background()
	trajs := w.Dataset.Trajectories
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr := trajs[i%len(trajs)]
			if i%3 == 0 {
				cl.Delete(ctx, tr.ID)
				cl.Upsert(ctx, tr)
			} else {
				cl.Upsert(ctx, tr)
			}
		}
	}()
	for i := 0; i < 60; i++ {
		q := w.Queries[i%len(w.Queries)]
		res, err := cl.Search(ctx, q, geodabs.WithKNN(5), geodabs.WithExactRerank(geodabs.DTW))
		if err != nil {
			if !strings.Contains(err.Error(), "rerank") {
				t.Fatalf("search %d: unexpected error: %v", i, err)
			}
			continue
		}
		for j := 1; j < len(res.Hits); j++ {
			prev, cur := res.Hits[j-1], res.Hits[j]
			if prev.Distance > cur.Distance || (prev.Distance == cur.Distance && prev.ID > cur.ID) {
				t.Fatalf("search %d: ranking out of order at %d: %+v", i, j, res.Hits)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestClusterRerankSurvivesNodeRestart is the durability criterion for
// point retention: WAL-backed nodes are hard-killed (no flush — the
// in-process stand-in for SIGKILL) and restarted from their logs, and
// the pushed-down rerank must still return results byte-identical to a
// local index. A second phase restarts the coordinator too, rebuilding
// the point-ownership map through directory recovery.
func TestClusterRerankSurvivesNodeRestart(t *testing.T) {
	_, w := testWorld()
	idx := builtTestIndex(t)
	ctx := context.Background()

	const nodeCount = 2
	nodes := make([]*geodabs.ShardNode, nodeCount)
	addrs := make([]string, nodeCount)
	dirs := make([]string, nodeCount)
	for i := range nodes {
		dirs[i] = t.TempDir()
		n, err := geodabs.StartShardNode("127.0.0.1:0", geodabs.WithWALDir(dirs[i]))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	cfg := geodabs.DefaultConfig()
	strategy := geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: 1000, Nodes: nodeCount}
	cl, err := geodabs.NewCluster(cfg, strategy, addrs, geodabs.WithPointRetention())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	for _, tr := range w.Dataset.Trajectories {
		if err := cl.Add(tr); err != nil {
			t.Fatal(err)
		}
	}

	q := w.Queries[0]
	opts := []geodabs.SearchOption{geodabs.WithKNN(5), geodabs.WithExactRerank(geodabs.DTW)}
	want, err := idx.Search(ctx, q, opts...)
	if err != nil {
		t.Fatal(err)
	}

	for i := range nodes {
		nodes[i].Kill()
	}
	for i := range nodes {
		n, err := geodabs.StartShardNode(addrs[i], geodabs.WithWALDir(dirs[i]))
		if err != nil {
			t.Fatalf("restart node %d: %v", i, err)
		}
		nodes[i] = n
	}
	got := rerankWithRetry(t, cl, q, opts)
	if !reflect.DeepEqual(got.Hits, want.Hits) {
		t.Fatalf("after node restart: cluster hits %+v, index hits %+v", got.Hits, want.Hits)
	}

	// Coordinator restart: a fresh coordinator re-learns who owns which
	// points from the nodes' full-sync records.
	cl2, err := geodabs.NewCluster(cfg, strategy, addrs,
		geodabs.WithPointRetention(), geodabs.WithDirectoryRecovery())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl2.Close() })
	got2 := rerankWithRetry(t, cl2, q, opts)
	if !reflect.DeepEqual(got2.Hits, want.Hits) {
		t.Fatalf("after coordinator recovery: cluster hits %+v, index hits %+v", got2.Hits, want.Hits)
	}
}

// rerankWithRetry searches with retries: a restarted node leaves dead
// pooled connections behind, and the pool redials on the next attempt.
func rerankWithRetry(t *testing.T, cl *geodabs.Cluster, q *geodabs.Trajectory, opts []geodabs.SearchOption) *geodabs.SearchResult {
	t.Helper()
	var res *geodabs.SearchResult
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		res, err = cl.Search(context.Background(), q, opts...)
		if err == nil {
			return res
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("rerank search did not recover: %v", err)
	return nil
}
