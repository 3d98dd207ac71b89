package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/gen"
	"geodabs/internal/geo"
	"geodabs/internal/index"
	"geodabs/internal/rerank"
	"geodabs/internal/roadnet"
	"geodabs/internal/shard"
	"geodabs/internal/trajectory"
	"geodabs/internal/wal"
	"geodabs/internal/wire"
)

var testWorkload = func() *gen.Output {
	g, err := roadnet.GenerateCity(roadnet.CityConfig{RadiusMeters: 3000, Seed: 21})
	if err != nil {
		panic(err)
	}
	cfg := gen.DefaultConfig()
	cfg.Routes = 8
	cfg.TrajectoriesPerDirection = 4
	cfg.MinRouteMeters = 2000
	out, err := gen.Generate(g, cfg)
	if err != nil {
		panic(err)
	}
	return out
}()

// startNodes spins up n memory-only nodes on the loopback interface,
// closing them with the test.
func startNodes(t *testing.T, n int) ([]*Node, []string) {
	t.Helper()
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	for i := range nodes {
		node, err := StartNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
		t.Cleanup(func() { node.Close() })
	}
	return nodes, addrs
}

// startCluster spins up n nodes and a coordinator on the loopback
// interface, tearing everything down with the test.
func startCluster(t *testing.T, n int) (*Coordinator, []*Node) {
	t.Helper()
	nodes, addrs := startNodes(t, n)
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	strategy := shard.Strategy{PrefixBits: 16, Shards: 10000, Nodes: n}
	coord, err := NewCoordinator(ex, strategy, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, nodes
}

// analyze is the fan-out a trajectory's query would incur on coord,
// without executing it.
func analyze(coord *Coordinator, q *trajectory.Trajectory) QueryStats {
	return coord.Plan(coord.Extractor().Extract(q.Points)).Stats()
}

func TestClusterMatchesLocalIndex(t *testing.T) {
	coord, _ := startCluster(t, 3)
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	local := index.New(ex, false)
	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := coord.Add(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		if err := local.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range testWorkload.Queries {
		want, _, err := local.Search(context.Background(), q, 0.99, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := coord.Search(context.Background(), q, 0.99, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: cluster returned %d results, local %d", q.ID, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", q.ID, i, got[i], want[i])
			}
		}
	}
}

func TestClusterQueryLimit(t *testing.T) {
	coord, _ := startCluster(t, 2)
	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := coord.Add(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := coord.Search(context.Background(), testWorkload.Queries[0], 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("limit 3 returned %d", len(got))
	}
}

func TestClusterDuplicateAdd(t *testing.T) {
	coord, _ := startCluster(t, 2)
	tr := testWorkload.Dataset.Trajectories[0]
	if err := coord.Add(context.Background(), tr); err != nil {
		t.Fatal(err)
	}
	if err := coord.Add(context.Background(), tr); err == nil {
		t.Error("duplicate add should fail")
	}
}

func TestClusterAnalyzeLocality(t *testing.T) {
	coord, _ := startCluster(t, 3)
	stats := analyze(coord, testWorkload.Queries[0])
	if stats.Shards == 0 {
		t.Fatal("query touches no shards")
	}
	// A city-scale trajectory touches a handful of the 10'000 shards.
	if stats.Shards > 5 {
		t.Errorf("query touches %d shards, want few (locality)", stats.Shards)
	}
	if stats.Nodes > stats.Shards {
		t.Errorf("nodes %d > shards %d", stats.Nodes, stats.Shards)
	}
}

func TestClusterStats(t *testing.T) {
	coord, _ := startCluster(t, 3)
	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := coord.Add(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := coord.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats for %d nodes", len(stats))
	}
	total := 0
	for _, s := range stats {
		total += s.Postings
	}
	if total == 0 {
		t.Error("no postings across the cluster")
	}
}

func TestClusterConcurrentAddsAndQueries(t *testing.T) {
	coord, _ := startCluster(t, 3)
	var wg sync.WaitGroup
	errs := make(chan error, testWorkload.Dataset.Len())
	for _, tr := range testWorkload.Dataset.Trajectories {
		wg.Add(1)
		go func(tr *trajectory.Trajectory) {
			defer wg.Done()
			errs <- coord.Add(context.Background(), tr)
		}(tr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var qg sync.WaitGroup
	for i := 0; i < 4; i++ {
		qg.Add(1)
		go func(i int) {
			defer qg.Done()
			q := testWorkload.Queries[i%len(testWorkload.Queries)]
			if _, _, err := coord.Search(context.Background(), q, 1, 5); err != nil {
				t.Errorf("concurrent query: %v", err)
			}
		}(i)
	}
	qg.Wait()
}

func TestCoordinatorValidation(t *testing.T) {
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	bad := shard.Strategy{PrefixBits: 16, Shards: 100, Nodes: 2}
	if _, err := NewCoordinator(ex, bad, []string{"127.0.0.1:1"}, Options{}); err == nil {
		t.Error("node count mismatch should fail")
	}
	if _, err := NewCoordinator(ex, shard.Strategy{}, nil, Options{}); err == nil {
		t.Error("invalid strategy should fail")
	}
	// Dialing a dead address fails cleanly.
	dead := shard.Strategy{PrefixBits: 16, Shards: 100, Nodes: 1}
	if _, err := NewCoordinator(ex, dead, []string{"127.0.0.1:1"}, Options{}); err == nil {
		t.Error("dead node should fail to dial")
	}
	// A directory entry records its trajectory's nodes in a 64-bit mask.
	addrs := make([]string, 65)
	for i := range addrs {
		addrs[i] = "127.0.0.1:1"
	}
	wide := shard.Strategy{PrefixBits: 16, Shards: 100, Nodes: len(addrs)}
	if _, err := NewCoordinator(ex, wide, addrs, Options{}); err == nil || !strings.Contains(err.Error(), "at most 64") {
		t.Errorf("65 nodes: %v, want the 64-node bound", err)
	}
	if size := unsafe.Sizeof(docEntry{}); size != 32 {
		t.Errorf("a directory entry takes %d bytes, want 32", size)
	}
}

func TestQueryAfterNodeShutdown(t *testing.T) {
	coord, nodes := startCluster(t, 2)
	for _, tr := range testWorkload.Dataset.Trajectories[:8] {
		if err := coord.Add(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	nodes[0].Close()
	nodes[1].Close()
	if _, _, err := coord.Search(context.Background(), testWorkload.Queries[0], 1, 0); err == nil {
		t.Error("query against a dead cluster should fail")
	}
}

func TestNodeRejectsMalformedRequests(t *testing.T) {
	node, err := StartNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cl, err := dial(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	if _, err := roundTrip(context.Background(), cl, &request{Op: opMutate}); err == nil {
		t.Error("mutation without payload should error")
	}
	if _, err := roundTrip(context.Background(), cl, &request{Op: opMutate, Mutate: &wal.Record{Op: 9, ID: 1, Epoch: 1}}); err == nil {
		t.Error("unknown mutation op should error")
	}
	if _, err := roundTrip(context.Background(), cl, &request{Op: opMutate, Mutate: &wal.Record{
		Op: wal.OpAddPoints, ID: 1, Epoch: 1, Card: 1, Terms: []uint32{1},
	}}); err == nil {
		t.Error("point-owner add without points should error")
	}
	if _, err := roundTrip(context.Background(), cl, &request{Op: opMutate, Mutate: &wal.Record{
		Op: wal.OpAdd, ID: 1, Epoch: 1, Card: math.MaxUint32, Terms: []uint32{1},
	}}); err == nil {
		t.Error("add whose card the card table cannot hold should error")
	}
	// A ranked query whose card is not its term count: no coordinator
	// sends one, and the node refuses it rather than rank on it — a card
	// below a count it meets, or one that would size the ranking's
	// buckets past the frame (or overflow them).
	if _, err := roundTrip(context.Background(), cl, &request{Op: opMutate, Mutate: &wal.Record{
		Op: wal.OpAdd, ID: 2, Epoch: 2, Card: 2, Terms: []uint32{1, 2},
	}}); err != nil {
		t.Fatal(err)
	}
	for _, card := range []int{0, 1, 3, 1e9, math.MaxInt} {
		if _, err := roundTrip(context.Background(), cl, &request{Op: opQuery, Query: &queryRequest{
			Terms: []uint32{1, 2}, QueryCard: card, MaxDistance: 1, Limit: 1,
		}}); err == nil {
			t.Errorf("ranked query of 2 terms with card %d should error", card)
		}
	}
	if resp, err := roundTrip(context.Background(), cl, &request{Op: opQuery, Query: &queryRequest{
		Terms: []uint32{1, 2}, QueryCard: 2, MaxDistance: 1, Limit: 1,
	}}); err != nil || resp.Query.len() != 1 {
		t.Errorf("ranked query of 2 terms with card 2: %v, want one hit", err)
	}
	// A plain add cannot carry points: its record ends at the terms, so
	// points after them are trailing bytes the node refuses.
	f := dialFrames(t, node.Addr())
	add := wal.AppendRecord([]byte{byte(opMutate), 0}, &wal.Record{Op: wal.OpAdd, ID: 1, Epoch: 1, Card: 1, Terms: []uint32{1}})
	if resp := exchange(t, f, wire.AppendPoints(add, []geo.Point{{Lat: 1, Lon: 1}})); resp.Kind != opError {
		t.Errorf("plain add carrying points answered with a %s frame, want an error", resp.Kind)
	}
	if resp := exchange(t, f, appendRequest(nil, &request{Op: opStats})); resp.Kind != opStats {
		t.Errorf("stats after a malformed frame answered with a %s frame", resp.Kind)
	}
	if _, err := roundTrip(context.Background(), cl, &request{Op: opQuery}); err == nil {
		t.Error("query without payload should error")
	}
	if _, err := roundTrip(context.Background(), cl, &request{Op: 99}); err == nil {
		t.Error("unknown op should error")
	}
	// The connection survives protocol errors.
	if _, err := roundTrip(context.Background(), cl, &request{Op: opStats}); err != nil {
		t.Errorf("stats after errors: %v", err)
	}
}

// startStalledCoordinator fronts two stalling nodes, so every
// scatter-gather hangs until its context is cancelled.
func startStalledCoordinator(t *testing.T) *Coordinator {
	t.Helper()
	addrs := []string{startFakeNode(t, swallow).Addr().String(), startFakeNode(t, swallow).Addr().String()}
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	coord, err := NewCoordinator(ex, shard.Strategy{PrefixBits: 16, Shards: 10000, Nodes: 2}, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

// TestSearchCancelledMidScatterGather cancels a query while its fan-out
// is blocked on wedged nodes: the scatter-gather must unwind promptly
// with the context's error instead of hanging.
func TestSearchCancelledMidScatterGather(t *testing.T) {
	coord := startStalledCoordinator(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := coord.Search(ctx, testWorkload.Queries[0], 1, 0)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Search = %v, want context.Canceled", err)
	}
	if elapsed < 50*time.Millisecond {
		t.Errorf("Search returned in %v, before the cancellation fired", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Errorf("Search took %v after cancellation, want prompt unwind", elapsed)
	}
}

// TestSearchDeadlineMidScatterGather is the deadline flavor: a timeout
// budget bounds a query against wedged nodes.
func TestSearchDeadlineMidScatterGather(t *testing.T) {
	coord := startStalledCoordinator(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, _, err := coord.Search(ctx, testWorkload.Queries[0], 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Search = %v, want context.DeadlineExceeded", err)
	}
}

// TestSearchAlreadyCancelled verifies the fast path: no node I/O at all
// on a context that is dead on arrival.
func TestSearchAlreadyCancelled(t *testing.T) {
	coord, _ := startCluster(t, 2)
	for _, tr := range testWorkload.Dataset.Trajectories[:4] {
		if err := coord.Add(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := coord.Search(ctx, testWorkload.Queries[0], 1, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("Search = %v, want context.Canceled", err)
	}
	if err := coord.Add(ctx, testWorkload.Dataset.Trajectories[10]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Add = %v, want context.Canceled", err)
	}
}

// TestClientRecoversAfterCancelledCall exercises the redial path: a call
// abandoned mid-flight leaves its stream out of step, and the next call on the
// same client must transparently reconnect.
func TestClientRecoversAfterCancelledCall(t *testing.T) {
	coord, _ := startCluster(t, 1)
	for _, tr := range testWorkload.Dataset.Trajectories[:4] {
		if err := coord.Add(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := coord.Search(ctx, testWorkload.Queries[0], 1, 0); err == nil {
		t.Fatal("cancelled search should fail")
	}
	// A short stall that actually reaches the node, then gets abandoned.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	_, _, _ = coord.Search(ctx2, testWorkload.Queries[0], 1, 0)
	cancel2()
	got, _, err := coord.Search(context.Background(), testWorkload.Queries[0], 1, 0)
	if err != nil {
		t.Fatalf("search after abandoned call: %v", err)
	}
	if len(got) == 0 {
		t.Error("recovered search returned nothing")
	}
}

// TestAddRetryAfterFailure verifies that a failed (here: cancelled) Add
// withdraws its directory entry, so the caller can retry the same
// trajectory instead of being stuck on "already indexed".
func TestAddRetryAfterFailure(t *testing.T) {
	coord, _ := startCluster(t, 2)
	tr := testWorkload.Dataset.Trajectories[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := coord.Add(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Add = %v, want context.Canceled", err)
	}
	if err := coord.Add(context.Background(), tr); err != nil {
		t.Fatalf("retry after failed Add: %v", err)
	}
	got, _, err := coord.Search(context.Background(), tr, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].ID != tr.ID {
		t.Errorf("retried trajectory not retrievable: %+v", got)
	}
}

// TestQueuedCallHonorsOwnDeadline pins the call-slot semantics: a call
// with a deadline queued behind a stalled call (no deadline) must give up
// when its own budget expires instead of blocking on the stalled call's
// lock.
func TestQueuedCallHonorsOwnDeadline(t *testing.T) {
	coord := startStalledCoordinator(t)
	background := make(chan struct{})
	go func() {
		defer close(background)
		// Wedges until the coordinator is closed by test cleanup.
		coord.Search(context.Background(), testWorkload.Queries[0], 1, 0)
	}()
	time.Sleep(50 * time.Millisecond) // let the background search occupy the call slots
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := coord.Search(ctx, testWorkload.Queries[0], 1, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Search = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("queued Search took %v past its 100ms budget", elapsed)
	}
	coord.Close() // unblock the background search before the test ends
	<-background
}

// totalPostings sums Stats.Postings across nodes — per-node term spaces
// are disjoint, so the sum equals the indexed fingerprint cardinality.
func totalPostings(t *testing.T, coord *Coordinator) int {
	t.Helper()
	stats, err := coord.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range stats {
		total += s.Postings
	}
	return total
}

// TestClusterDeleteReclaimsPostings is the acceptance criterion for the
// distributed delete: node postings shrink by exactly the deleted
// trajectory's fingerprint cardinality, the trajectory vanishes from
// rankings, and a re-delete reports ErrNotFound.
func TestClusterDeleteReclaimsPostings(t *testing.T) {
	coord, _ := startCluster(t, 3)
	ctx := context.Background()
	for _, tr := range testWorkload.Dataset.Trajectories[:10] {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	victim := testWorkload.Dataset.Trajectories[0]
	before := totalPostings(t, coord)
	card := len(coord.ex.Extract(victim.Points))
	if err := coord.Delete(ctx, victim.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	after := totalPostings(t, coord)
	if after != before-card {
		t.Errorf("postings after delete = %d, want %d − %d = %d", after, before, card, before-card)
	}
	if err := coord.Delete(ctx, victim.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("re-delete = %v, want ErrNotFound", err)
	}
	results, _, err := coord.Search(ctx, victim, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.ID == victim.ID {
			t.Error("deleted trajectory still ranked")
		}
	}
	// The fence tombstones are reclaimed once the watermark passes them:
	// the Stats calls above already piggybacked it, so a fresh Stats sees
	// no tombstones.
	stats, err := coord.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.Tombstones != 0 {
			t.Errorf("node %d still holds %d tombstones after compaction", s.Node, s.Tombstones)
		}
	}
	// The ID is free for re-use.
	if err := coord.Add(ctx, victim); err != nil {
		t.Errorf("re-add after delete: %v", err)
	}
}

// TestClusterUpsertReplaces verifies in-place replacement across the
// cluster: same ID, new geometry, old postings reclaimed on every node.
func TestClusterUpsertReplaces(t *testing.T) {
	coord, _ := startCluster(t, 2)
	ctx := context.Background()
	old := testWorkload.Dataset.Trajectories[0]
	if err := coord.Add(ctx, old); err != nil {
		t.Fatal(err)
	}
	replacement := &trajectory.Trajectory{ID: old.ID, Points: testWorkload.Dataset.Trajectories[5].Points}
	if err := coord.Upsert(ctx, replacement); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	if got, want := totalPostings(t, coord), len(coord.ex.Extract(replacement.Points)); got != want {
		t.Errorf("postings after upsert = %d, want the replacement's %d", got, want)
	}
	// The replacement ranks as an exact match of its own geometry.
	results, _, err := coord.Search(ctx, replacement, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != old.ID || results[0].Distance != 0 {
		t.Errorf("search for the replacement returned %+v", results)
	}
	// Upsert of an unknown ID is a plain insert.
	novel := testWorkload.Dataset.Trajectories[7]
	if err := coord.Upsert(ctx, novel); err != nil {
		t.Errorf("insert-upsert: %v", err)
	}
}

func TestClusterDeleteAll(t *testing.T) {
	coord, _ := startCluster(t, 2)
	ctx := context.Background()
	for _, tr := range testWorkload.Dataset.Trajectories[:8] {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	ids := []trajectory.ID{
		testWorkload.Dataset.Trajectories[0].ID,
		testWorkload.Dataset.Trajectories[1].ID,
		testWorkload.Dataset.Trajectories[2].ID,
		99999, // unknown: skipped, not an error
	}
	deleted, err := coord.DeleteAll(ctx, ids, 3)
	if err != nil {
		t.Fatal(err)
	}
	if deleted != 3 {
		t.Errorf("DeleteAll deleted %d, want 3", deleted)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := coord.DeleteAll(cancelled, ids, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("DeleteAll on cancelled context = %v, want context.Canceled", err)
	}
}

// TestFanDeletesExpiredContext: a cleanup's fencing deletes under a ctx
// already past its deadline reach no node, and every node comes back as
// failed, so the reconciler gets each one to retry. The fan-out stops
// claiming nodes once its ctx is done; a node it never called must not be
// mistaken for one whose delete landed.
func TestFanDeletesExpiredContext(t *testing.T) {
	coord, _ := startCluster(t, 3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, nodes := range [][]int{{1}, {0, 1, 2}} {
		if failed := coord.fanDeletes(ctx, 7, 1, 0, nodes); !slices.Equal(failed, nodes) {
			t.Errorf("fanDeletes to nodes %v under an expired ctx failed %v, want all of them", nodes, failed)
		}
	}
}

// TestFailedAddLeavesNoOrphans is the acceptance criterion for the
// failed-add cleanup: an Add that dies on one node must reclaim the
// postings it already applied to the others instead of stranding them.
func TestFailedAddLeavesNoOrphans(t *testing.T) {
	coord, nodes := startCluster(t, 2)
	ctx := context.Background()
	// Pick a trajectory whose terms span both nodes, so the surviving
	// node really does apply postings the cleanup must reclaim.
	var victim *trajectory.Trajectory
	for _, tr := range testWorkload.Dataset.Trajectories {
		if analyze(coord, tr).Nodes == 2 {
			victim = tr
			break
		}
	}
	if victim == nil {
		t.Skip("no trajectory spans both nodes in this workload")
	}
	nodes[1].Close()
	if err := coord.Add(ctx, victim); err == nil {
		t.Fatal("Add against a half-dead cluster should fail")
	}
	// Ask the surviving node directly: the cleanup must have deleted
	// whatever the failed add applied there.
	cl, err := dial(nodes[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	resp, err := roundTrip(ctx, cl, &request{Op: opStats})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Postings != 0 {
		t.Errorf("surviving node holds %d orphaned postings after failed Add", resp.Stats.Postings)
	}
	if resp.Stats.Docs != 0 {
		t.Errorf("surviving node holds %d live docs after failed Add", resp.Stats.Docs)
	}
}

// TestClusterSnapshotIsolationUnderChurn is the interleaving acceptance
// criterion: searches racing adds, upserts and deletes must never rank a
// trajectory on a partial intersection count. Every writer churns exact
// clones of the query, so any hit in the churned ID range must surface
// at distance exactly 0 — a partially-visible clone would surface at an
// intermediate distance. Run with -race for the memory-model half.
func TestClusterSnapshotIsolationUnderChurn(t *testing.T) {
	coord, _ := startCluster(t, 3)
	ctx := context.Background()
	q := testWorkload.Queries[0]
	// A stable background population keeps searches non-trivial.
	for _, tr := range testWorkload.Dataset.Trajectories[:8] {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	const churnBase = trajectory.ID(50000)
	const writers, rounds = 3, 15
	stop := make(chan struct{})
	errc := make(chan error, writers+2)
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
				results, _, err := coord.Search(ctx, q, 1, 0)
				if err != nil {
					errc <- err
					return
				}
				for _, r := range results {
					if r.ID >= churnBase && r.Distance != 0 {
						errc <- fmt.Errorf("partially visible trajectory %d at distance %v (shared %d)", r.ID, r.Distance, r.Shared)
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
				if err := coord.Upsert(ctx, clone); err != nil {
					errc <- fmt.Errorf("upsert %d: %w", id, err)
					return
				}
				if err := coord.Delete(ctx, id); err != nil && !errors.Is(err, ErrNotFound) {
					errc <- fmt.Errorf("delete %d: %w", id, err)
					return
				}
			}
		}(w)
	}
	writeWG.Wait()
	close(stop)
	searchWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestPoolParallelSearches exercises the per-node connection pool: with
// size 4, concurrent searches genuinely overlap per node and all return
// the same ranking as a sequential pass.
func TestPoolParallelSearches(t *testing.T) {
	_, addrs := startNodes(t, 2)
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	strategy := shard.Strategy{PrefixBits: 16, Shards: 10000, Nodes: 2}
	coord, err := NewCoordinator(ex, strategy, addrs, Options{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ctx := context.Background()
	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	type ranked struct {
		qi  int
		res []index.Result
	}
	want := make([][]index.Result, len(testWorkload.Queries))
	for i, q := range testWorkload.Queries {
		res, _, err := coord.Search(ctx, q, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	out := make(chan ranked, 4*len(testWorkload.Queries))
	var wg sync.WaitGroup
	for rep := 0; rep < 4; rep++ {
		for i, q := range testWorkload.Queries {
			wg.Add(1)
			go func(i int, q *trajectory.Trajectory) {
				defer wg.Done()
				res, _, err := coord.Search(ctx, q, 1, 0)
				if err != nil {
					t.Errorf("pooled search: %v", err)
					return
				}
				out <- ranked{i, res}
			}(i, q)
		}
	}
	wg.Wait()
	close(out)
	for r := range out {
		if len(r.res) != len(want[r.qi]) {
			t.Fatalf("query %d: pooled search returned %d results, sequential %d", r.qi, len(r.res), len(want[r.qi]))
		}
		for i := range r.res {
			if r.res[i] != want[r.qi][i] {
				t.Fatalf("query %d result %d: %+v vs %+v", r.qi, i, r.res[i], want[r.qi][i])
			}
		}
	}
}

// TestNodeSidePruningMatchesLocal is the tentpole acceptance criterion:
// with document cardinalities replicated to the shard nodes and the
// query's window pushed down, distributed results must stay byte-identical
// to a local index while a pruning-eligible workload shows a non-zero
// NodePruned — candidates skipped before they are ever encoded for the wire.
func TestNodeSidePruningMatchesLocal(t *testing.T) {
	coord, _ := startCluster(t, 3)
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	local := index.New(ex, false)
	ctx := context.Background()
	add := func(tr *trajectory.Trajectory) {
		t.Helper()
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
		if err := local.Add(tr); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range testWorkload.Dataset.Trajectories {
		add(tr)
	}
	q := testWorkload.Queries[0]
	// Guaranteed pruning bait: short prefixes of the query share its
	// leading terms but have a fingerprint cardinality far below the
	// window's floor at tight distance bounds.
	for i, div := range []int{2, 3, 4} {
		add(&trajectory.Trajectory{ID: trajectory.ID(90000 + i), Points: q.Points[:len(q.Points)/div]})
	}
	totalNodePruned := 0
	for _, maxDistance := range []float64{0.2, 0.5, 0.8, 0.99, 1} {
		for _, limit := range []int{0, 3} {
			want, wantStats, err := local.Search(ctx, q, maxDistance, limit)
			if err != nil {
				t.Fatal(err)
			}
			got, info, err := coord.Search(ctx, q, maxDistance, limit)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("d=%v limit=%d: cluster returned %d results, local %d", maxDistance, limit, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("d=%v limit=%d result %d: %+v vs %+v", maxDistance, limit, i, got[i], want[i])
				}
			}
			// Node pruning removes candidates before the merge, so the
			// cluster sees at most the local candidate set, and the two
			// pruning stages together never under-count what the local
			// single-stage pruning skips.
			if info.Candidates > wantStats.Candidates {
				t.Errorf("d=%v: cluster candidates %d > local %d", maxDistance, info.Candidates, wantStats.Candidates)
			}
			if maxDistance >= 1 && info.NodePruned != 0 {
				t.Errorf("d=1 search reported NodePruned=%d, want 0 (window unbounded)", info.NodePruned)
			}
			if info.WirePartials < info.Candidates {
				t.Errorf("d=%v: %d wire partials < %d distinct candidates", maxDistance, info.WirePartials, info.Candidates)
			}
			totalNodePruned += info.NodePruned
		}
	}
	if totalNodePruned == 0 {
		t.Error("no search pruned node-side despite bait candidates outside every tight window")
	}
}

// TestNodeCardinalityWindow pins the node's window arithmetic with
// hand-built documents: a node must prune a candidate whose replicated
// |G| falls outside [(1−d)·|F|, |F|/(1−d)] and keep one inside,
// reporting the skipped entries in Pruned — also on a query of more than
// 65535 terms, where one document's partial count itself passes 16 bits.
func TestNodeCardinalityWindow(t *testing.T) {
	node, err := StartNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cl, err := dial(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	ctx := context.Background()
	// Document 1: one shared term, tiny total cardinality (card 10).
	// Document 2: one shared term, total cardinality 70000.
	// Document 3: 66000 terms, all of them in the wide query below.
	many := make([]uint32, 66000)
	for i := range many {
		many[i] = uint32(100 + i)
	}
	for _, doc := range []wal.Record{
		{Op: wal.OpAdd, ID: 1, Terms: []uint32{5}, Epoch: 1, Card: 10},
		{Op: wal.OpAdd, ID: 2, Terms: []uint32{6}, Epoch: 2, Card: 70000},
		{Op: wal.OpAdd, ID: 3, Terms: many, Epoch: 3, Card: 66000},
	} {
		doc := doc
		if _, err := roundTrip(ctx, cl, &request{Op: opMutate, Mutate: &doc}); err != nil {
			t.Fatal(err)
		}
	}
	// |F|=100, d=0.5 → window ≈ [49, 201]: docs 1 and 2 outside.
	resp, err := roundTrip(ctx, cl, &request{Op: opQuery, Query: &queryRequest{
		Terms: []uint32{5, 6}, QueryCard: 100, MaxDistance: 0.5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ids, _ := pairsOf(resp.Query); len(ids) != 0 || resp.Query.pruned != 2 {
		t.Errorf("narrow query: IDs=%v Pruned=%d, want both docs pruned", ids, resp.Query.pruned)
	}
	// More than 65535 terms: |F|=70000, d=0.5 → window ≈ [34999, 140001]:
	// doc 1 pruned, doc 2 kept with its partial count of 1, doc 3 kept
	// with a partial count no 16-bit entry can hold.
	wide := make([]uint32, 70001)
	for i := range wide {
		wide[i] = uint32(i)
	}
	resp, err = roundTrip(ctx, cl, &request{Op: opQuery, Query: &queryRequest{
		Terms: wide, QueryCard: 70000, MaxDistance: 0.5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ids, counts := pairsOf(resp.Query); !reflect.DeepEqual(ids, []uint32{2, 3}) || !reflect.DeepEqual(counts, []uint32{1, 66000}) || resp.Query.pruned != 1 {
		t.Errorf("wide query: IDs=%v Counts=%v Pruned=%d, want docs 2 and 3 kept with counts 1 and 66000, doc 1 pruned",
			ids, counts, resp.Query.pruned)
	}
	// QueryCard 0 disables the window: both docs ship.
	resp, err = roundTrip(ctx, cl, &request{Op: opQuery, Query: &queryRequest{
		Terms: []uint32{5, 6}, MaxDistance: 0.5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ids, _ := pairsOf(resp.Query); len(ids) != 2 || resp.Query.pruned != 0 {
		t.Errorf("QueryCard 0: IDs=%v Pruned=%d, want pruning disabled", ids, resp.Query.pruned)
	}
	// No distance bound, as on every kNN search: the window is open and
	// ships every candidate, doc 2's |G| of 70000 against an |F| of 100
	// included, without looking a cardinality up.
	resp, err = roundTrip(ctx, cl, &request{Op: opQuery, Query: &queryRequest{
		Terms: []uint32{5, 6}, QueryCard: 100, MaxDistance: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ids, counts := pairsOf(resp.Query); !reflect.DeepEqual(ids, []uint32{1, 2}) || !reflect.DeepEqual(counts, []uint32{1, 1}) || resp.Query.pruned != 0 {
		t.Errorf("open window: IDs=%v Counts=%v Pruned=%d, want docs 1 and 2 with count 1 each, none pruned",
			ids, counts, resp.Query.pruned)
	}
}

// TestClusterSameIDHammer races Upserts, Deletes and Searches of the
// same trajectory ID: the per-ID mutation stripe must serialize them, so
// no well-formed call ever fails on its own sibling, and searches stay
// snapshot-consistent.
// Run with -race for the memory-model half.
func TestClusterSameIDHammer(t *testing.T) {
	coord, _ := startCluster(t, 3)
	ctx := context.Background()
	for _, tr := range testWorkload.Dataset.Trajectories[:6] {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	const victim = trajectory.ID(70001)
	const writers, rounds = 4, 10
	geometries := make([][]geo.Point, writers)
	for w := range geometries {
		geometries[w] = testWorkload.Dataset.Trajectories[w].Points
	}
	errc := make(chan error, 2*writers+2)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			clone := &trajectory.Trajectory{ID: victim, Points: geometries[w]}
			for r := 0; r < rounds; r++ {
				if err := coord.Upsert(ctx, clone); err != nil {
					errc <- fmt.Errorf("upsert writer %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	// A deleter interleaves withdrawals; ErrNotFound is its only
	// acceptable failure (another deleter or no prior upsert).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 2*rounds; r++ {
			if err := coord.Delete(ctx, victim); err != nil && !errors.Is(err, ErrNotFound) {
				errc <- fmt.Errorf("delete round %d: %w", r, err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	var searchWG sync.WaitGroup
	searchWG.Add(1)
	go func() {
		defer searchWG.Done()
		q := testWorkload.Queries[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := coord.Search(ctx, q, 1, 0); err != nil {
				errc <- fmt.Errorf("search: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	searchWG.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	// Quiesce: a final upsert then search must surface exactly one live
	// version of the victim.
	final := &trajectory.Trajectory{ID: victim, Points: geometries[0]}
	if err := coord.Upsert(ctx, final); err != nil {
		t.Fatalf("final upsert: %v", err)
	}
	results, _, err := coord.Search(ctx, final, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range results {
		if r.ID == victim {
			if r.Distance != 0 {
				t.Errorf("victim at distance %v after quiescence, want 0", r.Distance)
			}
			found = true
		}
	}
	if !found {
		t.Error("victim missing after final upsert")
	}
}

// TestNodeRejectsMalformedDelete extends the malformed-request coverage
// to delete records.
func TestNodeRejectsMalformedDelete(t *testing.T) {
	node, err := StartNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cl, err := dial(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	// A delete record ends at its ID, so terms after it are trailing
	// bytes the node refuses.
	f := dialFrames(t, node.Addr())
	del := wal.AppendRecord([]byte{byte(opMutate), 0}, &wal.Record{Op: wal.OpDelete, ID: 1, Epoch: 1})
	if resp := exchange(t, f, wire.AppendU32s(del, []uint32{1})); resp.Kind != opError {
		t.Errorf("delete carrying terms answered with a %s frame, want an error", resp.Kind)
	}
	// The connection survives the protocol error.
	if resp := exchange(t, f, appendRequest(nil, &request{Op: opStats})); resp.Kind != opStats {
		t.Errorf("stats after malformed delete answered with a %s frame", resp.Kind)
	}
}

// TestNodeRejectsTermlessAdd: an add without terms would be stored as a
// doc whose nil terms read as a tombstone the node never counted, and
// the next compaction sweep would drive the tombstone count negative.
// The node must refuse it at the door.
func TestNodeRejectsTermlessAdd(t *testing.T) {
	node, err := StartNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	cl, err := dial(node.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	ctx := context.Background()
	if _, err := roundTrip(ctx, cl, &request{Op: opMutate, Mutate: &wal.Record{Op: wal.OpAdd, ID: 1, Epoch: 1, Card: 5}}); err == nil {
		t.Error("add without terms should error")
	}
	if _, err := roundTrip(ctx, cl, &request{Op: opMutate, Mutate: &wal.Record{Op: wal.OpDelete, ID: 2, Epoch: 2}}); err != nil {
		t.Fatal(err)
	}
	resp, err := roundTrip(ctx, cl, &request{Op: opStats, CompactBelow: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Docs != 0 || resp.Stats.Tombstones != 0 {
		t.Errorf("after the sweep: Docs=%d Tombstones=%d, want 0 and 0", resp.Stats.Docs, resp.Stats.Tombstones)
	}
}

// nodeMask is the set of nodes a strategy routes a term set to, bit i for
// node i, worked out from the strategy alone rather than through Plan.
func nodeMask(st shard.Strategy, terms []uint32) (mask uint64) {
	for _, g := range terms {
		mask |= 1 << st.NodeOfGeodab(g)
	}
	return mask
}

// TestClusterMutationsMoveBetweenNodes runs a seeded mix of Add, Upsert,
// Delete and DeleteAll over a corpus that 26-bit prefixes, one shard each,
// spread over three nodes, so upserts move trajectories between node sets
// — disjoint ones included. After every step the cluster must rank like a
// local index and hold exactly its postings, and a node outside the step's
// old ∪ new node sets must have heard nothing of it: no epoch advance, no
// tombstone.
// TestRerankAcrossOwners pins a pushed-down rerank whose shortlist is
// owned by several nodes, each scoring its part at once, to scoring the
// whole shortlist in one place: the same hits, scores and Shared counts,
// for both metrics, capped and not. 26-bit prefix cells, about 600 m
// across, spread the test city's trajectories over the nodes. A hit the
// directory does not hold fails the rerank, naming it.
func TestRerankAcrossOwners(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.PrefixBits = 26
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(cfg)}
	_, addrs := startNodes(t, 3)
	coord, err := NewCoordinator(ex, shard.Strategy{PrefixBits: 26, Shards: 1 << 26, Nodes: 3}, addrs, Options{RetainPoints: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ctx := context.Background()
	byID := make(map[trajectory.ID][]geo.Point)
	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
		byID[tr.ID] = tr.Points
	}
	for _, tc := range []struct {
		metric    rerank.Metric
		unbounded func(a, b []geo.Point) float64
	}{{rerank.DTW, distance.DTW}, {rerank.DFD, distance.DFD}} {
		for _, q := range testWorkload.Queries[:3] {
			hits, _, err := coord.Search(ctx, q, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			var owners uint64
			coord.mu.RLock()
			for _, h := range hits {
				owners |= 1 << coord.directory[h.ID].owner
			}
			coord.mu.RUnlock()
			if bits.OnesCount64(owners) < 2 {
				t.Fatalf("query %d: the shortlist's %d hits have one owner", q.ID, len(hits))
			}
			reference := slices.Clone(hits)
			for i := range reference {
				reference[i].Distance = tc.unbounded(q.Points, byID[reference[i].ID])
			}
			index.SortResults(reference)
			for _, limit := range []int{0, 1, 5} {
				want := reference
				if limit > 0 {
					want = want[:limit]
				}
				got, err := coord.Rerank(ctx, slices.Clone(hits), q.Points, tc.metric, limit)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("metric %d query %d limit %d: got %v, want %v", tc.metric, q.ID, limit, got, want)
				}
			}
		}
	}
	stray := []index.Result{{ID: testWorkload.Dataset.Trajectories[0].ID}, {ID: 1 << 30}}
	if _, err := coord.Rerank(ctx, stray, testWorkload.Queries[0].Points, rerank.DTW, 1); err == nil || !strings.Contains(err.Error(), "1073741824") {
		t.Fatalf("a shortlist with an unindexed ID: err = %v, want one naming it", err)
	}
}

func TestClusterMutationsMoveBetweenNodes(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.PrefixBits = 26
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(cfg)}
	strategy := shard.Strategy{PrefixBits: 26, Shards: 1 << 26, Nodes: 3}
	nodes, addrs := startNodes(t, 3)
	coord, err := NewCoordinator(ex, strategy, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	local := index.New(ex, false)
	ctx := context.Background()
	stats := func() []NodeStats {
		t.Helper()
		st, err := coord.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	geoms := testWorkload.Dataset.Trajectories
	masks := make([]uint64, len(geoms))
	for i, tr := range geoms {
		masks[i] = nodeMask(strategy, ex.Extract(tr.Points))
	}
	const firstID, ids = 1000, 12
	held := make(map[trajectory.ID]uint64) // each live ID's nodes
	for i := 0; i < ids; i++ {
		g := i * 5 % len(geoms)
		tr := &trajectory.Trajectory{ID: firstID + trajectory.ID(i), Points: geoms[g].Points}
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
		local.Upsert(tr)
		held[tr.ID] = masks[g]
	}
	before := stats()
	spread := 0
	for _, s := range before {
		if s.Docs > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("the corpus sits on %d of 3 nodes, want at least 2", spread)
	}

	rng := rand.New(rand.NewSource(1))
	moves := 0
	for step := 0; step < 80; step++ {
		id := firstID + trajectory.ID(rng.Intn(ids))
		g := rng.Intn(len(geoms))
		tr := &trajectory.Trajectory{ID: id, Points: geoms[g].Points}
		var touched uint64 // old ∪ new: the only nodes the step may reach
		var op string
		switch r := rng.Intn(10); {
		case r < 5:
			op = "upsert"
			if old, ok := held[id]; ok && rng.Intn(2) == 0 {
				for i := 0; i < len(geoms) && masks[g]&old != 0; i++ {
					g = (g + 1) % len(geoms)
				}
				if masks[g]&old == 0 {
					op, moves = "disjoint upsert", moves+1
				}
				tr.Points = geoms[g].Points
			}
			if err := coord.Upsert(ctx, tr); err != nil {
				t.Fatalf("step %d: %s %d: %v", step, op, id, err)
			}
			local.Upsert(tr)
			touched, held[id] = held[id]|masks[g], masks[g]
		case r < 7:
			op = "add"
			_, dup := held[id]
			if err := coord.Add(ctx, tr); (err != nil) != dup {
				t.Fatalf("step %d: add %d (indexed: %v): %v", step, id, dup, err)
			}
			if !dup {
				local.Upsert(tr)
				touched, held[id] = masks[g], masks[g]
			}
		case r < 9:
			op = "delete"
			err := coord.Delete(ctx, id)
			if found := local.Delete(id); (found && err != nil) || (!found && !errors.Is(err, ErrNotFound)) {
				t.Fatalf("step %d: delete %d (indexed: %v): %v", step, id, found, err)
			}
			touched = held[id]
			delete(held, id)
		default:
			op = "delete all"
			batch := []trajectory.ID{id, id + 1, id + 2}
			n, err := coord.DeleteAll(ctx, batch, 2)
			if want, _ := local.DeleteAll(ctx, batch); err != nil || n != want {
				t.Fatalf("step %d: delete all %v = %d, %v; want %d", step, batch, n, err, want)
			}
			for _, id := range batch {
				touched |= held[id]
				delete(held, id)
			}
		}

		// Read the outside nodes' tombstones before Stats, whose piggybacked
		// watermark compacts them; the last step's Stats left none.
		for i, n := range nodes {
			n.mu.RLock()
			tombs := len(n.tombstones)
			n.mu.RUnlock()
			if touched&(1<<i) == 0 && tombs != 0 {
				t.Errorf("step %d (%s %d): node %d holds neither version yet has %d tombstones", step, op, id, i, tombs)
			}
		}
		after := stats()
		postings := 0
		for i, s := range after {
			postings += s.Postings
			if advanced, in := s.Epoch != before[i].Epoch, touched&(1<<i) != 0; advanced != in {
				t.Errorf("step %d (%s %d): node %d epoch %d → %d, holds the old or new version: %v", step, op, id, i, before[i].Epoch, s.Epoch, in)
			}
		}
		if want := local.Stats().Postings; postings != want {
			t.Fatalf("step %d (%s %d): the cluster holds %d postings, the local index %d", step, op, id, postings, want)
		}
		for _, q := range testWorkload.Queries {
			for _, limit := range []int{0, 3} {
				want, _, err := local.Search(ctx, q, 1, limit)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := coord.Search(ctx, q, 1, limit)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s %d): query %d limit %d: cluster %+v, local %+v", step, op, id, q.ID, limit, got, want)
				}
			}
		}
		before = after
	}
	t.Logf("%d upserts moved a trajectory to a disjoint node set", moves)
	if moves == 0 {
		t.Error("no upsert moved a trajectory to a disjoint node set")
	}
}

// TestNodeQueryZeroAlloc pins the node's half of the shared search
// scratch (index.Scratch): with a warm pool and a reply buffer of
// sufficient capacity, a node query allocates nothing, with an open
// cardinality window (no distance bound), with a bounded one, and ranked
// on the node under a result cap, as a one-node plan's query is. GC is
// off so a collection cannot empty the pool mid-run.
func TestNodeQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	n := memNode()
	rng := rand.New(rand.NewSource(1))
	for id := uint32(1); id <= 2000; id++ {
		var terms []uint32
		for range 20 + rng.Intn(20) {
			terms = append(terms, uint32(rng.Intn(500)))
		}
		slices.Sort(terms)
		terms = slices.Compact(terms)
		// The replicated |G| counts the terms other nodes own too.
		card := uint32(len(terms) + rng.Intn(200))
		n.apply(&wal.Record{Op: wal.OpAdd, ID: id, Epoch: uint64(id), Card: card, Terms: terms})
	}
	query := make([]uint32, 30)
	for i := range query {
		query[i] = uint32(i * 7)
	}
	dst := make([]byte, 0, 1<<20)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name   string
		req    queryRequest
		pruned bool
	}{
		{"open window", queryRequest{Terms: query}, false},
		{"bounded window", queryRequest{Terms: query, QueryCard: len(query), MaxDistance: 0.5}, true},
		{"ranked", queryRequest{Terms: query, QueryCard: len(query), MaxDistance: 1, Limit: 10}, false},
	} {
		for range 3 {
			dst = n.query(dst[:0], &tc.req)
		}
		if pruned := binary.LittleEndian.Uint32(dst[1:]); op(dst[0]) != opQuery || (pruned > 0) != tc.pruned || len(dst) == 5 {
			t.Fatalf("%s: %d partials, %d pruned: the window is not the one meant", tc.name, (len(dst)-5)/partialSize, pruned)
		}
		if hits := (len(dst) - 5) / partialSize; tc.req.Limit > 0 && hits != tc.req.Limit {
			t.Fatalf("%s: %d hits shipped, want %d", tc.name, hits, tc.req.Limit)
		}
		if allocs := testing.AllocsPerRun(100, func() { dst = n.query(dst[:0], &tc.req) }); allocs != 0 {
			t.Errorf("%s: %.2f allocs/op in steady state, want 0", tc.name, allocs)
		}
	}
}

// TestParseReplicas reads the command-line replica spec both binaries
// share: one comma-separated group per node, '|' between a group's
// members, an empty group for a node with no replicas.
func TestParseReplicas(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  string
		nodes int
		want  [][]string
		err   string
	}{
		{"group count differs from node count", "a:1,b:1", 3, nil, "-replicas has 2 groups, -nodes has 3 addresses"},
		{"empty group leaves its node without replicas", "a:1,,c:1", 3, [][]string{{"a:1"}, nil, {"c:1"}}, ""},
		{"pipe-separated members", "a:1|a:2|a:3,b:1", 2, [][]string{{"a:1", "a:2", "a:3"}, {"b:1"}}, ""},
	} {
		got, err := ParseReplicas(tc.spec, tc.nodes)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %q, %v; want %q", tc.name, got, err, tc.want)
		}
	}
}
