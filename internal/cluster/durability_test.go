package cluster

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"geodabs/internal/core"
	"geodabs/internal/geo"
	"geodabs/internal/index"
	"geodabs/internal/shard"
	"geodabs/internal/trajectory"
	"geodabs/internal/wal"
)

// startDurableCluster spins up n WAL-backed nodes and a coordinator,
// returning the node addresses and WAL directories so tests can kill and
// restart nodes in place.
func startDurableCluster(t *testing.T, n int, extra ...NodeOption) (*Coordinator, []*Node, []string, []string) {
	t.Helper()
	nodes := make([]*Node, n)
	addrs := make([]string, n)
	dirs := make([]string, n)
	for i := range nodes {
		dirs[i] = t.TempDir()
		node, err := StartNode("127.0.0.1:0", append([]NodeOption{WithWALDir(dirs[i])}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		addrs[i] = node.Addr()
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close() // idempotent; killed nodes no-op
		}
	})
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	strategy := shard.Strategy{PrefixBits: 16, Shards: 10000, Nodes: n}
	coord, err := NewCoordinator(ex, strategy, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, nodes, addrs, dirs
}

// searchAll runs every workload query and returns the ranked results,
// retrying transient errors (a restarted node leaves dead pooled
// connections behind; the pool redials on the next attempt).
func searchAll(t *testing.T, coord *Coordinator) [][]index.Result {
	t.Helper()
	out := make([][]index.Result, len(testWorkload.Queries))
	for i, q := range testWorkload.Queries {
		var results []index.Result
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			results, _, err = search(context.Background(), coord, q, 0.99, 0)
			if err == nil {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("query %d: %v", q.ID, err)
		}
		out[i] = results
	}
	return out
}

// TestNodeRestartFromWALServesIdenticalResults is the durability
// acceptance criterion: after adds, upserts and deletes, both shard
// nodes are hard-killed (no flush, no final snapshot) and restarted from
// their WAL directories at the same addresses — every query must then
// return byte-identical results to the unkilled cluster's. One node
// snapshots mid-stream, so recovery exercises snapshot + replay on one
// node and pure replay on the other; a tiny segment size forces multi-
// segment logs.
func TestNodeRestartFromWALServesIdenticalResults(t *testing.T) {
	coord, nodes, addrs, dirs := startDurableCluster(t, 2, WithWALSegmentBytes(8<<10))
	ctx := context.Background()
	trajs := testWorkload.Dataset.Trajectories
	for _, tr := range trajs {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	// Compact half the mutations into a snapshot on node 0; node 1
	// recovers from replay alone.
	if err := nodes[0].Snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// Churn after the snapshot so both the snapshot and the surviving log
	// carry state: delete some, upsert others with swapped geometry.
	for _, tr := range trajs[:3] {
		if err := coord.Delete(ctx, tr.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i, tr := range trajs[3:6] {
		swapped := &trajectory.Trajectory{ID: tr.ID, Points: trajs[6+i].Points}
		if err := coord.Upsert(ctx, swapped); err != nil {
			t.Fatal(err)
		}
	}
	want := searchAll(t, coord)

	for _, node := range nodes {
		node.Kill()
	}
	for i := range nodes {
		node, err := StartNode(addrs[i], WithWALDir(dirs[i]), WithWALSegmentBytes(8<<10))
		if err != nil {
			t.Fatalf("restart node %d: %v", i, err)
		}
		nodes[i] = node
		t.Cleanup(func() { node.Close() })
	}
	got := searchAll(t, coord)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d after restart: %+v, want %+v", testWorkload.Queries[i].ID, got[i], want[i])
		}
	}
}

// nodeState is a node's full shard state flattened for comparison.
type nodeState struct {
	docs     map[uint32]dumpedDoc
	postings map[uint32][]uint32
}

// dumpedDoc is one doc of a nodeState: its terms, its card table entry
// (0 for a tombstone) and its epoch.
type dumpedDoc struct {
	terms []uint32
	card  int
	epoch uint64
}

// dumpState copies a node's docs, cards and postings under its lock.
func dumpState(n *Node) nodeState {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := nodeState{docs: make(map[uint32]dumpedDoc, len(n.docs)), postings: make(map[uint32][]uint32, len(n.postings))}
	for id, d := range n.docs {
		card, _ := n.cards.Get(id)
		s.docs[id] = dumpedDoc{terms: append([]uint32(nil), d.terms...), card: card, epoch: d.epoch}
	}
	for term, p := range n.postings {
		var ids []uint32
		p.Iterate(func(id uint32) bool {
			ids = append(ids, id)
			return true
		})
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		s.postings[term] = ids
	}
	return s
}

// memNode returns a bare in-memory node for direct apply calls — the
// property tests' reference, never listening or logging.
func memNode() *Node {
	return &Node{shardState: newShardState()}
}

// TestNodeCrashRecoveryProperty hard-kills a WAL-backed node at a random
// point in a random Add/Delete interleaving and asserts the recovered
// state — docs, cards, epochs, postings — is identical to a reference
// node that applied the same prefix in memory. SyncEvery=1, so every
// acknowledged mutation must survive; runs snapshot mid-stream at random
// to cover snapshot+replay recovery alongside pure replay.
func TestNodeCrashRecoveryProperty(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		node, err := StartNode("127.0.0.1:0", WithWALDir(dir), WithWALSegmentBytes(4<<10))
		if err != nil {
			t.Fatal(err)
		}
		ref := memNode()
		ops := 60 + rng.Intn(120)
		kill := rng.Intn(ops)
		epoch := uint64(0)
		for i := 0; i < kill; i++ {
			epoch++
			id := uint32(rng.Intn(12))
			if rng.Intn(3) == 0 {
				rec := &wal.Record{Op: wal.OpDelete, ID: id, Epoch: epoch}
				if err := node.mutate(rec); err != nil {
					t.Fatalf("seed %d op %d delete: %v", seed, i, err)
				}
				ref.apply(rec)
				continue
			}
			terms := make([]uint32, 1+rng.Intn(20))
			for j := range terms {
				terms[j] = uint32(rng.Intn(200))
			}
			rec := &wal.Record{Op: wal.OpAdd, ID: id, Terms: terms, Epoch: epoch, Card: uint32(len(terms) + rng.Intn(50))}
			if err := node.mutate(rec); err != nil {
				t.Fatalf("seed %d op %d add: %v", seed, i, err)
			}
			ref.apply(rec)
			if rng.Intn(25) == 0 {
				if err := node.Snapshot(); err != nil {
					t.Fatalf("seed %d op %d snapshot: %v", seed, i, err)
				}
			}
		}
		node.Kill()
		recovered, err := StartNode("127.0.0.1:0", WithWALDir(dir))
		if err != nil {
			t.Fatalf("seed %d recover: %v", seed, err)
		}
		got, want := dumpState(recovered), dumpState(ref)
		if !reflect.DeepEqual(got.docs, want.docs) {
			t.Fatalf("seed %d kill@%d/%d: recovered docs differ\ngot  %+v\nwant %+v", seed, kill, ops, got.docs, want.docs)
		}
		if !reflect.DeepEqual(got.postings, want.postings) {
			t.Fatalf("seed %d kill@%d/%d: recovered postings differ", seed, kill, ops)
		}
		recovered.Close()
	}
}

// pollUntil retries cond every 20ms until it holds or the deadline
// passes.
func pollUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s", msg)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestReplicaServesIdenticalResults is the replication acceptance
// criterion: once a read replica reaches epoch lag 0 it must answer
// every query byte-identically to its primary — including after the
// primary goes away entirely (replica failover).
func TestReplicaServesIdenticalResults(t *testing.T) {
	coord, nodes, addrs, _ := startDurableCluster(t, 2)
	ctx := context.Background()
	replicaAddrs := make([][]string, len(nodes))
	replicas := make([]*Node, len(nodes))
	for i := range nodes {
		rep, err := StartNode("127.0.0.1:0", WithReplicaOf(addrs[i]))
		if err != nil {
			t.Fatal(err)
		}
		replicas[i] = rep
		replicaAddrs[i] = []string{rep.Addr()}
		t.Cleanup(func() { rep.Close() })
	}
	// A second coordinator over the same nodes, replica-aware. It shares
	// no directory with the mutating one, so all mutations go through
	// repl-coord to keep ranking state in one place.
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	strategy := shard.Strategy{PrefixBits: 16, Shards: 10000, Nodes: len(nodes)}
	rcoord, err := NewCoordinator(ex, strategy, addrs, Options{Replicas: replicaAddrs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rcoord.Close() })
	coord.Close() // unused: mutations flow through rcoord only

	for _, tr := range testWorkload.Dataset.Trajectories {
		if err := rcoord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range testWorkload.Dataset.Trajectories[:2] {
		if err := rcoord.Delete(ctx, tr.ID); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for both replicas to prove themselves complete through the
	// primaries' current epoch (lag 0). The Stats call itself piggybacks
	// the watermark that lets the primaries publish it.
	pollUntil(t, 10*time.Second, func() bool {
		stats, err := rcoord.Stats(ctx)
		if err != nil {
			return false
		}
		for _, s := range stats {
			for _, r := range s.Replicas {
				if r.Err != "" || r.EpochLag != 0 {
					return false
				}
			}
		}
		return true
	}, "replicas never reached epoch lag 0")

	want := searchAll(t, rcoord) // ReadPrimary default: primaries answer
	rcoord.readPref = ReadReplicas
	got := searchAll(t, rcoord)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d via replicas: %+v, want %+v", testWorkload.Queries[i].ID, got[i], want[i])
		}
	}
	// Primary failover: with the primaries gone, replica reads must still
	// answer byte-identically (no new mutations, so the replicas' stable
	// epochs still cover the search snapshot).
	for _, node := range nodes {
		node.Close()
	}
	got = searchAll(t, rcoord)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d after primary shutdown: %+v, want %+v", testWorkload.Queries[i].ID, got[i], want[i])
		}
	}
	// And the same through the ReadPrimary failover path.
	rcoord.readPref = ReadPrimary
	got = searchAll(t, rcoord)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d primary-preferred failover: %+v, want %+v", testWorkload.Queries[i].ID, got[i], want[i])
		}
	}
}

// TestReplicaStaleGate pins the replica read-consistency protocol at the
// wire level: a replica refuses (response.Stale) any query whose
// snapshot epoch exceeds the highest watermark it has seen, and serves
// it once the primary's stream has proven that epoch complete.
func TestReplicaStaleGate(t *testing.T) {
	primary, err := StartNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replica, err := StartNode("127.0.0.1:0", WithReplicaOf(primary.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	ctx := context.Background()
	pcl, err := dial(primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pcl.close()
	rcl, err := dial(replica.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rcl.close()

	if _, err := roundTrip(ctx, pcl, &request{Op: opMutate, Mutate: &wal.Record{Op: wal.OpAdd, ID: 1, Terms: []uint32{7, 8, 9}, Epoch: 5, Card: 3}}); err != nil {
		t.Fatal(err)
	}
	// Mutations must be refused by the replica outright.
	if _, err := roundTrip(ctx, rcl, &request{Op: opMutate, Mutate: &wal.Record{Op: wal.OpAdd, ID: 2, Terms: []uint32{1}, Epoch: 6, Card: 1}}); err == nil {
		t.Fatal("replica accepted a mutation")
	}
	// Wait for the add to stream over.
	pollUntil(t, 5*time.Second, func() bool {
		resp, err := roundTrip(ctx, rcl, &request{Op: opStats})
		return err == nil && resp.Stats.Docs == 1
	}, "replica never received the streamed add")

	// Snapshot epoch 5 is not yet proven complete on the replica: stale.
	if _, err := roundTrip(ctx, rcl, &request{Op: opQuery, CompactBelow: 5, Query: &queryRequest{Terms: []uint32{7, 8, 9}}}); !errors.Is(err, errStale) {
		t.Fatalf("replica query at snapshot 5 = %v, want a stale refusal: it cannot prove that snapshot complete", err)
	}
	// Snapshot epoch 0 needs no proof: served.
	resp, err := roundTrip(ctx, rcl, &request{Op: opQuery, Query: &queryRequest{Terms: []uint32{7, 8, 9}}})
	if err != nil {
		t.Fatal(err)
	}
	if ids, _ := pairsOf(resp.Query); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("replica snapshot-0 query answered IDs %v, want [1]", ids)
	}
	// Advancing the primary's watermark past the epoch un-stales the
	// replica via the stream.
	if _, err := roundTrip(ctx, pcl, &request{Op: opStats, CompactBelow: 5}); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, func() bool {
		resp, err := roundTrip(ctx, rcl, &request{Op: opQuery, CompactBelow: 5, Query: &queryRequest{Terms: []uint32{7, 8, 9}}})
		return err == nil && resp.Query.len() == 1
	}, "replica never caught up to watermark 5")
}

// TestStrandedPostingsReconciled pins the failed-Add recovery loop end
// to end: an Add dies against a wedged node after a durable node already
// applied its postings; the cleanup cannot reach the durable node either
// (it was killed mid-Add), so the postings are stranded on its WAL. The
// node restarts from the WAL — stranded postings and all — and the
// coordinator's background reconciler must then fence and reclaim them,
// leaving no orphaned postings behind after compaction.
func TestStrandedPostingsReconciled(t *testing.T) {
	oldInterval, oldTimeout := reconcileInterval, addCleanupTimeout
	reconcileInterval, addCleanupTimeout = 50*time.Millisecond, 300*time.Millisecond
	defer func() { reconcileInterval, addCleanupTimeout = oldInterval, oldTimeout }()

	dir := t.TempDir()
	durable, err := StartNode("127.0.0.1:0", WithWALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	durableAddr := durable.Addr()
	// A wedged "node" that accepts and swallows traffic without ever
	// answering — closable, so the test can later start a real node on
	// its address to heal the cluster.
	stallLn := startFakeNode(t, swallow)
	wedged := stallLn.Addr().String()
	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	// A fine-grained sharding (one shard per 31-bit curve prefix, node =
	// parity) guarantees any multi-term trajectory spans both nodes — the
	// coarse default can place a whole trajectory on one node, which
	// would let the Add bypass the wedged node entirely.
	coord, err := NewCoordinator(ex, shard.Strategy{PrefixBits: 31, Shards: 1 << 31, Nodes: 2}, []string{durableAddr, wedged}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

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
	// Run the Add: the durable node applies and fsyncs its postings, the
	// wedged node hangs. Kill the durable node once its postings landed,
	// then cancel — the Add fails and its cleanup can reach neither node,
	// stranding the applied postings in the durable node's WAL.
	ctx, cancel := context.WithCancel(context.Background())
	addErr := make(chan error, 1)
	go func() { addErr <- coord.Add(ctx, victim) }()
	pollUntil(t, 5*time.Second, func() bool {
		durable.mu.RLock()
		defer durable.mu.RUnlock()
		return len(durable.docs) == 1
	}, "durable node never applied its half of the Add")
	durable.Kill()
	cancel()
	if err := <-addErr; err == nil {
		t.Fatal("Add against a half-dead cluster should fail")
	}
	// The cleanup must have queued its unreachable deletes.
	pollUntil(t, 5*time.Second, func() bool { return coord.PendingCleanups() > 0 }, "failed cleanup was not queued for reconciliation")

	// Restart the node from its WAL: the stranded postings come back with
	// it — and the reconciler must now reach it, fence the orphaned add,
	// and reclaim the postings.
	restarted, err := StartNode(durableAddr, WithWALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	restarted.mu.RLock()
	docs := len(restarted.docs)
	restarted.mu.RUnlock()
	if docs != 1 {
		t.Fatalf("restarted node recovered %d docs, want the 1 stranded add", docs)
	}
	cl, err := dial(restarted.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.close()
	pollUntil(t, 10*time.Second, func() bool {
		resp, err := roundTrip(context.Background(), cl, &request{Op: opStats})
		return err == nil && resp.Stats.Postings == 0 && resp.Stats.Docs == 0
	}, "orphaned postings survived reconciliation")

	// Heal the wedged node: a real (empty) node takes over its address,
	// the reconciler's outstanding fencing delete lands there, and the
	// pending-cleanup queue drains completely.
	stallLn.Close()
	healed, err := StartNode(wedged)
	if err != nil {
		t.Fatal(err)
	}
	defer healed.Close()
	pollUntil(t, 10*time.Second, func() bool { return coord.PendingCleanups() == 0 }, "cleanup queue never drained after the wedged node healed")

	// With the cluster whole again, later mutations advance the watermark
	// past the fence and compaction reclaims the tombstone — nothing of
	// the failed Add survives anywhere.
	var other *trajectory.Trajectory
	for _, tr := range testWorkload.Dataset.Trajectories {
		if tr.ID != victim.ID {
			other = tr
			break
		}
	}
	if err := coord.Add(context.Background(), other); err != nil {
		t.Fatalf("Add after heal: %v", err)
	}
	pollUntil(t, 10*time.Second, func() bool {
		resp, err := roundTrip(context.Background(), cl, &request{Op: opStats, CompactBelow: coord.watermark()})
		return err == nil && resp.Stats.Tombstones == 0
	}, "fence tombstone survived compaction")
	restarted.mu.RLock()
	_, orphaned := restarted.docs[uint32(victim.ID)]
	restarted.mu.RUnlock()
	if orphaned {
		t.Fatal("victim trajectory still present on the recovered node")
	}
}

// latExtractor reads a trajectory's terms straight off its points'
// latitudes, so a test can put every term on the node it wants: under
// Strategy{PrefixBits: 31, Shards: 1 << 31, Nodes: 2} term g lives on
// node (g >> 1) & 1.
type latExtractor struct{}

func (latExtractor) Extract(pts []geo.Point) []uint32 {
	terms := make([]uint32, len(pts))
	for i, p := range pts {
		terms[i] = uint32(p.Lat)
	}
	slices.Sort(terms)
	return slices.Compact(terms)
}

// termTrajectory builds a trajectory whose latExtractor terms are terms.
func termTrajectory(id trajectory.ID, terms ...uint32) *trajectory.Trajectory {
	tr := &trajectory.Trajectory{ID: id}
	for _, g := range terms {
		tr.Points = append(tr.Points, geo.Point{Lat: float64(g)})
	}
	return tr
}

// TestStrandedPostingsThenReAdd pins the premise the coordinator's
// ranking rests on: a visible trajectory's merged shared count never
// exceeds its directory cardinality. It starts from
// TestStrandedPostingsReconciled's failure — a failed Add whose postings
// are stranded on a node its cleanup could not reach — and then re-adds
// the ID with terms that all live on the other node, so the re-add itself
// never touches the stranded copy. The re-add must first land the fence
// still pending for the ID: while the stranded node is down it fails, and
// once the node is back it succeeds, after which the cluster ranks exactly
// like a local index holding the re-added version. The recovered variant
// restarts the coordinator in between, losing its queue of pending fences:
// directory recovery must queue the fence again from the nodes' state.
func TestStrandedPostingsThenReAdd(t *testing.T) {
	t.Run("same coordinator", func(t *testing.T) { strandThenReAdd(t, false) })
	t.Run("recovered coordinator", func(t *testing.T) { strandThenReAdd(t, true) })
}

func strandThenReAdd(t *testing.T, restart bool) {
	oldInterval, oldTimeout := reconcileInterval, addCleanupTimeout
	// The background reconciler stays out of the way: only the re-add may
	// land the fence. Restored last, once every coordinator is closed.
	reconcileInterval, addCleanupTimeout = time.Hour, 300*time.Millisecond
	t.Cleanup(func() { reconcileInterval, addCleanupTimeout = oldInterval, oldTimeout })

	dir := t.TempDir()
	durable, err := StartNode("127.0.0.1:0", WithWALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	durableAddr := durable.Addr()
	stallLn := startFakeNode(t, swallow)
	wedged := stallLn.Addr().String()
	addrs := []string{durableAddr, wedged}
	strategy := shard.Strategy{PrefixBits: 31, Shards: 1 << 31, Nodes: 2}
	coord, err := NewCoordinator(latExtractor{}, strategy, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	// Terms 0, 1, 4, 5, 8 and 9 live on the durable node, 2, 3 and 6 on
	// the wedged one.
	first := termTrajectory(7, 0, 1, 2, 3, 4, 5, 8, 9)
	second := termTrajectory(7, 2, 3, 6)
	if a, b := analyze(coord, first).Nodes, analyze(coord, second).Nodes; a != 2 || b != 1 {
		t.Fatalf("fixture spans %d and %d nodes, want 2 and 1", a, b)
	}

	ctx, cancel := context.WithCancel(context.Background())
	addErr := make(chan error, 1)
	go func() { addErr <- coord.Add(ctx, first) }()
	pollUntil(t, 5*time.Second, func() bool {
		durable.mu.RLock()
		defer durable.mu.RUnlock()
		return len(durable.docs) == 1
	}, "durable node never applied its half of the Add")
	durable.Kill()
	cancel()
	if err := <-addErr; err == nil {
		t.Fatal("Add against a half-dead cluster should fail")
	}
	pollUntil(t, 5*time.Second, func() bool { return coord.PendingCleanups() > 0 }, "failed cleanup was not queued for reconciliation")

	stallLn.Close()
	healed, err := StartNode(wedged)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healed.Close() })
	// The fence lands on the healed node, not on the stranded one.
	readded := coord.Add(context.Background(), second) == nil
	if readded {
		t.Error("re-add committed while the fence of the failed Add could not reach the stranded node")
	}
	if restart {
		coord.Close()
	}

	restarted, err := StartNode(durableAddr, WithWALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restarted.Close() })
	restarted.mu.RLock()
	docs := len(restarted.docs)
	restarted.mu.RUnlock()
	if docs != 1 {
		t.Fatalf("restarted node recovered %d docs, want the 1 stranded add", docs)
	}
	if restart {
		if coord, err = NewCoordinator(latExtractor{}, strategy, addrs, Options{RecoverDirectory: true}); err != nil {
			t.Fatal(err)
		}
		if n := coord.PendingCleanups(); n != 1 {
			t.Errorf("recovery queued %d fences, want the stranded node's 1", n)
		}
	}
	if !readded {
		// The first call may meet the connection the restart left dead.
		pollUntil(t, 5*time.Second, func() bool { return coord.Add(context.Background(), second) == nil },
			"re-add never succeeded with the stranded node back")
	}

	ref := index.New(latExtractor{}, false)
	ref.Upsert(second)
	query := latExtractor{}.Extract(termTrajectory(0, 0, 1, 2, 3, 4, 5, 6, 8, 9).Points)
	for _, limit := range []int{0, 1} {
		want, _, err := ref.AppendSearchSet(context.Background(), nil, query, 1, limit)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := coord.SearchPlan(context.Background(), coord.Plan(query), 1, limit)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("limit %d: cluster ranks %+v, local index %+v", limit, got, want)
		}
	}
}

// TestCoordinatorDirectoryRecovery restarts the coordinator itself: a
// fresh coordinator built with WithDirectoryRecovery over the same
// durable nodes must serve byte-identical results to the one that did
// the writes, resume the epoch counter past every pre-restart mutation,
// and keep fencing correctly — duplicate adds of recovered trajectories
// are rejected, deletes and re-adds of them work.
func TestCoordinatorDirectoryRecovery(t *testing.T) {
	coord, _, addrs, _ := startDurableCluster(t, 2)
	ctx := context.Background()
	trajs := testWorkload.Dataset.Trajectories
	for _, tr := range trajs {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range trajs[:2] {
		if err := coord.Delete(ctx, tr.ID); err != nil {
			t.Fatal(err)
		}
	}
	want := searchAll(t, coord)
	oldEpoch := coord.watermark()
	coord.Close()

	ex := index.GeodabExtractor{Fingerprinter: core.MustFingerprinter(core.DefaultConfig())}
	strategy := shard.Strategy{PrefixBits: 16, Shards: 10000, Nodes: 2}
	recovered, err := NewCoordinator(ex, strategy, addrs, Options{RecoverDirectory: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.Close() })
	if got := recovered.watermark(); got < oldEpoch {
		t.Fatalf("recovered epoch watermark %d, want >= %d", got, oldEpoch)
	}
	got := searchAll(t, recovered)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("query %d after recovery: %+v, want %+v", testWorkload.Queries[i].ID, got[i], want[i])
		}
	}
	// Recovered entries are first-class: duplicates are rejected, and a
	// delete + re-add (both fenced against pre-restart epochs) round-trips.
	if err := recovered.Add(ctx, trajs[5]); err == nil {
		t.Fatal("duplicate add of a recovered trajectory succeeded")
	}
	if err := recovered.Delete(ctx, trajs[5].ID); err != nil {
		t.Fatalf("delete of recovered trajectory: %v", err)
	}
	if err := recovered.Add(ctx, trajs[5]); err != nil {
		t.Fatalf("re-add of recovered trajectory: %v", err)
	}
	// A deleted-before-restart ID must have stayed deleted — and be
	// re-addable.
	if err := recovered.Add(ctx, trajs[0]); err != nil {
		t.Fatalf("re-add of pre-restart-deleted trajectory: %v", err)
	}
}

// writeParentWALFixture drives the mutation sequence that produced
// testdata/parent-wal against a durable node in dir and hard-kills it:
// adds with and without points, an upsert (delete + add) and a delete,
// a snapshot, then two more mutations — so the directory holds a
// node.snap and a tail segment of two records.
func writeParentWALFixture(t *testing.T, dir string) {
	t.Helper()
	node, err := StartNode("127.0.0.1:0", WithWALDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Kill()
	pts := func(n int, lat float64) []geo.Point {
		out := make([]geo.Point, n)
		for i := range out {
			out[i] = geo.Point{Lat: lat + float64(i)*0.001, Lon: 7.25 - float64(i)*0.002}
		}
		return out
	}
	mutate := func(rec wal.Record) {
		t.Helper()
		if err := node.mutate(&rec); err != nil {
			t.Fatal(err)
		}
	}
	mutate(wal.Record{Op: wal.OpAdd, ID: 1, Terms: []uint32{5, 6, 7}, Epoch: 1, Card: 3})
	mutate(wal.Record{Op: wal.OpAddPoints, ID: 2, Terms: []uint32{6, 9}, Epoch: 2, Card: 5, Points: pts(3, 48.5)})
	mutate(wal.Record{Op: wal.OpAdd, ID: 3, Terms: []uint32{7}, Epoch: 3, Card: 1})
	mutate(wal.Record{Op: wal.OpDelete, ID: 1, Epoch: 4}) // upsert of 1: delete, then add
	mutate(wal.Record{Op: wal.OpAddPoints, ID: 1, Terms: []uint32{5, 8}, Epoch: 5, Card: 2, Points: pts(4, 48.6)})
	mutate(wal.Record{Op: wal.OpDelete, ID: 3, Epoch: 6})
	if err := node.Snapshot(); err != nil {
		t.Fatal(err)
	}
	mutate(wal.Record{Op: wal.OpAddPoints, ID: 4, Terms: []uint32{5, 9, 70000}, Epoch: 7, Card: 4, Points: pts(2, 48.7)})
	mutate(wal.Record{Op: wal.OpDelete, ID: 2, Epoch: 8})
}

// TestParentWALCompatibility pins the node's two on-disk formats by
// bytes. testdata/parent-wal was written at the commit before the
// mutation types were unified (PR 16's tree, through its opAdd/opDelete
// requests, by the sequence writeParentWALFixture repeats): its
// node.snap and tail segment must recover to the literal state below,
// and the same sequence run today must write the same segment bytes.
func TestParentWALCompatibility(t *testing.T) {
	const fixture = "testdata/parent-wal"
	dir := t.TempDir()
	entries, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	node, err := StartNode("127.0.0.1:0", WithWALDir(dir))
	if err != nil {
		t.Fatalf("recover the parent's directory: %v", err)
	}
	defer node.Kill()
	// Live: 1 (upserted at epoch 5, 4 points) and 4 (epoch 7, 2 points).
	// Fences: 3 (epoch 6, from the snapshot) and 2 (epoch 8, from the tail).
	st := node.stats()
	if st.Docs != 2 || st.Tombstones != 2 || st.Epoch != 8 || st.RetainedPoints != 6 {
		t.Errorf("recovered Docs=%d Tombstones=%d Epoch=%d RetainedPoints=%d, want 2, 2, 8, 6",
			st.Docs, st.Tombstones, st.Epoch, st.RetainedPoints)
	}
	var reply response
	if err := reply.decode(node.query(nil, &queryRequest{Terms: []uint32{5, 9}})); err != nil {
		t.Fatal(err)
	}
	if ids, counts := pairsOf(reply.Query); !reflect.DeepEqual(ids, []uint32{1, 4}) || !reflect.DeepEqual(counts, []uint32{1, 2}) || reply.Query.pruned != 0 {
		t.Errorf("query {5, 9} = IDs %v counts %v pruned %d, want [1 4] [1 2] 0", ids, counts, reply.Query.pruned)
	}

	fresh := t.TempDir()
	writeParentWALFixture(t, fresh)
	if today, err := os.ReadDir(fresh); err != nil || len(today) != len(entries) {
		t.Fatalf("today's directory holds %d files (%v), the parent's %d", len(today), err, len(entries))
	}
	for _, e := range entries {
		if e.Name() == snapshotName {
			continue // the parent wrote a version 1 snapshot, today's is version 2 (TestSnapshotV2Fixture); the state check above covers it
		}
		want, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(fresh, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: today's bytes differ from the parent's\ngot  %x\nwant %x", e.Name(), got, want)
		}
	}
}

// TestRecoveredDirectoryTargetsHoldingNodes: directory recovery rebuilds
// each trajectory's node set from the adds at its winning epoch, so after
// a kill, a restart and a coordinator recovery a Delete reaches only the
// nodes that hold the trajectory. One trajectory moves from node 0 to
// node 1 by an Upsert before the kill, leaving node 0 a tombstone at the
// very epoch of node 1's add: the add must win the merge, or recovery
// loses a live trajectory.
func TestRecoveredDirectoryTargetsHoldingNodes(t *testing.T) {
	// Term g lives on node (g >> 1) % 3.
	strategy := shard.Strategy{PrefixBits: 31, Shards: 1 << 31, Nodes: 3}
	dirs, addrs, nodes := make([]string, 3), make([]string, 3), make([]*Node, 3)
	for i := range nodes {
		dirs[i] = t.TempDir()
		node, err := StartNode("127.0.0.1:0", WithWALDir(dirs[i]))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i], addrs[i] = node, node.Addr()
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.Close() // the restarted ones; Close is idempotent
		}
	})
	coord, err := NewCoordinator(latExtractor{}, strategy, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ctx := context.Background()
	for _, tr := range []*trajectory.Trajectory{termTrajectory(1, 0, 1), termTrajectory(2, 2, 3, 4), termTrajectory(3, 4, 5)} {
		if err := coord.Add(ctx, tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Upsert(ctx, termTrajectory(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	query := termTrajectory(0, 0, 1, 2, 3, 4, 5)
	want, _, err := search(ctx, coord, query, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	coord.Close()
	for i, node := range nodes {
		node.Kill()
		if nodes[i], err = StartNode(addrs[i], WithWALDir(dirs[i])); err != nil {
			t.Fatalf("restart node %d: %v", i, err)
		}
	}

	recovered, err := NewCoordinator(latExtractor{}, strategy, addrs, Options{RecoverDirectory: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recovered.Close() })
	if got, _, err := search(ctx, recovered, query, 1, 0); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered coordinator ranks %+v (%v), want %+v", got, err, want)
	}
	before, err := recovered.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id      trajectory.ID
		holders uint64
	}{{1, 0b010}, {2, 0b110}, {3, 0b100}} {
		if err := recovered.Delete(ctx, tc.id); err != nil {
			t.Fatalf("delete %d: %v", tc.id, err)
		}
		after, err := recovered.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range after {
			if advanced, holds := s.Epoch != before[i].Epoch, tc.holders&(1<<i) != 0; advanced != holds {
				t.Errorf("delete %d: node %d epoch %d → %d, holds the trajectory: %v", tc.id, i, before[i].Epoch, s.Epoch, holds)
			}
		}
		before = after
	}
	if total := totalPostings(t, recovered); total != 0 {
		t.Errorf("%d postings left after deleting every trajectory", total)
	}
}

// TestNodeTombstoneAccounting: a node's tombstone set is exactly its docs
// with nil terms, and NodeStats.Docs and Tombstones count from it, through
// apply (a delete of a live doc and of an unknown ID, an add over a fence,
// an add at a fence's own epoch), compaction (exactly the fences at or
// below the watermark go), a replica's install of a full sync, and a
// snapshot load.
func TestNodeTombstoneAccounting(t *testing.T) {
	n := memNode()
	for id := uint32(1); id <= 6; id++ {
		n.apply(&wal.Record{Op: wal.OpAdd, ID: id, Epoch: uint64(id), Card: 2, Terms: []uint32{id, 100 + id}})
	}
	for _, rec := range []wal.Record{
		{Op: wal.OpDelete, ID: 2, Epoch: 10},
		{Op: wal.OpDelete, ID: 50, Epoch: 20},
		{Op: wal.OpDelete, ID: 51, Epoch: 40},
		{Op: wal.OpDelete, ID: 4, Epoch: 30},
		{Op: wal.OpDelete, ID: 52, Epoch: 50},
		{Op: wal.OpAdd, ID: 51, Epoch: 45, Card: 1, Terms: []uint32{7}},
		{Op: wal.OpAdd, ID: 52, Epoch: 50, Card: 1, Terms: []uint32{7}}, // stale: the fence holds
	} {
		n.apply(&rec)
	}
	check := func(what string, n *Node, docs int, fences map[uint32]uint64) {
		t.Helper()
		st := n.stats()
		n.mu.RLock()
		got := make(map[uint32]uint64)
		for id, d := range n.docs {
			if d.terms == nil {
				got[id] = d.epoch
			}
		}
		set := make(map[uint32]uint64, len(n.tombstones))
		for id := range n.tombstones {
			set[id] = n.docs[id].epoch
		}
		n.mu.RUnlock()
		if !reflect.DeepEqual(got, fences) || !reflect.DeepEqual(set, fences) || st.Docs != docs || st.Tombstones != len(fences) {
			t.Errorf("%s: fences %v, tombstone set %v, Docs=%d Tombstones=%d; want fences %v, Docs=%d", what, got, set, st.Docs, st.Tombstones, fences, docs)
		}
	}
	// Live: 1, 3, 5, 6 and 51.
	check("after apply", n, 5, map[uint32]uint64{2: 10, 50: 20, 4: 30, 52: 50})
	n.compact(30)
	fences := map[uint32]uint64{52: 50}
	check("after compaction at 30", n, 5, fences)

	st := newShardState()
	for _, rec := range n.syncDocs() {
		if err := st.install(&rec); err != nil {
			t.Fatal(err)
		}
	}
	check("installed from a full sync", &Node{shardState: st}, 5, fences)

	raw, err := encodeSnapshot(n.syncDocs())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeSnapshot(filepath.Join(dir, snapshotName), raw); err != nil {
		t.Fatal(err)
	}
	loaded := memNode()
	if err := loaded.loadSnapshot(dir); err != nil {
		t.Fatal(err)
	}
	check("loaded from a snapshot", loaded, 5, fences)

	n.compact(50)
	check("after compaction at 50", n, 5, map[uint32]uint64{})
}
