// Command bench pins the repository's performance trajectory: it runs the
// headline retrieval benchmarks — public Search and its prepared-Query
// counterparts, the zero-alloc counting core, SearchBatch, and a live
// three-node cluster scatter-gather — via testing.Benchmark and writes
// the results, together with the threshold pruning statistics of a
// pinned query (local index and cluster) and the prepared-vs-unprepared
// speedup, to a JSON file.
//
// Since issue 6 it also measures the served path: a geodabsd front-end
// on the same live cluster, driven by N concurrent client connections
// over the binary protocol, reporting qps and client-observed p50/p99.
//
// Since issue 7 it also measures the durable write path: ingest into a
// WAL-backed shard node at SyncEvery=1 (fsync per mutation) versus the
// batched group-commit default, quantifying what durability costs and
// what group commit buys back.
//
// Since issue 8 the -macro mode is the scale proof: it ingests on the
// order of a million synthetic trajectories into the in-process sharded
// engine and its one-shard (single-lock) form, verifies their rankings stay
// byte-identical, and reports ingest throughput, closed-loop search qps
// with p50/p99 latency, RSS, and a brute-force linear-scan baseline for
// the speedup headline (see macro.go).
//
// Since issue 9 it also measures the pushed-down exact rerank: the
// cluster is built with point retention (raw points spill to their
// owner nodes at ingest), and a kNN+DTW search that scores its
// shortlist on the shard nodes is compared against a reproduction of
// the pre-pushdown architecture — the coordinator scoring every
// shortlist candidate serially in its own process. The report carries
// the speedup and the nodes' lower-bound skip rate.
//
// Regenerate the committed snapshot with:
//
//	go run ./cmd/bench -macro -out BENCH_9.json
//
// (-macro appends the million-trajectory section to the same report;
// without it only the micro benches run). The workload is deterministic
// (seeded synthetic city), so the numbers move only with the hardware
// and the code.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"geodabs"
	"geodabs/client"

	"geodabs/internal/core"
	"geodabs/internal/gen"
	"geodabs/internal/index"
	"geodabs/internal/roadnet"
	"geodabs/internal/server"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
}

type pruningStats struct {
	MaxDistance float64 `json:"max_distance"`
	KNN         int     `json:"knn"`
	Candidates  int     `json:"candidates"`
	Pruned      int     `json:"pruned"`
	Hits        int     `json:"hits"`
}

// clusterPruningStats quantifies the scatter-gather wire traffic of one
// pinned query: WireBefore partial entries would have crossed the wire
// without node-side pruning, WireAfter actually did (the difference is
// NodePruned, skipped at the shard nodes by the replicated-cardinality
// window before gob serialization).
type clusterPruningStats struct {
	MaxDistance float64 `json:"max_distance"`
	KNN         int     `json:"knn"`
	WireBefore  int     `json:"wire_partials_before"`
	WireAfter   int     `json:"wire_partials_after"`
	NodePruned  int     `json:"node_pruned"`
	Candidates  int     `json:"candidates"`
	Pruned      int     `json:"coordinator_pruned"`
	Hits        int     `json:"hits"`
	Nodes       int     `json:"nodes_touched"`
}

// servedResult is one operating point of the served-workload benchmark:
// conns closed-loop client connections issuing fingerprint searches
// against a geodabsd fronting the live cluster. Latencies are
// client-observed (full protocol round trip), shed counts OVERLOADED
// refusals during the run.
type servedResult struct {
	Conns    int     `json:"conns"`
	Requests int     `json:"requests"`
	QPS      float64 `json:"qps"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	Shed     uint64  `json:"shed"`
}

// durableWriteResult is one operating point of the durable ingest
// benchmark: the full dataset added through a coordinator into one
// WAL-backed shard node. Mode names the fsync policy; TrajPerSec is the
// end-to-end ingest rate, NsPerAdd the per-trajectory latency, Fsyncs
// how many fsync batches the run issued (the group-commit story in one
// number: "batched" covers the same records in far fewer syncs).
type durableWriteResult struct {
	Mode       string  `json:"mode"`
	SyncEvery  int     `json:"sync_every"`
	Trajs      int     `json:"trajectories"`
	TrajPerSec float64 `json:"traj_per_sec"`
	NsPerAdd   float64 `json:"ns_per_add"`
	Fsyncs     uint64  `json:"fsyncs"`
	WALBytes   int64   `json:"wal_bytes"`
}

// rerankResult quantifies the pushed-down exact rerank against the
// architecture it replaced. Pushdown ships the fingerprint shortlist to
// the shard nodes owning the retained points and merges (ID, score)
// pairs; the coordinator baseline reproduces the old design — the same
// fingerprint shortlist, then every candidate scored serially in the
// coordinator process from a local ID→points map. Scored and Skipped
// are the nodes' counters summed over the measured pushdown runs:
// skipped candidates were proved out of the top-k without an exact
// score — by the lower bound, or by a dynamic program abandoned at the
// bar (the JSON key predates the second).
type rerankResult struct {
	Metric             string  `json:"metric"`
	KNN                int     `json:"knn"`
	Shortlist          int     `json:"shortlist"`
	NsPerOpPushdown    float64 `json:"ns_per_op_pushdown"`
	NsPerOpCoordinator float64 `json:"ns_per_op_coordinator_baseline"`
	PushdownSpeedup    float64 `json:"rerank_pushdown_speedup"`
	Scored             uint64  `json:"rerank_scored"`
	Skipped            uint64  `json:"rerank_skipped"`
	SkipRate           float64 `json:"rerank_lb_skip_rate"`
}

type report struct {
	Issue      int    `json:"issue"`
	Regenerate string `json:"regenerate"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workload   string `json:"workload"`
	// PreparedSpeedupSearch is ns/op(Search) ÷ ns/op(SearchPrepared): how
	// much a repeated search gains from a prepared *Query's cached
	// extraction (the issue 5 acceptance bar is ≥ 2×).
	PreparedSpeedupSearch  float64               `json:"prepared_speedup_search"`
	PreparedSpeedupCluster float64               `json:"prepared_speedup_cluster"`
	Benches                []benchResult         `json:"benches"`
	Pruning                []pruningStats        `json:"pruning"`
	ClusterPruning         []clusterPruningStats `json:"cluster_pruning"`
	Served                 []servedResult        `json:"served"`
	DurableWrites          []durableWriteResult  `json:"durable_writes"`
	Rerank                 *rerankResult         `json:"rerank,omitempty"`
	// Macro is the million-trajectory sharded-engine section, present when
	// the run was invoked with -macro (see macro.go).
	Macro *macroReport `json:"macro,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_9.json", "output JSON path")
	servedDur := flag.Duration("served-duration", 1500*time.Millisecond, "duration of each served-workload operating point")
	macro := flag.Bool("macro", false, "also run the million-trajectory macro benchmark")
	macroN := flag.Int("n", 1_000_000, "macro: number of trajectories to ingest")
	macroShards := flag.Int("macro-shards", 0, "macro: shard count (0 = power of two from GOMAXPROCS, min 2)")
	macroDur := flag.Duration("macro-duration", 3*time.Second, "macro: duration of each search operating point")
	macroQueries := flag.Int("macro-queries", 64, "macro: held-out query pool size")
	flag.Parse()

	city, err := roadnet.GenerateCity(roadnet.CityConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	cfg := gen.DefaultConfig()
	cfg.Routes = 50
	cfg.Seed = 7
	workload, err := gen.Generate(city, cfg)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := idx.AddAll(workload.Dataset, 8); err != nil {
		log.Fatal(err)
	}
	queries := workload.Queries
	q := queries[0]

	var results []benchResult
	nsOf := func(name string) float64 {
		for _, r := range results {
			if r.Name == name {
				return r.NsPerOp
			}
		}
		log.Fatalf("benchmark %q not recorded", name)
		return 0
	}
	record := func(name string, r testing.BenchmarkResult) {
		results = append(results, benchResult{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			Ops:         r.N,
		})
		fmt.Printf("%-24s %12.0f ns/op %8d B/op %6d allocs/op\n",
			name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	record("Search", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.Search(ctx, q, geodabs.WithMaxDistance(1), geodabs.WithLimit(10)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The same search over a prepared *Query: extraction runs once at
	// preparation, every iteration reuses the cached term set. The ratio
	// to Search above is the headline number of the Query redesign.
	pq := geodabs.NewQuery(q.Points)
	if _, err := idx.SearchQuery(ctx, pq); err != nil { // warm the cache
		log.Fatal(err)
	}
	record("SearchPrepared", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := idx.SearchQuery(ctx, pq, geodabs.WithMaxDistance(1), geodabs.WithLimit(10)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The prepared batch: the recurring-query-set steady state, where the
	// whole batch reuses cached extractions across repeats.
	prepared := make([]*geodabs.Query, len(queries))
	for i, tr := range queries {
		prepared[i] = geodabs.NewQuery(tr.Points)
	}
	if _, err := idx.SearchQueryBatch(ctx, prepared, 8, geodabs.WithLimit(10)); err != nil {
		log.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		record(fmt.Sprintf("SearchBatchPrepared/w%d", workers), testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := idx.SearchQueryBatch(ctx, prepared, workers, geodabs.WithLimit(10)); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// The counting core alone: pre-extracted query set, recycled result
	// buffer — the allocation-free steady state.
	cf := core.MustFingerprinter(core.DefaultConfig())
	inv := index.NewSharded(index.GeodabExtractor{Fingerprinter: cf}, 1)
	if err := inv.AddAll(ctx, workload.Dataset, 8); err != nil {
		log.Fatal(err)
	}
	set := cf.FingerprintSet(q.Points)
	qc := set.Cardinality()
	record("SearchCore", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]index.Result, 0, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out, _, err := inv.AppendSearchSet(ctx, buf[:0], set, qc, 1, 10)
			if err != nil {
				b.Fatal(err)
			}
			buf = out[:0]
		}
	}))

	for _, workers := range []int{1, 8} {
		record(fmt.Sprintf("SearchBatch/w%d", workers), testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := idx.SearchBatch(ctx, queries, workers, geodabs.WithLimit(10)); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// A live three-node cluster on loopback: the scatter-gather inherits
	// the counting core through the shard nodes' query handlers, and the
	// nodes threshold-prune with the replicated cardinalities before
	// serializing their partials.
	const nodes = 3
	strategy := geodabs.ShardStrategy{PrefixBits: 16, Shards: 256, Nodes: nodes}
	addrs := make([]string, nodes)
	for i := range addrs {
		n, err := geodabs.StartShardNode("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		addrs[i] = n.Addr()
	}
	cl, err := geodabs.NewCluster(geodabs.DefaultConfig(), strategy, addrs,
		geodabs.WithPointRetention())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	for _, t := range workload.Dataset.Trajectories {
		if err := cl.Add(t); err != nil {
			log.Fatal(err)
		}
	}
	record("ClusterSearch", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Search(ctx, q, geodabs.WithMaxDistance(1), geodabs.WithLimit(10)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The same scatter-gather under a tight distance bound, where the
	// node-side cardinality window does real work: fewer partials are
	// gob-encoded, shipped and merged.
	record("ClusterSearchPruned", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Search(ctx, q, geodabs.WithMaxDistance(0.5), geodabs.WithKNN(5)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The prepared scatter-gather: the *Query's cached extraction and
	// per-shard term partition take both the fingerprint pipeline and the
	// per-node grouping off the scatter path.
	cpq := geodabs.NewQuery(q.Points)
	if _, err := cl.SearchQuery(ctx, cpq); err != nil { // warm both caches
		log.Fatal(err)
	}
	record("ClusterSearchPrepared", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.SearchQuery(ctx, cpq, geodabs.WithMaxDistance(1), geodabs.WithLimit(10)); err != nil {
				b.Fatal(err)
			}
		}
	}))

	// The pushed-down exact rerank versus the architecture it replaced.
	// Pushdown: the top k×8 fingerprint shortlist ships to the owner
	// nodes, DTW runs node-side against the top-k bar, (ID, score)
	// pairs come back. Coordinator baseline: the same shortlist, every
	// candidate scored serially in this process from a local ID→points
	// map — the pre-pushdown coordinator-retention design. The nodes'
	// scored/skipped counter deltas over the measured pushdown runs give
	// the skip rate.
	const rerankK = 10
	statsBefore, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	record("ClusterRerankPushdown", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Search(ctx, q, geodabs.WithKNN(rerankK), geodabs.WithExactRerank(geodabs.DTW)); err != nil {
				b.Fatal(err)
			}
		}
	}))
	statsAfter, err := cl.Stats()
	if err != nil {
		log.Fatal(err)
	}
	var rerankScored, rerankSkipped uint64
	for i := range statsAfter {
		rerankScored += statsAfter[i].RerankScored - statsBefore[i].RerankScored
		rerankSkipped += statsAfter[i].RerankSkipped - statsBefore[i].RerankSkipped
	}
	ptsByID := make(map[geodabs.ID][]geodabs.Point, len(workload.Dataset.Trajectories))
	for _, t := range workload.Dataset.Trajectories {
		ptsByID[t.ID] = t.Points
	}
	record("ClusterRerankCoordinator", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := cl.Search(ctx, q, geodabs.WithLimit(rerankK*8))
			if err != nil {
				b.Fatal(err)
			}
			hits := res.Hits
			for j := range hits {
				hits[j].Distance = geodabs.DTW(q.Points, ptsByID[hits[j].ID])
			}
			sort.Slice(hits, func(a, b int) bool {
				if hits[a].Distance != hits[b].Distance {
					return hits[a].Distance < hits[b].Distance
				}
				return hits[a].ID < hits[b].ID
			})
			if len(hits) > rerankK {
				hits = hits[:rerankK]
			}
		}
	}))
	rerank := &rerankResult{
		Metric:             "dtw",
		KNN:                rerankK,
		Shortlist:          rerankK * 8,
		NsPerOpPushdown:    nsOf("ClusterRerankPushdown"),
		NsPerOpCoordinator: nsOf("ClusterRerankCoordinator"),
		PushdownSpeedup:    nsOf("ClusterRerankCoordinator") / nsOf("ClusterRerankPushdown"),
		Scored:             rerankScored,
		Skipped:            rerankSkipped,
	}
	if total := rerankScored + rerankSkipped; total > 0 {
		rerank.SkipRate = float64(rerankSkipped) / float64(total)
	}
	fmt.Printf("rerank pushdown speedup: %.2fx  skip rate: %.1f%% (%d skipped of %d shortlist candidates)\n",
		rerank.PushdownSpeedup, 100*rerank.SkipRate, rerankSkipped, rerankScored+rerankSkipped)

	// The served workload: a geodabsd front-end on the live cluster,
	// driven closed-loop by N concurrent client connections shipping the
	// pinned query's fingerprint (the thin-client path). Latency is the
	// full client-observed round trip: framing, admission, scatter-gather,
	// response decode.
	srv, err := server.Listen("127.0.0.1:0", cl, server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fper, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	qfp := fper.Fingerprint(q.Points)
	var served []servedResult
	for _, conns := range []int{1, 8, 32} {
		r, err := runServed(ctx, srv, qfp, conns, *servedDur)
		if err != nil {
			log.Fatal(err)
		}
		served = append(served, r)
		fmt.Printf("served conns=%-3d %8.0f qps  p50=%.2fms p99=%.2fms  shed=%d\n",
			r.Conns, r.QPS, r.P50MS, r.P99MS, r.Shed)
	}

	// The durable write path: the whole dataset ingested by 8 concurrent
	// writers through a coordinator into one WAL-backed shard node. At
	// SyncEvery=1 every mutation is fsynced before its ack, but group
	// commit folds concurrent appenders into shared syncs; the batched
	// policy (SyncEvery=256 + 50ms flusher) acks after the buffered write
	// and trades a bounded loss window for throughput.
	var durableWrites []durableWriteResult
	for _, pt := range []struct {
		mode      string
		syncEvery int
	}{{"every-record", 1}, {"batched", 256}} {
		r, err := runDurableWrites(workload.Dataset.Trajectories, pt.mode, pt.syncEvery)
		if err != nil {
			log.Fatal(err)
		}
		durableWrites = append(durableWrites, r)
		fmt.Printf("durable %-12s %8.0f traj/s  %10.0f ns/add  fsyncs=%d  wal=%dB\n",
			r.Mode, r.TrajPerSec, r.NsPerAdd, r.Fsyncs, r.WALBytes)
	}

	// Pruning statistics of pinned queries: how much of the candidate set
	// the threshold bounds discard before scoring.
	var pruning []pruningStats
	points := []struct {
		maxDistance float64
		knn         int
	}{{0.5, 5}, {0.9, 10}, {1, 10}}
	for _, p := range points {
		res, err := idx.Search(ctx, q, geodabs.WithMaxDistance(p.maxDistance), geodabs.WithKNN(p.knn))
		if err != nil {
			log.Fatal(err)
		}
		pruning = append(pruning, pruningStats{
			MaxDistance: p.maxDistance,
			KNN:         p.knn,
			Candidates:  res.Stats.Candidates,
			Pruned:      res.Stats.Pruned,
			Hits:        len(res.Hits),
		})
		fmt.Printf("pruning maxDist=%.2f k=%-3d candidates=%d pruned=%d hits=%d\n",
			p.maxDistance, p.knn, res.Stats.Candidates, res.Stats.Pruned, len(res.Hits))
	}

	// The same operating points on the cluster: wire partials before and
	// after node-side pruning (before = shipped + node-pruned, exact
	// because the window is the only node-side candidate filter).
	var clusterPruning []clusterPruningStats
	for _, p := range points {
		res, err := cl.Search(ctx, q, geodabs.WithMaxDistance(p.maxDistance), geodabs.WithKNN(p.knn))
		if err != nil {
			log.Fatal(err)
		}
		s := res.Stats
		clusterPruning = append(clusterPruning, clusterPruningStats{
			MaxDistance: p.maxDistance,
			KNN:         p.knn,
			WireBefore:  s.WirePartials + s.NodePruned,
			WireAfter:   s.WirePartials,
			NodePruned:  s.NodePruned,
			Candidates:  s.Candidates,
			Pruned:      s.Pruned,
			Hits:        len(res.Hits),
			Nodes:       s.NodesTouched,
		})
		fmt.Printf("cluster maxDist=%.2f k=%-3d wire=%d→%d nodePruned=%d candidates=%d pruned=%d hits=%d\n",
			p.maxDistance, p.knn, s.WirePartials+s.NodePruned, s.WirePartials, s.NodePruned,
			s.Candidates, s.Pruned, len(res.Hits))
	}

	rep := report{
		Issue:                  9,
		Regenerate:             "go run ./cmd/bench -macro -out BENCH_9.json",
		GoVersion:              runtime.Version(),
		GOMAXPROCS:             runtime.GOMAXPROCS(0),
		Workload:               "synthetic city seed 7, 50 routes, default fingerprint config",
		PreparedSpeedupSearch:  nsOf("Search") / nsOf("SearchPrepared"),
		PreparedSpeedupCluster: nsOf("ClusterSearch") / nsOf("ClusterSearchPrepared"),
		Benches:                results,
		Pruning:                pruning,
		ClusterPruning:         clusterPruning,
		Served:                 served,
		DurableWrites:          durableWrites,
		Rerank:                 rerank,
	}
	fmt.Printf("prepared speedup: search %.2fx, cluster %.2fx\n",
		rep.PreparedSpeedupSearch, rep.PreparedSpeedupCluster)

	if *macro {
		m := runMacro(*macroN, *macroShards, *macroQueries, *macroDur)
		rep.Macro = &m
	}
	writeReport(rep, *out)
}

// writeReport marshals rep to indented JSON and writes it to path.
func writeReport(rep report, path string) {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// runDurableWrites ingests trajs from 8 concurrent writers through a
// fresh coordinator into a fresh WAL-backed shard node (temp dir,
// removed afterwards) under the given fsync policy and reports the
// ingest rate and the WAL's fsync and size counters.
func runDurableWrites(trajs []*geodabs.Trajectory, mode string, syncEvery int) (durableWriteResult, error) {
	dir, err := os.MkdirTemp("", "geodabs-bench-wal-*")
	if err != nil {
		return durableWriteResult{}, err
	}
	defer os.RemoveAll(dir)
	opts := []geodabs.NodeOption{
		geodabs.WithWALDir(dir),
		geodabs.WithSnapshotBytes(-1),
		geodabs.WithWALSync(syncEvery, 50*time.Millisecond),
	}
	n, err := geodabs.StartShardNode("127.0.0.1:0", opts...)
	if err != nil {
		return durableWriteResult{}, err
	}
	defer n.Close()
	const workers = 8
	strategy := geodabs.ShardStrategy{PrefixBits: 16, Shards: 256, Nodes: 1}
	cl, err := geodabs.NewCluster(geodabs.DefaultConfig(), strategy, []string{n.Addr()},
		geodabs.WithConnsPerNode(workers))
	if err != nil {
		return durableWriteResult{}, err
	}
	defer cl.Close()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(trajs); i += workers {
				if err := cl.Add(trajs[i]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return durableWriteResult{}, err
	default:
	}
	stats, err := cl.Stats()
	if err != nil {
		return durableWriteResult{}, err
	}
	return durableWriteResult{
		Mode:       mode,
		SyncEvery:  syncEvery,
		Trajs:      len(trajs),
		TrajPerSec: float64(len(trajs)) / elapsed.Seconds(),
		NsPerAdd:   float64(elapsed.Nanoseconds()) / float64(len(trajs)),
		Fsyncs:     stats[0].WALSyncs,
		WALBytes:   stats[0].WALBytes,
	}, nil
}

// runServed drives the server closed-loop from conns client connections
// for roughly dur, each issuing the pinned fingerprint search
// back-to-back, and reports throughput and client-observed latency
// quantiles.
func runServed(ctx context.Context, srv *server.Server, fp *geodabs.Fingerprint, conns int, dur time.Duration) (servedResult, error) {
	shedBefore := srv.Metrics().Shed()
	var mu sync.Mutex
	var lats []time.Duration
	var firstErr error
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One connection per worker: WithPoolSize(1) pins the pool so
			// the closed loop measures per-connection round trips.
			cc, err := client.Dial(srv.Addr(), client.WithPoolSize(1))
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			defer cc.Close()
			var local []time.Duration
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if _, err := cc.SearchFingerprint(ctx, fp, client.WithMaxDistance(1), client.WithLimit(10)); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return servedResult{}, firstErr
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	quantile := func(q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(q * float64(len(lats)-1))
		return float64(lats[i].Microseconds()) / 1000
	}
	return servedResult{
		Conns:    conns,
		Requests: len(lats),
		QPS:      float64(len(lats)) / elapsed.Seconds(),
		P50MS:    quantile(0.50),
		P99MS:    quantile(0.99),
		Shed:     srv.Metrics().Shed() - shedBefore,
	}, nil
}
