// Command geodabs is the command-line interface to the library: generate
// synthetic datasets, inspect and query indexes, and run shard-node
// servers.
//
// Usage:
//
//	geodabs gen    -out DIR [-routes N] [-seed N]     generate a dataset
//	geodabs stats  -data FILE [-in SNAP] [-upsert]    index a dataset, print stats
//	geodabs stats  -nodes A,B [-replicas R1|R2,R3]    print live cluster stats (epochs, WAL, replica lag)
//	geodabs query  -data FILE -queries FILE [-q N]    run a ranked query
//	geodabs delete -snapshot FILE ID...               delete trajectories from a snapshot
//	geodabs serve  -addr HOST:PORT [-wal-dir DIR]     run a shard node (durable with -wal-dir,
//	               [-replica-of HOST:PORT]            a read replica with -replica-of)
//
// Remote subcommands speak to a geodabsd service (see cmd/geodabsd)
// instead of a local index:
//
//	geodabs remote-query  -addr HOST:PORT -queries FILE [-q N]   query a geodabsd
//	geodabs remote-upsert -addr HOST:PORT -data FILE             upsert a dataset into a geodabsd
//	geodabs remote-delete -addr HOST:PORT ID...                  delete trajectories from a geodabsd
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"geodabs"
	"geodabs/client"
	"geodabs/internal/cluster"
	"geodabs/internal/trajectory"
	"geodabs/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "geodabs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return usageError()
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "stats":
		return cmdStats(args[1:])
	case "query":
		return cmdQuery(args[1:])
	case "delete":
		return cmdDelete(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "remote-query":
		return cmdRemoteQuery(args[1:])
	case "remote-upsert":
		return cmdRemoteUpsert(args[1:])
	case "remote-delete":
		return cmdRemoteDelete(args[1:])
	default:
		return usageError()
	}
}

func usageError() error {
	return fmt.Errorf("usage: geodabs <gen|stats|query|delete|serve|remote-query|remote-upsert|remote-delete> [flags]")
}

// cmdGen generates a synthetic dataset with held-out queries and ground
// truth, mirroring the paper's evaluation data (§VI-A1).
func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("out", "data", "output directory")
	routes := fs.Int("routes", 100, "number of routes (paper: 5000)")
	perDir := fs.Int("per-direction", 10, "trajectories per direction")
	seed := fs.Int64("seed", 1, "random seed")
	geojson := fs.Bool("geojson", false, "also write dataset.geojson for GIS tools")
	if err := fs.Parse(args); err != nil {
		return err
	}
	city, err := geodabs.GenerateCity(geodabs.CityConfig{Seed: *seed})
	if err != nil {
		return err
	}
	cfg := geodabs.DefaultDatasetConfig()
	cfg.Routes = *routes
	cfg.TrajectoriesPerDirection = *perDir
	cfg.Seed = *seed
	data, err := geodabs.GenerateDataset(city, cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	if err := writeDataset(filepath.Join(*out, "dataset.bin"), data.Dataset); err != nil {
		return err
	}
	queries := &geodabs.Dataset{Trajectories: data.Queries}
	if err := writeDataset(filepath.Join(*out, "queries.bin"), queries); err != nil {
		return err
	}
	if err := writeTruth(filepath.Join(*out, "truth.csv"), data); err != nil {
		return err
	}
	if *geojson {
		f, err := os.Create(filepath.Join(*out, "dataset.geojson"))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := geodabs.WriteGeoJSON(f, data.Dataset); err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	fmt.Printf("wrote %d trajectories, %d queries to %s\n",
		data.Dataset.Len(), len(data.Queries), *out)
	return nil
}

func writeDataset(path string, d *geodabs.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trajectory.WriteDataset(f, d); err != nil {
		return err
	}
	return f.Close()
}

func readDataset(path string) (*geodabs.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trajectory.ReadDataset(f)
}

func writeTruth(path string, data *geodabs.DatasetOutput) error {
	var sb strings.Builder
	sb.WriteString("query_id,relevant_ids\n")
	for _, q := range data.Queries {
		ids := data.Relevant[q.ID]
		parts := make([]string, len(ids))
		for i, id := range ids {
			parts[i] = strconv.FormatUint(uint64(id), 10)
		}
		fmt.Fprintf(&sb, "%d,%s\n", q.ID, strings.Join(parts, " "))
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// cmdStats indexes a dataset and prints the index composition,
// optionally snapshotting the built index for later queries. With -in it
// starts from an existing snapshot instead of empty, and with -upsert
// the ingest replaces trajectories whose IDs are already indexed instead
// of failing on duplicates — together they make a refresh pipeline:
// load, upsert the new batch, snapshot.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	dataPath := fs.String("data", "data/dataset.bin", "dataset file")
	workers := fs.Int("workers", 8, "parallel fingerprinting workers")
	snapshot := fs.String("snapshot", "", "write the built index to this file (load with query -snapshot)")
	in := fs.String("in", "", "start from this index snapshot instead of an empty index")
	upsert := fs.Bool("upsert", false, "replace already-indexed IDs instead of failing on duplicates")
	nodes := fs.String("nodes", "", "comma-separated shard node addresses: print cluster stats instead of indexing")
	replicas := fs.String("replicas", "", "per-node read replica addresses, groups comma-separated matching -nodes, members |-separated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes != "" {
		return clusterStats(*nodes, *replicas)
	}
	if *replicas != "" {
		return fmt.Errorf("stats: -replicas requires -nodes")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	d, err := readDataset(*dataPath)
	if err != nil {
		return err
	}
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		return err
	}
	if *in != "" {
		if err := loadSnapshot(idx, *in); err != nil {
			return err
		}
	}
	start := time.Now()
	if *upsert {
		for _, tr := range d.Trajectories {
			if err := idx.Upsert(ctx, tr); err != nil {
				return err
			}
		}
	} else if err := idx.AddAllContext(ctx, d, *workers); err != nil {
		return err
	}
	elapsed := time.Since(start)
	s := idx.Stats()
	fmt.Printf("trajectories: %d\n", s.Trajectories)
	fmt.Printf("points:       %d\n", d.TotalPoints())
	fmt.Printf("terms:        %d\n", s.Terms)
	fmt.Printf("postings:     %d\n", s.Postings)
	fmt.Printf("bitmap bytes: %d\n", s.BitmapBytes)
	fmt.Printf("build time:   %v (%d workers)\n", elapsed.Round(time.Millisecond), *workers)
	if *snapshot != "" {
		n, err := writeSnapshot(idx, *snapshot)
		if err != nil {
			return err
		}
		fmt.Printf("snapshot:     %s (%d bytes)\n", *snapshot, n)
	}
	return nil
}

// loadSnapshot replaces idx's contents with the index snapshot at path.
func loadSnapshot(idx *geodabs.Index, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	_, err = idx.ReadFrom(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshot writes idx to path through a sibling temp file that is
// synced, closed and then renamed over path, so a failed or interrupted
// write never truncates the snapshot already there. The directory is
// synced after the rename, so the new snapshot survives a crash.
func writeSnapshot(idx *geodabs.Index, path string) (int64, error) {
	w, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	n, err := idx.WriteTo(w)
	if err == nil {
		err = w.Chmod(0o644) // CreateTemp's 0600 would hide the snapshot from other readers
	}
	if err == nil {
		err = w.Sync()
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(w.Name(), path)
	}
	if err != nil {
		os.Remove(w.Name())
		return 0, err
	}
	if err := wal.SyncDir(filepath.Dir(path)); err != nil {
		return 0, err
	}
	return n, nil
}

// clusterStats dials the given shard nodes (and, optionally, their read
// replicas) and prints each node's index composition and durability
// state: mutation epochs, write-ahead log size and fsync counters, and
// per-replica lag.
func clusterStats(nodeSpec, replicaSpec string) error {
	addrs := strings.Split(nodeSpec, ",")
	cfg := geodabs.DefaultConfig()
	reps, err := cluster.ParseReplicas(replicaSpec, len(addrs))
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	var opts []geodabs.Option
	if reps != nil {
		opts = append(opts, geodabs.WithReadReplicas(reps))
	}
	strategy := geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: 10000, Nodes: len(addrs)}
	cl, err := geodabs.NewCluster(cfg, strategy, addrs, opts...)
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	stats, err := cl.StatsContext(ctx)
	if err != nil {
		return err
	}
	for i, s := range stats {
		fmt.Printf("node %d (%s):\n", s.Node, addrs[i])
		fmt.Printf("  terms=%d postings=%d docs=%d tombstones=%d\n", s.Terms, s.Postings, s.Docs, s.Tombstones)
		fmt.Printf("  epoch=%d stable=%d\n", s.Epoch, s.StableEpoch)
		if s.WALSegments > 0 {
			fmt.Printf("  wal: %d bytes in %d segments, %d records, %d fsyncs (last %v)\n",
				s.WALBytes, s.WALSegments, s.WALRecords, s.WALSyncs, s.WALLastSync.Round(time.Microsecond))
		}
		if s.FullSyncs > 0 || s.Subscribers > 0 {
			fmt.Printf("  replication: %d full syncs served, %d live subscribers\n", s.FullSyncs, s.Subscribers)
		}
		if s.RetainedDocs > 0 || s.RerankScored > 0 || s.RerankSkipped > 0 {
			fmt.Printf("  retained points: %d trajectories, %d points (%d bytes)\n",
				s.RetainedDocs, s.RetainedPoints, s.RetainedBytes)
			fmt.Printf("  rerank: %d candidates scored, %d proved out of the top-k unscored (chord-cost bound or abandoned at the bar)\n",
				s.RerankScored, s.RerankSkipped)
		}
		for _, r := range s.Replicas {
			if r.Err != "" {
				fmt.Printf("  replica %s: unreachable (%s)\n", r.Addr, r.Err)
				continue
			}
			fmt.Printf("  replica %s: stable=%d lag=%d full-syncs=%d\n", r.Addr, r.StableEpoch, r.EpochLag, r.FullSyncs)
		}
	}
	return nil
}

// rerankMetrics maps each -rerank name to its exact metric, for a
// local index and over the wire.
var rerankMetrics = map[string]struct {
	local  geodabs.RerankMetric
	remote client.Metric
}{
	"dtw": {geodabs.DTW, client.DTW},
	"dfd": {geodabs.DFD, client.DFD},
}

// searchFlags are the ranking flags query and remote-query share.
type searchFlags struct {
	limit   int
	maxDist float64
	rerank  string
}

func addSearchFlags(fs *flag.FlagSet, rerankUsage string) *searchFlags {
	f := &searchFlags{}
	fs.IntVar(&f.limit, "limit", 10, "return the N nearest trajectories (0 = unlimited)")
	fs.Float64Var(&f.maxDist, "max-distance", 0.99, "Jaccard distance cutoff Δmax")
	fs.StringVar(&f.rerank, "rerank", "", rerankUsage)
	return f
}

// check validates the parsed flags for both subcommands, before any
// work. A negative -limit means no cap, like 0.
func (f *searchFlags) check() error {
	f.limit = max(f.limit, 0)
	if _, ok := rerankMetrics[f.rerank]; f.rerank != "" && !ok {
		return fmt.Errorf("unknown rerank metric %q (want dtw or dfd)", f.rerank)
	}
	return nil
}

// options translates the flags to Search options; rerank adds -rerank's.
func (f *searchFlags) options(rerank bool) []geodabs.SearchOption {
	opts := []geodabs.SearchOption{geodabs.WithMaxDistance(f.maxDist)}
	if f.limit > 0 {
		opts = append(opts, geodabs.WithKNN(f.limit))
	}
	if rerank && f.rerank != "" {
		opts = append(opts, geodabs.WithExactRerank(rerankMetrics[f.rerank].local))
	}
	return opts
}

// clientOptions translates the flags to a geodabsd search's options.
func (f *searchFlags) clientOptions() []client.SearchOption {
	opts := []client.SearchOption{client.WithMaxDistance(f.maxDist), client.WithKNN(f.limit)}
	if f.rerank != "" {
		opts = append(opts, client.WithExactRerank(rerankMetrics[f.rerank].remote))
	}
	return opts
}

// cmdQuery runs a held-out query (or, with -all, the whole query batch)
// against a dataset and prints the ranked results. Queries run prepared
// (geodabs.NewQuery + SearchQuery): with -rerank the fingerprint
// shortlist and the exact rerank share one cached extraction, and -all
// stages the whole batch before the timed SearchQueryBatch.
func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	dataPath := fs.String("data", "data/dataset.bin", "dataset file")
	queryPath := fs.String("queries", "data/queries.bin", "queries file")
	qn := fs.Int("q", 0, "query number within the queries file")
	search := addSearchFlags(fs, "exactly re-rank candidates: dtw or dfd (meters)")
	all := fs.Bool("all", false, "run every query as a parallel batch and report throughput")
	workers := fs.Int("workers", 8, "parallel workers (indexing, -all batches)")
	snapshot := fs.String("snapshot", "", "load the index from this snapshot instead of re-indexing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := search.check(); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// With a snapshot the dataset only annotates hits; tolerate its
	// absence (d stays nil, and hits print as "(not in -data file)") but
	// surface any other failure, e.g. a corrupt file or a typo'd path.
	d, err := readDataset(*dataPath)
	if err != nil && (*snapshot == "" || !os.IsNotExist(err)) {
		return err
	}
	queries, err := readDataset(*queryPath)
	if err != nil {
		return err
	}
	if !*all && (*qn < 0 || *qn >= queries.Len()) {
		return fmt.Errorf("query %d out of range [0, %d)", *qn, queries.Len())
	}
	opts := search.options(true)
	// Exact re-ranking needs the raw points, which retention keeps;
	// plain fingerprint queries skip that memory cost. A snapshot holds
	// no points, so a loaded index cannot re-rank either way.
	var iopts []geodabs.Option
	if search.rerank != "" && *snapshot == "" {
		iopts = append(iopts, geodabs.WithPointRetention())
	}
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig(), iopts...)
	if err != nil {
		return err
	}
	if *snapshot != "" {
		err = loadSnapshot(idx, *snapshot)
	} else {
		err = idx.AddAllContext(ctx, d, *workers)
	}
	if err != nil {
		return err
	}
	if *all {
		// Prepare the whole batch up front: extraction runs once per query
		// here, off the measured search path, and the batch (or a repeat of
		// it) reuses the cached term sets.
		prepared := make([]*geodabs.Query, queries.Len())
		for i, tr := range queries.Trajectories {
			prepared[i] = geodabs.NewQuery(tr.Points)
		}
		start := time.Now()
		results, err := idx.SearchQueryBatch(ctx, prepared, *workers, opts...)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		hits := 0
		for _, r := range results {
			hits += len(r.Hits)
		}
		fmt.Printf("%d queries on %d workers in %v (%.0f queries/s), %d hits\n",
			len(results), *workers, elapsed.Round(time.Millisecond),
			float64(len(results))/elapsed.Seconds(), hits)
		return nil
	}
	q := queries.Trajectories[*qn]
	pq := geodabs.NewQuery(q.Points)
	if search.rerank != "" {
		// The rerank run below reuses the prepared query's cached
		// extraction: the fingerprint shortlist here costs one search, not
		// a second pipeline pass.
		fpRes, err := idx.SearchQuery(ctx, pq, search.options(false)...)
		if err != nil {
			return err
		}
		fmt.Printf("fingerprint ranking: %d results from %d candidates in %v (before %s rerank)\n",
			len(fpRes.Hits), fpRes.Stats.Candidates, fpRes.Stats.Elapsed.Round(time.Microsecond), search.rerank)
	}
	res, err := idx.SearchQuery(ctx, pq, opts...)
	if err != nil {
		return err
	}
	fmt.Printf("query %d: route %d (%s), %d points — %d results from %d candidates in %v\n",
		q.ID, q.Route, q.Dir, q.Len(), len(res.Hits), res.Stats.Candidates,
		res.Stats.Elapsed.Round(time.Microsecond))
	unit := "dJ"
	if search.rerank != "" {
		unit = search.rerank + " m"
	}
	for i, r := range res.Hits {
		// A mismatched or data-less -snapshot can rank IDs that are not
		// resolvable through the -data file.
		desc := "(not in -data file)"
		if d != nil {
			if tr := d.ByID(r.ID); tr != nil {
				desc = fmt.Sprintf("route %d (%s)", tr.Route, tr.Dir)
			}
		}
		fmt.Printf("%2d. trajectory %5d  %s=%.3f  shared=%3d  %s\n",
			i+1, r.ID, unit, r.Distance, r.Shared, desc)
	}
	return nil
}

// cmdDelete removes trajectories from an index snapshot: load, delete
// the IDs given as arguments (reclaiming their postings), write the
// snapshot back.
func cmdDelete(args []string) error {
	fs := flag.NewFlagSet("delete", flag.ContinueOnError)
	snapshot := fs.String("snapshot", "", "index snapshot to mutate (required)")
	out := fs.String("out", "", "write the mutated snapshot here (default: overwrite -snapshot)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot == "" {
		return fmt.Errorf("delete: -snapshot is required")
	}
	if len(fs.Args()) == 0 {
		return fmt.Errorf("delete: no trajectory IDs given")
	}
	ids := make([]geodabs.ID, 0, len(fs.Args()))
	for _, arg := range fs.Args() {
		v, err := strconv.ParseUint(arg, 10, 32)
		if err != nil {
			return fmt.Errorf("delete: bad trajectory ID %q: %w", arg, err)
		}
		ids = append(ids, geodabs.ID(v))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		return err
	}
	if err := loadSnapshot(idx, *snapshot); err != nil {
		return err
	}
	before := idx.Stats()
	deleted, err := idx.DeleteAll(ctx, ids, 1)
	if err != nil {
		return err
	}
	after := idx.Stats()
	if *out == "" {
		*out = *snapshot
	}
	if _, err := writeSnapshot(idx, *out); err != nil {
		return err
	}
	fmt.Printf("deleted %d of %d trajectories (%d unknown), postings %d → %d, wrote %s\n",
		deleted, len(ids), len(ids)-deleted, before.Postings, after.Postings, *out)
	return nil
}

// cmdRemoteQuery runs a held-out query against a geodabsd service. By
// default it winnows locally and ships only the fingerprint (the
// thin-client path); -raw ships the raw points for server-side
// winnowing instead. -rerank dtw|dfd asks the server for the exact
// refinement (SEARCH_RERANK) — that always ships raw points, since the
// exact metrics compare trajectories, not term sets.
func cmdRemoteQuery(args []string) error {
	fs := flag.NewFlagSet("remote-query", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "geodabsd address")
	queryPath := fs.String("queries", "data/queries.bin", "queries file")
	qn := fs.Int("q", 0, "query number within the queries file")
	search := addSearchFlags(fs, "exactly re-rank candidates server-side: dtw or dfd (meters; implies raw points)")
	raw := fs.Bool("raw", false, "ship raw points instead of a locally winnowed fingerprint")
	timeout := fs.Duration("timeout", 5*time.Second, "request deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := search.check(); err != nil {
		return err
	}
	queries, err := readDataset(*queryPath)
	if err != nil {
		return err
	}
	if *qn < 0 || *qn >= queries.Len() {
		return fmt.Errorf("query %d out of range [0, %d)", *qn, queries.Len())
	}
	q := queries.Trajectories[*qn]
	opts := search.clientOptions()
	cl, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	var res *client.Result
	if *raw || search.rerank != "" {
		// Rerank needs the query's raw points server-side: the exact
		// metrics compare trajectories, not term sets.
		res, err = cl.Search(ctx, q.Points, opts...)
	} else {
		// The thin-client split: run the geodab pipeline locally so only
		// the fingerprint's term set crosses the wire.
		f, ferr := geodabs.NewFingerprinter(geodabs.DefaultConfig())
		if ferr != nil {
			return ferr
		}
		res, err = cl.SearchFingerprint(ctx, f.Fingerprint(q.Points), opts...)
	}
	if err != nil {
		return err
	}
	fmt.Printf("query %d: %d points — %d results from %d candidates in %v (server), %d/%d shards/nodes\n",
		q.ID, q.Len(), len(res.Hits), res.Stats.Candidates, res.Stats.Elapsed.Round(time.Microsecond),
		res.Stats.Shards, res.Stats.Nodes)
	unit := "dJ"
	if search.rerank != "" {
		unit = search.rerank + " m"
	}
	for i, r := range res.Hits {
		fmt.Printf("%2d. trajectory %5d  %s=%.3f  shared=%3d\n", i+1, r.ID, unit, r.Distance, r.Shared)
	}
	return nil
}

// cmdRemoteUpsert streams a dataset into a geodabsd service.
func cmdRemoteUpsert(args []string) error {
	fs := flag.NewFlagSet("remote-upsert", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "geodabsd address")
	dataPath := fs.String("data", "data/dataset.bin", "dataset file")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := readDataset(*dataPath)
	if err != nil {
		return err
	}
	cl, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	start := time.Now()
	for _, tr := range d.Trajectories {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		err := cl.Upsert(ctx, tr)
		cancel()
		if err != nil {
			return fmt.Errorf("upsert %d: %w", tr.ID, err)
		}
	}
	fmt.Printf("upserted %d trajectories in %v\n", d.Len(), time.Since(start).Round(time.Millisecond))
	return nil
}

// cmdRemoteDelete deletes the given trajectory IDs from a geodabsd
// service.
func cmdRemoteDelete(args []string) error {
	fs := flag.NewFlagSet("remote-delete", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "geodabsd address")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(fs.Args()) == 0 {
		return fmt.Errorf("remote-delete: no trajectory IDs given")
	}
	cl, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	deleted := 0
	for _, arg := range fs.Args() {
		v, err := strconv.ParseUint(arg, 10, 32)
		if err != nil {
			return fmt.Errorf("remote-delete: bad trajectory ID %q: %w", arg, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		err = cl.Delete(ctx, geodabs.ID(v))
		cancel()
		switch {
		case err == nil:
			deleted++
		case errors.Is(err, client.ErrNotFound):
			fmt.Printf("trajectory %d not indexed\n", v)
		default:
			return err
		}
	}
	fmt.Printf("deleted %d of %d trajectories\n", deleted, len(fs.Args()))
	return nil
}

// cmdServe runs a shard node until interrupted. With -wal-dir the node
// is durable (write-ahead logged, snapshot-compacted, crash-recoverable);
// with -replica-of it is a read replica tailing the given primary. The
// two are mutually exclusive — replicas rebuild from their primary, not
// from a log of their own.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7070", "listen address")
	walDir := fs.String("wal-dir", "", "write-ahead log directory (enables durability)")
	replicaOf := fs.String("replica-of", "", "run as a read replica of the primary at this address")
	syncEvery := fs.Int("wal-sync-every", 0, "fsync after this many WAL records (0 = library default)")
	syncInterval := fs.Duration("wal-sync-interval", 0, "fsync after this long with unsynced WAL records (0 = library default)")
	segmentBytes := fs.Int64("wal-segment-bytes", 0, "roll WAL segments at this size (0 = library default)")
	snapshotBytes := fs.Int64("snapshot-bytes", 0, "WAL growth that triggers a compacting snapshot (0 = default, negative = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *walDir != "" && *replicaOf != "" {
		return fmt.Errorf("serve: -wal-dir and -replica-of are mutually exclusive")
	}
	var opts []geodabs.NodeOption
	if *walDir != "" {
		opts = append(opts, geodabs.WithWALDir(*walDir))
		if *syncEvery != 0 || *syncInterval != 0 {
			opts = append(opts, geodabs.WithWALSync(*syncEvery, *syncInterval))
		}
		if *segmentBytes != 0 {
			opts = append(opts, geodabs.WithWALSegmentBytes(*segmentBytes))
		}
		if *snapshotBytes != 0 {
			opts = append(opts, geodabs.WithSnapshotBytes(*snapshotBytes))
		}
	}
	if *replicaOf != "" {
		opts = append(opts, geodabs.WithReplicaOf(*replicaOf))
	}
	node, err := geodabs.StartShardNode(*addr, opts...)
	if err != nil {
		return err
	}
	switch {
	case *replicaOf != "":
		fmt.Printf("read replica of %s listening on %s (ctrl-c to stop)\n", *replicaOf, node.Addr())
	case *walDir != "":
		fmt.Printf("durable shard node listening on %s, WAL in %s (ctrl-c to stop)\n", node.Addr(), *walDir)
	default:
		fmt.Printf("shard node listening on %s (ctrl-c to stop)\n", node.Addr())
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("shutting down")
	return node.Close()
}
