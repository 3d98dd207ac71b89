// Command geodabsd serves a geodabs engine over the network: the
// service front-end of the paper's "at scale" story. It exposes the
// Searcher/Mutator surface — fingerprint and raw-trajectory search,
// upsert, delete — over the compact binary protocol of docs/protocol.md,
// with admission control, per-request deadlines, Prometheus-style
// metrics, and graceful drain on SIGTERM.
//
// Backends (exactly one):
//
//	-snapshot FILE        serve a local index snapshot (geodabs stats -snapshot)
//	-nodes A,B,C          front a cluster of shard nodes (geodabs serve),
//	                      rebuilding the coordinator's ranking directory from
//	                      the nodes' durable state at startup
//	-wal-dir DIR          serve an embedded durable shard node: mutations are
//	                      write-ahead logged and snapshot-compacted in DIR, and a
//	                      restart (even after SIGKILL) recovers the exact
//	                      pre-crash state, coordinator directory included
//
// Usage:
//
//	geodabsd -addr :7071 -snapshot index.snap
//	geodabsd -addr :7071 -nodes 10.0.0.1:7070,10.0.0.2:7070 -shards 1024
//	geodabsd -addr :7071 -wal-dir /var/lib/geodabs
//
// With -nodes, -replicas registers per-node read replicas (groups
// comma-separated matching -nodes order, members |-separated) routed per
// -read-from.
//
// With -nodes or -wal-dir, -retain-points spills each trajectory's raw
// points to its owner shard node at ingest, enabling the SEARCH_RERANK
// op (exact DTW/Fréchet refinement, scored node-side).
//
// Operational flags: -max-inflight, -max-queue, -max-pipeline,
// -max-conns bound the admission pipeline; -default-deadline and
// -max-deadline bound request execution; -metrics-addr serves /metrics
// (cluster backends also export WAL and replication gauges there);
// -drain-timeout bounds the SIGTERM drain (the process exits 0 when
// in-flight requests finished in time).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"geodabs"
	"geodabs/internal/cluster"
	"geodabs/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "geodabsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("geodabsd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7071", "listen address")
	metricsAddr := fs.String("metrics-addr", "", "serve Prometheus /metrics on this address (empty = off)")
	snapshot := fs.String("snapshot", "", "serve this local index snapshot")
	nodes := fs.String("nodes", "", "comma-separated shard node addresses to front as a cluster")
	shards := fs.Int("shards", 1024, "cluster shard count (with -nodes or -wal-dir)")
	connsPerNode := fs.Int("conns-per-node", 4, "pooled connections per shard node (with -nodes or -wal-dir)")
	replicas := fs.String("replicas", "", "per-node read replica addresses (with -nodes): groups comma-separated, members |-separated")
	readFrom := fs.String("read-from", "primary", "read routing across replicas: primary or replicas")
	retainPoints := fs.Bool("retain-points", false, "spill raw trajectory points to their owner shard nodes at ingest, enabling exact rerank (with -nodes or -wal-dir)")
	walDir := fs.String("wal-dir", "", "serve an embedded durable shard node, WAL and snapshots in this directory")
	walSyncEvery := fs.Int("wal-sync-every", 0, "fsync after this many WAL records (0 = library default; with -wal-dir)")
	walSyncInterval := fs.Duration("wal-sync-interval", 0, "fsync after this long with unsynced WAL records (0 = library default; with -wal-dir)")
	snapshotBytes := fs.Int64("snapshot-bytes", 0, "WAL growth that triggers a compacting snapshot (0 = default, negative = never; with -wal-dir)")
	maxInFlight := fs.Int("max-inflight", 128, "maximum concurrently executing requests")
	maxQueue := fs.Int("max-queue", 0, "maximum requests waiting for a slot (0 = -max-inflight)")
	maxPipeline := fs.Int("max-pipeline", 32, "maximum outstanding requests per connection")
	maxConns := fs.Int("max-conns", 1024, "maximum client connections")
	defaultDeadline := fs.Duration("default-deadline", 0, "deadline applied to requests that carry none (0 = none)")
	maxDeadline := fs.Duration("max-deadline", 0, "cap on client-requested deadlines (0 = no cap)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "how long SIGTERM waits for in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}
	backends := 0
	for _, set := range []bool{*snapshot != "", *nodes != "", *walDir != ""} {
		if set {
			backends++
		}
	}
	if backends != 1 {
		return fmt.Errorf("exactly one backend is required: -snapshot, -nodes, or -wal-dir")
	}
	// The replica flags configure a -nodes cluster only; beside another
	// backend they would do nothing.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"replicas", "read-from"} {
		if set[name] && *nodes == "" {
			return fmt.Errorf("-%s needs the -nodes backend", name)
		}
	}
	if *retainPoints && *snapshot != "" {
		return fmt.Errorf("-retain-points needs a cluster backend (-nodes or -wal-dir): a snapshot-loaded index carries no raw points to retain")
	}

	var engine server.Engine
	var cl *geodabs.Cluster // non-nil for the cluster-backed backends
	cfg := geodabs.DefaultConfig()
	switch {
	case *snapshot != "":
		f, err := os.Open(*snapshot)
		if err != nil {
			return err
		}
		idx, err := geodabs.ReadIndex(cfg, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("read snapshot %s: %w", *snapshot, err)
		}
		st := idx.Stats()
		fmt.Printf("loaded snapshot %s: %d trajectories, %d terms\n", *snapshot, st.Trajectories, st.Terms)
		engine = idx
	case *walDir != "":
		// The embedded durable backend: one in-process WAL-backed shard
		// node on a loopback port, fronted by a single-node cluster that
		// recovers its ranking directory from the node's state — so a
		// restarted geodabsd (same -wal-dir) serves exactly what the
		// killed one did.
		nodeOpts := []geodabs.NodeOption{geodabs.WithWALDir(*walDir)}
		if *walSyncEvery != 0 || *walSyncInterval != 0 {
			nodeOpts = append(nodeOpts, geodabs.WithWALSync(*walSyncEvery, *walSyncInterval))
		}
		if *snapshotBytes != 0 {
			nodeOpts = append(nodeOpts, geodabs.WithSnapshotBytes(*snapshotBytes))
		}
		node, err := geodabs.StartShardNode("127.0.0.1:0", nodeOpts...)
		if err != nil {
			return err
		}
		defer node.Close()
		strategy := geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: *shards, Nodes: 1}
		clOpts := []geodabs.Option{geodabs.WithConnsPerNode(*connsPerNode), geodabs.WithDirectoryRecovery()}
		if *retainPoints {
			clOpts = append(clOpts, geodabs.WithPointRetention())
		}
		cl, err = geodabs.NewCluster(cfg, strategy, []string{node.Addr()}, clOpts...)
		if err != nil {
			return err
		}
		defer cl.Close()
		fmt.Printf("serving embedded durable shard node %s, WAL in %s\n", node.Addr(), *walDir)
		engine = cl
	default:
		addrs := strings.Split(*nodes, ",")
		strategy := geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: *shards, Nodes: len(addrs)}
		// Nodes that already hold data would otherwise sit behind an
		// empty directory: their trajectories unranked, and a mutation of
		// one of them misrouted as new.
		opts := []geodabs.Option{geodabs.WithConnsPerNode(*connsPerNode), geodabs.WithDirectoryRecovery()}
		reps, err := cluster.ParseReplicas(*replicas, len(addrs))
		if err != nil {
			return err
		}
		if reps != nil {
			opts = append(opts, geodabs.WithReadReplicas(reps))
		}
		switch *readFrom {
		case "primary":
		case "replicas":
			opts = append(opts, geodabs.WithReadPreference(geodabs.ReadReplicas))
		default:
			return fmt.Errorf("-read-from must be primary or replicas, got %q", *readFrom)
		}
		if *retainPoints {
			opts = append(opts, geodabs.WithPointRetention())
		}
		cl, err = geodabs.NewCluster(cfg, strategy, addrs, opts...)
		if err != nil {
			return err
		}
		defer cl.Close()
		fmt.Printf("fronting %d shard nodes, %d shards\n", len(addrs), *shards)
		engine = cl
	}

	srv, err := server.Listen(*addr, engine, server.Config{
		MaxInFlight:     *maxInFlight,
		MaxQueue:        *maxQueue,
		MaxPipeline:     *maxPipeline,
		MaxConns:        *maxConns,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
	})
	if err != nil {
		return err
	}
	fmt.Printf("geodabsd listening on %s\n", srv.Addr())

	if cl != nil {
		srv.Metrics().SetCollector(clusterCollector(cl))
	}

	if *metricsAddr != "" {
		// Bind before logging so the printed address is the real one
		// (":0" resolves to a concrete port scripts can scrape).
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Metrics().Handler())
		msrv := &http.Server{Handler: mux}
		go msrv.Serve(mln)
		defer msrv.Close()
		fmt.Printf("metrics on http://%s/metrics\n", mln.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	fmt.Printf("%s: draining (up to %v)\n", sig, *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Println("drained cleanly")
	return nil
}

// nodeFamilies are the per-node metric families clusterCollector
// exports, one sample per node each, the value printed with %v.
var nodeFamilies = []struct {
	name, help, typ string
	value           func(s geodabs.NodeStats) any
}{
	{"geodabsd_node_epoch", "Highest mutation epoch the shard node has applied.", "gauge",
		func(s geodabs.NodeStats) any { return s.Epoch }},
	{"geodabsd_node_wal_bytes", "Live write-ahead log size in bytes.", "gauge",
		func(s geodabs.NodeStats) any { return s.WALBytes }},
	{"geodabsd_node_wal_segments", "Live write-ahead log segment files.", "gauge",
		func(s geodabs.NodeStats) any { return s.WALSegments }},
	{"geodabsd_node_wal_fsyncs_total", "WAL fsync batches since the node started.", "counter",
		func(s geodabs.NodeStats) any { return s.WALSyncs }},
	{"geodabsd_node_wal_last_fsync_seconds", "Duration of the node's most recent WAL fsync.", "gauge",
		func(s geodabs.NodeStats) any { return s.WALLastSync.Seconds() }},
	{"geodabsd_node_full_syncs_total", "Replica full syncs the node has served.", "counter",
		func(s geodabs.NodeStats) any { return s.FullSyncs }},
	{"geodabsd_node_replica_subscribers", "Replicas currently tailing the node's mutation stream.", "gauge",
		func(s geodabs.NodeStats) any { return s.Subscribers }},
	{"geodabsd_node_retained_points", "Raw trajectory points the node retains as point owner for exact rerank.", "gauge",
		func(s geodabs.NodeStats) any { return s.RetainedPoints }},
	{"geodabsd_node_retained_bytes", "Approximate memory held by the node's retained raw points.", "gauge",
		func(s geodabs.NodeStats) any { return s.RetainedBytes }},
	{"geodabsd_node_rerank_scored_total", "Rerank candidates the node computed an exact score for.", "counter",
		func(s geodabs.NodeStats) any { return s.RerankScored }},
	{"geodabsd_node_rerank_lb_skipped_total", "Rerank candidates the node proved outside the requested top-k without an exact score: by the chord-cost bound on every alignment, before any exact cell, or part-way through the dynamic program at the bar.", "counter",
		func(s geodabs.NodeStats) any { return s.RerankSkipped }},
}

// clusterCollector returns a metrics hook that exports the cluster's
// durability and replication state as Prometheus gauges on every scrape:
// the nodeFamilies — WAL, epochs, replication and exact-rerank state per
// node — then per-replica epoch lag.
func clusterCollector(cl *geodabs.Cluster) func(w *strings.Builder) {
	var scrapeErrs atomic.Uint64
	return func(w *strings.Builder) {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		stats, err := cl.StatsContext(ctx)
		cancel()
		if err != nil {
			scrapeErrs.Add(1)
		}
		fmt.Fprintf(w, "# HELP geodabsd_cluster_stats_errors_total Failed cluster stats gathers during metrics scrapes.\n# TYPE geodabsd_cluster_stats_errors_total counter\ngeodabsd_cluster_stats_errors_total %d\n", scrapeErrs.Load())
		if err != nil {
			return
		}
		for _, f := range nodeFamilies {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
			for _, s := range stats {
				fmt.Fprintf(w, "%s{node=\"%d\"} %v\n", f.name, s.Node, f.value(s))
			}
		}
		headerDone := false
		for _, s := range stats {
			for _, r := range s.Replicas {
				if !headerDone {
					w.WriteString("# HELP geodabsd_replica_epoch_lag Primary epoch minus replica stable epoch; 0 means fully caught up. -1: unreachable.\n# TYPE geodabsd_replica_epoch_lag gauge\n")
					headerDone = true
				}
				lag := int64(r.EpochLag)
				if r.Err != "" {
					lag = -1
				}
				fmt.Fprintf(w, "geodabsd_replica_epoch_lag{node=\"%d\",replica=%q} %d\n", s.Node, r.Addr, lag)
			}
		}
	}
}
