package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"geodabs"
	"geodabs/client"
	"geodabs/internal/server"
)

// system is a workload's engine as its callers reach it. search runs the
// workload's timed search op for pool query qi with a result cap of k;
// caller selects the connection on engines that have one per caller.
type system interface {
	search(ctx context.Context, caller, qi, k int) ([]geodabs.Result, error)
	upsert(ctx context.Context, caller int, t *geodabs.Trajectory) error
	// discard tears the system down the fastest way; nothing it holds is
	// wanted afterwards.
	discard()
}

// resultCaps are the two result caps a run searches with: the timed kNN
// and, for r_precision, the size of a query's relevant set. Their option
// slices are built once at set-up, so the timed loops allocate nothing of
// their own and concurrent callers only read.
func resultCaps(d *workloadData) []int { return []int{knn, d.spec.perDirection} }

func searchOptions(d *workloadData, extra ...geodabs.SearchOption) map[int][]geodabs.SearchOption {
	out := make(map[int][]geodabs.SearchOption)
	for _, k := range resultCaps(d) {
		out[k] = append([]geodabs.SearchOption{geodabs.WithKNN(k)}, extra...)
	}
	return out
}

// localSystem is an in-process geodabs.Index; prepared selects
// SearchQuery over queries prepared once instead of raw-point Search.
type localSystem struct {
	data     *workloadData
	ix       *geodabs.Index
	prepared []*geodabs.Query
	opts     map[int][]geodabs.SearchOption
}

func setupLocal(ctx context.Context, d *workloadData) (*localSystem, error) {
	ix, err := geodabs.NewIndex(d.cfg)
	if err != nil {
		return nil, err
	}
	ds := &geodabs.Dataset{Trajectories: d.byID}
	if err := ix.AddAllContext(ctx, ds, runtime.GOMAXPROCS(0)); err != nil {
		return nil, fmt.Errorf("AddAll: %w", err)
	}
	s := &localSystem{data: d, ix: ix, opts: searchOptions(d)}
	if d.spec.kind == localPrepared {
		s.prepared = make([]*geodabs.Query, len(d.pool))
		for i, q := range d.pool {
			s.prepared[i] = geodabs.NewQuery(q.Points)
			// The warming call runs the lazy extraction, so no timed
			// search pays it.
			if _, err := ix.SearchQuery(ctx, s.prepared[i], geodabs.WithKNN(knn)); err != nil {
				return nil, fmt.Errorf("warm query %d: %w", i, err)
			}
		}
	}
	return s, nil
}

func (s *localSystem) search(ctx context.Context, _, qi, k int) ([]geodabs.Result, error) {
	var res *geodabs.SearchResult
	var err error
	if s.prepared != nil {
		res, err = s.ix.SearchQuery(ctx, s.prepared[qi], s.opts[k]...)
	} else {
		res, err = s.ix.Search(ctx, s.data.pool[qi], s.opts[k]...)
	}
	if err != nil {
		return nil, err
	}
	return res.Hits, nil
}

func (s *localSystem) upsert(ctx context.Context, _ int, t *geodabs.Trajectory) error {
	return s.ix.Upsert(ctx, t)
}

func (s *localSystem) discard() {}

// The durable nodes' flush policy: a mutation is acknowledged once it is
// written to the log, and the log is fsynced every walSyncEvery records or
// walSyncInterval, whichever comes first. Acknowledging only after an
// fsync of its own (SyncEvery=1) makes every write wait on the sandbox's
// virtual disk, whose latency doubles for whole runs at a time — write
// throughput then repeats to within 50%, not 25% — and so does any batch
// small enough to fsync hundreds of times a second. The fsync-per-append
// path is timed on its own as wal.append_us in the traced run instead.
// Automatic snapshots are off: one compaction landing in some runs and not
// in others is a difference between runs, not between commits.
const (
	walSyncEvery    = 1024
	walSyncInterval = 20 * time.Millisecond
)

// clusterSystem is a geodabs.Cluster over three in-process shard nodes on
// loopback TCP. With walDir set the nodes log every mutation before
// applying it, the cluster retains points, and searches rerank by DTW on
// the owner nodes.
type clusterSystem struct {
	data   *workloadData
	walDir string
	nodes  []*geodabs.ShardNode
	cl     *geodabs.Cluster
	opts   map[int][]geodabs.SearchOption
}

func (s *clusterSystem) startNodes() ([]string, error) {
	addrs := make([]string, nodes)
	for i := range addrs {
		var opts []geodabs.NodeOption
		if s.walDir != "" {
			opts = append(opts,
				geodabs.WithWALDir(filepath.Join(s.walDir, fmt.Sprintf("node%d", i))),
				geodabs.WithWALSync(walSyncEvery, walSyncInterval),
				geodabs.WithSnapshotBytes(-1))
		}
		n, err := geodabs.StartShardNode("127.0.0.1:0", opts...)
		if err != nil {
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		s.nodes = append(s.nodes, n)
		addrs[i] = n.Addr()
	}
	return addrs, nil
}

func (s *clusterSystem) connect(addrs []string, extra ...geodabs.Option) error {
	strategy := geodabs.ShardStrategy{PrefixBits: s.data.cfg.PrefixBits, Shards: 10000, Nodes: nodes}
	opts := append([]geodabs.Option{geodabs.WithConnsPerNode(2)}, extra...)
	if s.walDir != "" {
		opts = append(opts, geodabs.WithPointRetention())
	}
	cl, err := geodabs.NewCluster(s.data.cfg, strategy, addrs, opts...)
	if err != nil {
		return fmt.Errorf("new cluster: %w", err)
	}
	s.cl = cl
	return nil
}

// setupCluster starts the nodes and ingests the corpus through
// Cluster.Add on as many callers as the workload writes with.
func setupCluster(ctx context.Context, d *workloadData, walDir string) (*clusterSystem, error) {
	var rerank []geodabs.SearchOption
	if walDir != "" {
		rerank = append(rerank, geodabs.WithExactRerank(geodabs.DTW))
	}
	s := &clusterSystem{data: d, walDir: walDir, opts: searchOptions(d, rerank...)}
	addrs, err := s.startNodes()
	if err == nil {
		err = s.connect(addrs)
	}
	if err == nil {
		err = eachCaller(d.spec.writeCallers, 0, len(d.byID), func(_, i int) error {
			return s.cl.AddContext(ctx, d.byID[i])
		})
	}
	if err != nil {
		s.discard()
		return nil, err
	}
	return s, nil
}

func (s *clusterSystem) search(ctx context.Context, _, qi, k int) ([]geodabs.Result, error) {
	res, err := s.cl.Search(ctx, s.data.pool[qi], s.opts[k]...)
	if err != nil {
		return nil, err
	}
	return res.Hits, nil
}

func (s *clusterSystem) upsert(ctx context.Context, _ int, t *geodabs.Trajectory) error {
	return s.cl.Upsert(ctx, t)
}

// discard kills the nodes rather than closing them: Close on a durable
// node writes a final snapshot nobody will read.
func (s *clusterSystem) discard() {
	if s.cl != nil {
		s.cl.Close()
	}
	for _, n := range s.nodes {
		n.Kill()
	}
	s.nodes = nil
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}

// crashAndRecover kills every node without a flush, restarts them on the
// same log directories and rebuilds the coordinator's directory from
// them. The receiver serves again afterwards.
func (s *clusterSystem) crashAndRecover() error {
	s.cl.Close()
	for _, n := range s.nodes {
		n.Kill()
	}
	s.nodes = nil
	addrs, err := s.startNodes()
	if err != nil {
		return err
	}
	return s.connect(addrs, geodabs.WithDirectoryRecovery())
}

// servedSystem fronts a clusterSystem with the network server; callers
// hold one client connection each and ship fingerprints computed before
// timing starts.
type servedSystem struct {
	*clusterSystem
	srv     *server.Server
	clients []*client.Client
	opts    map[int][]client.SearchOption
}

func setupServed(ctx context.Context, d *workloadData) (*servedSystem, error) {
	cs, err := setupCluster(ctx, d, "")
	if err != nil {
		return nil, err
	}
	s := &servedSystem{clusterSystem: cs, opts: map[int][]client.SearchOption{}}
	for _, k := range resultCaps(d) {
		s.opts[k] = []client.SearchOption{client.WithKNN(k)}
	}
	if s.srv, err = server.Listen("127.0.0.1:0", cs.cl, server.Config{}); err != nil {
		s.discard()
		return nil, err
	}
	for c := 0; c < max(d.spec.searchCallers, d.spec.writeCallers); c++ {
		cl, err := client.Dial(s.srv.Addr(), client.WithPoolSize(1))
		if err == nil {
			s.clients = append(s.clients, cl)
			err = cl.Ping(ctx) // Dial is lazy; the ping opens the connection
		}
		if err != nil {
			s.discard()
			return nil, fmt.Errorf("dial client %d: %w", c, err)
		}
	}
	return s, nil
}

func (s *servedSystem) search(ctx context.Context, caller, qi, k int) ([]geodabs.Result, error) {
	res, err := s.clients[caller].SearchFingerprint(ctx, s.data.poolF[qi], s.opts[k]...)
	if err != nil {
		return nil, err
	}
	return res.Hits, nil
}

func (s *servedSystem) upsert(ctx context.Context, caller int, t *geodabs.Trajectory) error {
	return s.clients[caller].Upsert(ctx, t)
}

func (s *servedSystem) discard() {
	for _, cl := range s.clients {
		cl.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	}
	s.clusterSystem.discard()
}

// setup builds the workload's system from nothing: start nodes and
// server, ingest the corpus through the workload's own write path, dial
// clients. workDir receives the write-ahead logs.
func setup(ctx context.Context, d *workloadData, workDir string) (system, error) {
	switch d.spec.kind {
	case localCold, localPrepared:
		return setupLocal(ctx, d)
	case served:
		return setupServed(ctx, d)
	default:
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, err
		}
		return setupCluster(ctx, d, dir)
	}
}
