package geodabs

import (
	"context"
	"errors"

	"geodabs/internal/cluster"
	"geodabs/internal/core"
	"geodabs/internal/index"
	"geodabs/internal/shard"
)

// ErrClosed reports an operation on a Cluster after Close. Searches and
// mutations racing a Close either complete normally or return an error
// satisfying errors.Is(err, ErrClosed) — never a panic or a hang.
var ErrClosed = errors.New("geodabs: cluster closed")

// ShardNode is a network server owning a slice of the geodab term space.
// Start nodes with StartShardNode, then front them with NewCluster.
type ShardNode = cluster.Node

// StartShardNode listens on addr (e.g. "127.0.0.1:0") and serves shard
// requests until Close. NodeOptions make the node durable (WithWALDir
// and friends) or turn it into a read replica (WithReplicaOf).
var StartShardNode = cluster.StartNode

// NodeOption configures a ShardNode at start (see StartShardNode).
type NodeOption = cluster.NodeOption

// WithWALDir makes the shard node durable: every mutation is appended to
// a write-ahead log in dir before it is applied, periodic snapshots
// compact the log, and a restarted node (same dir) recovers its exact
// pre-crash state. The directory must be private to one node.
var WithWALDir = cluster.WithWALDir

// WithWALSync tunes the WAL group commit: fsync after every `every`
// records, or after `interval` elapses with unsynced records, whichever
// comes first. WithWALSync(1, 0) syncs every record (most durable);
// larger batches trade a bounded loss window for write throughput.
var WithWALSync = cluster.WithWALSync

// WithWALSegmentBytes caps a WAL segment's size before the log rolls to
// a fresh segment file.
var WithWALSegmentBytes = cluster.WithWALSegmentBytes

// WithSnapshotBytes sets the WAL growth threshold that triggers a
// background snapshot + log truncation (negative disables automatic
// snapshots; ShardNode.Snapshot still works).
var WithSnapshotBytes = cluster.WithSnapshotBytes

// WithReplicaOf starts the node as a read replica of the primary shard
// node at addr: it full-syncs the primary's state, then tails its live
// mutation stream. Replicas reject direct mutations and refuse queries
// whose snapshot epoch their replicated state cannot yet prove complete.
// Register replicas with NewCluster's WithReadReplicas to route reads.
var WithReplicaOf = cluster.WithReplicaOf

// ReadPreference selects how a Cluster routes query reads across each
// shard node's replica set (see WithReadPreference).
type ReadPreference = cluster.ReadPreference

const (
	// ReadPrimary reads from primaries; replicas are failover only. The
	// default.
	ReadPrimary = cluster.ReadPrimary
	// ReadReplicas round-robins reads across each node's replicas,
	// falling back to the primary when a replica errors or is stale.
	ReadReplicas = cluster.ReadReplicas
)

// ShardStrategy maps geodabs to shards along the Z-order space-filling
// curve (locality-preserving) and shards to nodes modulo the cluster size
// (locality-breaking, for balance) — the paper's two-step distribution.
// A Cluster has at most 64 nodes: the coordinator records the nodes
// holding each trajectory in a 64-bit mask, so that a write reaches those
// nodes only.
type ShardStrategy = shard.Strategy

// QueryStats reports the fan-out a query would incur (see Cluster.AnalyzeQuery).
type QueryStats = cluster.QueryStats

// NodeStats is one shard node's term and posting counts, plus its
// durability state — mutation epochs, write-ahead log size and fsync
// counters, and per-replica lag (see Cluster.Stats).
type NodeStats = cluster.NodeStats

// ReplicaStats is one read replica's replication state within a
// NodeStats: its stable epoch, its lag behind the primary (0 = can serve
// every snapshot the primary can), and how many full syncs it has run.
type ReplicaStats = cluster.ReplicaStats

// Cluster is a distributed geodab index: a coordinator that routes
// postings to shard nodes, fans out deletions, and scatter-gathers
// Jaccard-ranked queries. Each trajectory's fingerprint cardinality is
// replicated to its owning nodes, so a search's distance bound is
// enforced node-side too: candidates that provably cannot qualify are
// skipped before they are serialized (SearchStats.NodePruned counts
// them), and a capped search whose terms all live on one node is ranked
// on that node, which ships only its top hits. Results are identical to
// a local Index over
// the same data; both implement Searcher and Mutator. Reads are
// snapshot-isolated against concurrent writes: every mutation carries an
// epoch, every search takes the committed-epoch watermark before
// scattering, and ranking admits a trajectory only when its last
// mutation committed at or below that snapshot — so a search observes a
// trajectory either fully (all its terms on every node) or not at all.
// Cluster is safe for concurrent use.
type Cluster struct {
	coord *cluster.Coordinator
}

// NewCluster connects to the shard nodes at addrs. The strategy's Nodes
// must equal len(addrs); strategy.PrefixBits must match cfg.PrefixBits.
// WithPointRetention enables exact re-ranking; WithConnsPerNode sizes
// the per-node connection pool.
func NewCluster(cfg Config, strategy ShardStrategy, addrs []string, opts ...Option) (*Cluster, error) {
	f, err := core.NewFingerprinter(cfg)
	if err != nil {
		return nil, err
	}
	o, err := newEngineOptions(opts)
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator(index.GeodabExtractor{Fingerprinter: f}, strategy, addrs, o.Options)
	if err != nil {
		return nil, err
	}
	return &Cluster{coord: coord}, nil
}

// Add fingerprints the trajectory and routes its postings to the
// cluster. IDs must be unique; use Upsert to replace an indexed
// trajectory. A failed add reclaims the postings it already applied
// (best-effort deletes to the nodes it touched) and is retryable.
func (c *Cluster) Add(t *Trajectory) error {
	return translateClusterErr(c.coord.Add(context.Background(), t))
}

// AddContext is Add honoring cancellation and deadlines while waiting on
// the shard nodes.
func (c *Cluster) AddContext(ctx context.Context, t *Trajectory) error {
	return translateClusterErr(c.coord.Add(ctx, t))
}

// AnalyzeQuery returns the fan-out a prepared query would incur, without
// executing it. The query's cached extraction and shard partition are
// used — and populated on first call, so a subsequent SearchQuery against
// this cluster starts scattering immediately. A nil query touches
// nothing and reports zero fan-out.
func (c *Cluster) AnalyzeQuery(q *Query) QueryStats {
	if q == nil {
		return QueryStats{}
	}
	return q.clusterPlan(c.coord).Stats()
}

// Stats gathers per-node term and posting counts, slice index i matching
// node i.
func (c *Cluster) Stats() ([]NodeStats, error) {
	stats, err := c.coord.Stats(context.Background())
	return stats, translateClusterErr(err)
}

// StatsContext is Stats honoring cancellation and deadlines while
// waiting on the shard nodes.
func (c *Cluster) StatsContext(ctx context.Context) ([]NodeStats, error) {
	stats, err := c.coord.Stats(ctx)
	return stats, translateClusterErr(err)
}

// Close tears down all node connections. It is idempotent and safe to
// call concurrently with in-flight searches and mutations: later calls
// return nil immediately, racing operations either complete or fail with
// ErrClosed, and every operation after Close returns ErrClosed.
func (c *Cluster) Close() error { return c.coord.Close() }
