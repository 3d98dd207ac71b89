package geodabs

import (
	"errors"
	"fmt"

	"geodabs/internal/cluster"
)

// Option configures an Index or Cluster at construction.
//
//	idx, err := geodabs.NewIndex(cfg, geodabs.WithPointRetention())
//	cl, err := geodabs.NewCluster(cfg, strategy, addrs,
//		geodabs.WithPointRetention(), geodabs.WithConnsPerNode(4))
type Option func(*engineOptions) error

// engineOptions is the resolved option set of both engines: the
// coordinator's Options, which the public options fill in, and whether a
// read preference was set at all, which a local index refuses.
type engineOptions struct {
	cluster.Options
	readPrefSet bool
}

func newEngineOptions(opts []Option) (engineOptions, error) {
	var o engineOptions
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return o, err
		}
	}
	return o, nil
}

// WithPointRetention makes Add/AddAll/Upsert keep each trajectory's raw
// point sequence so searches can refine candidates with WithExactRerank.
// On a local Index the points stay in process (a slice header sharing
// the caller's backing array, not a copy). On a Cluster each
// trajectory's points spill to one deterministic owner among the shard
// nodes holding its terms: the owner stores them beside its postings
// (WAL-logged when durable, carried by snapshots, full syncs and the
// replication stream), the coordinator remembers only who owns what,
// and WithExactRerank pushes the scoring down to the owners — raw
// points cross the wire once at ingest and never at query time.
// Retention is off by default: workloads that never re-rank no longer
// pay the pinned point memory, and WithExactRerank fails with a clear
// error unless the engine was constructed with this option.
func WithPointRetention() Option {
	return func(o *engineOptions) error {
		o.RetainPoints = true
		return nil
	}
}

// WithConnsPerNode sets how many connections a Cluster pools per shard
// node (default 1). A larger pool lets that many RPCs be in flight to
// the same node, raising SearchBatch throughput. It applies only to
// NewCluster; NewIndex and NewGeohashIndex reject it.
func WithConnsPerNode(n int) Option {
	return func(o *engineOptions) error {
		if n < 1 {
			return fmt.Errorf("geodabs: WithConnsPerNode(%d) must be at least 1", n)
		}
		o.PoolSize = n
		return nil
	}
}

// WithReadReplicas registers read replicas with a Cluster: replicas[i]
// lists the addresses of node i's replicas (shard nodes started with
// WithReplicaOf pointing at node i). The outer slice must have one entry
// per cluster node; inner slices may be empty. Mutations always go to
// primaries — replicas serve reads only, routed per WithReadPreference.
func WithReadReplicas(replicas [][]string) Option {
	return func(o *engineOptions) error {
		if replicas == nil {
			return errors.New("geodabs: WithReadReplicas(nil) — pass one (possibly empty) entry per node")
		}
		o.Replicas = replicas
		return nil
	}
}

// WithReadPreference sets a Cluster's read routing policy: ReadPrimary
// (the default) or ReadReplicas. It applies only to NewCluster.
func WithReadPreference(p ReadPreference) Option {
	return func(o *engineOptions) error {
		if p != ReadPrimary && p != ReadReplicas {
			return fmt.Errorf("geodabs: unknown ReadPreference %d", p)
		}
		o.ReadPreference = p
		o.readPrefSet = true
		return nil
	}
}

// WithDirectoryRecovery makes NewCluster rebuild its ranking directory
// from the shard nodes' current state before serving — the restart path
// for a coordinator fronting durable (WithWALDir) nodes. Retained
// points are recovered too: they live on each trajectory's owner node,
// whose full-sync record carries them, so the rebuilt directory
// re-learns the ownership map and exact re-ranking keeps working across
// the coordinator restart.
func WithDirectoryRecovery() Option {
	return func(o *engineOptions) error {
		o.RecoverDirectory = true
		return nil
	}
}

// localOnly rejects cluster-only options on local index constructors.
func (o engineOptions) localOnly() error {
	if o.PoolSize != 0 {
		return errors.New("geodabs: WithConnsPerNode applies to clusters, not local indexes")
	}
	if o.Replicas != nil {
		return errors.New("geodabs: WithReadReplicas applies to clusters, not local indexes")
	}
	if o.readPrefSet {
		return errors.New("geodabs: WithReadPreference applies to clusters, not local indexes")
	}
	if o.RecoverDirectory {
		return errors.New("geodabs: WithDirectoryRecovery applies to clusters, not local indexes")
	}
	return nil
}
