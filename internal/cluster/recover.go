package cluster

// Coordinator directory recovery. The coordinator's ranking directory —
// per-trajectory fingerprint cardinality, lifecycle state, and last
// mutation epoch — normally lives only in memory: it is rebuilt from
// scratch as mutations flow through. When the shard nodes are durable
// (WithWALDir) the cluster's ground truth survives a coordinator
// restart, and Options.RecoverDirectory rebuilds the directory from it: the
// coordinator pulls the same full-sync snapshot a read replica would,
// from every node, and merges the per-ID records by epoch — the highest
// epoch wins, an add beats a tombstone at the same epoch, and a winning
// tombstone means deleted. The nodes whose adds carry the winning epoch
// are the doc's node set, which later mutations target. The epoch counter
// resumes past the highest epoch seen, so post-recovery mutations fence
// correctly against pre-crash ones.
//
// One caveat is inherent: an add whose fan-out was mid-flight when the
// previous coordinator died may have landed on some owning nodes and not
// others. No node-local record can distinguish that torn add from a
// complete one, so recovery admits it with the postings that survived
// (its intersection counts run low until it is re-upserted or deleted).
// Retained points ARE recoverable: they live on each trajectory's point
// owner node (WAL-logged and snapshotted beside its postings), and the
// owner's full-sync record carries them, so recovery re-learns the
// owner mapping and exact re-ranking keeps working across a coordinator
// restart — provided the owner's record won the per-ID epoch merge.

import (
	"fmt"
	"net"

	"geodabs/internal/trajectory"
	"geodabs/internal/wal"
	"geodabs/internal/wire"
)

// recoverDirectory pulls a full-sync snapshot from every node and merges
// them into the directory. Called from NewCoordinator before the
// coordinator is published, so no locking is needed.
func (c *Coordinator) recoverDirectory(addrs []string) error {
	type recovered struct {
		card      uint32
		epoch     uint64
		tombstone bool
		// nodes are the nodes whose record at the winning epoch is an add:
		// the nodes holding the doc's terms.
		nodes uint64
		// owner is the node whose record for the doc's winning epoch
		// carried retained points, -1 if none did. A points record from a
		// losing (older) epoch is a stale copy a later mutation replaced
		// and must not be re-adopted as the owner.
		owner      int
		ownerEpoch uint64
	}
	winners := make(map[trajectory.ID]recovered)
	type liveAdd struct {
		id    trajectory.ID
		node  int
		epoch uint64
	}
	var adds []liveAdd
	var maxEpoch uint64
	for node, addr := range addrs {
		watermark, err := fetchNodeState(addr, func(d *wal.Record) error {
			maxEpoch = max(maxEpoch, d.Epoch)
			id := trajectory.ID(d.ID)
			w, ok := winners[id]
			if !ok {
				w = recovered{owner: -1}
			}
			del := d.Op == wal.OpDelete
			if !ok || d.Epoch > w.epoch {
				w.card, w.epoch, w.tombstone, w.nodes = d.Card, d.Epoch, del, 0
			}
			// One mutation's adds and deletes share its epoch — an Upsert
			// deletes on the nodes its new version left — so at the winning
			// epoch an add decides.
			if !del && d.Epoch == w.epoch {
				w.card, w.tombstone, w.nodes = d.Card, false, w.nodes|1<<node
			}
			if !del {
				adds = append(adds, liveAdd{id, node, d.Epoch})
			}
			if len(d.Points) > 0 && d.Epoch >= w.ownerEpoch {
				w.owner, w.ownerEpoch = node, d.Epoch
			}
			winners[id] = w
			return nil
		})
		if err != nil {
			return fmt.Errorf("cluster: recover directory from %s: %w", addr, err)
		}
		maxEpoch = max(maxEpoch, watermark)
	}
	for id, w := range winners {
		if w.tombstone {
			continue
		}
		owner := -1
		if w.owner >= 0 && w.ownerEpoch == w.epoch {
			owner = w.owner
		}
		c.directory[id] = docEntry{card: w.card, owner: int32(owner), state: stateLive, epoch: w.epoch, nodes: w.nodes}
	}
	// An add older than its ID's winner is a failed Add's stranded postings:
	// fence it at the winner's epoch, which postdates it and predates every
	// epoch this coordinator will assign.
	for _, a := range adds {
		if w := winners[a.id]; a.epoch < w.epoch {
			c.queueCleanup(a.id, pendingCleanup{epoch: w.epoch, nodes: []int{a.node}})
		}
	}
	if maxEpoch > c.epoch {
		c.epoch = maxEpoch
	}
	return nil
}

// fetchNodeState opens a one-shot connection to a node and reads its
// full sync, handing each doc to fn, and returns the sync's watermark.
// Every frame read is bounded (readSync), so a node that accepts the
// connection and never answers fails recovery instead of hanging it. The
// connection is closed without tailing the mutation stream that follows;
// the node notices on its next push and drops the subscription.
func fetchNodeState(addr string, fn func(*wal.Record) error) (uint64, error) {
	conn, err := net.DialTimeout("tcp", addr, replDialTimeout)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	f := wire.NewConn(conn, maxFrame)
	if err := f.SendFrame(appendRequest(f.BeginFrame(), &request{Op: opSync})); err != nil {
		return 0, err
	}
	return readSync(f, fn)
}
