package cluster

// Coordinator directory recovery. The coordinator's ranking directory —
// per-trajectory fingerprint cardinality, lifecycle state, and last
// mutation epoch — normally lives only in memory: it is rebuilt from
// scratch as mutations flow through. When the shard nodes are durable
// (WithWALDir) the cluster's ground truth survives a coordinator
// restart, and WithDirectoryRecovery rebuilds the directory from it: the
// coordinator pulls the same full-sync snapshot a read replica would,
// from every node, and merges the per-ID records by epoch — the highest
// epoch wins, and a winning tombstone means deleted. The epoch counter
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
	"encoding/gob"
	"errors"
	"fmt"
	"net"

	"geodabs/internal/trajectory"
)

// WithDirectoryRecovery makes NewCoordinator rebuild the ranking
// directory from the nodes' current state before serving. Intended for
// restarting a coordinator over durable (WAL-backed) nodes; on empty
// nodes it is a no-op beyond one round trip per node.
func WithDirectoryRecovery() Option {
	return func(c *Coordinator) { c.recoverDir = true }
}

// recoverDirectory pulls a full-sync snapshot from every node and merges
// them into the directory. Called from NewCoordinator before the
// coordinator is published, so no locking is needed.
func (c *Coordinator) recoverDirectory(addrs []string) error {
	type recovered struct {
		doc syncDoc
		// owner is the node whose record for the doc's winning epoch
		// carried retained points, -1 if none did. A points record from a
		// losing (older) epoch is a stale copy a later mutation replaced
		// and must not be re-adopted as the owner.
		owner      int
		ownerEpoch uint64
	}
	winners := make(map[trajectory.ID]recovered)
	var maxEpoch uint64
	for node, addr := range addrs {
		sync, err := fetchNodeState(addr)
		if err != nil {
			return fmt.Errorf("cluster: recover directory from %s: %w", addr, err)
		}
		if sync.Watermark > maxEpoch {
			maxEpoch = sync.Watermark
		}
		for _, d := range sync.Docs {
			if d.Epoch > maxEpoch {
				maxEpoch = d.Epoch
			}
			id := trajectory.ID(d.ID)
			w, ok := winners[id]
			if !ok {
				w = recovered{owner: -1}
			}
			if !ok || d.Epoch > w.doc.Epoch {
				w.doc = d
			}
			if len(d.Points) > 0 && d.Epoch >= w.ownerEpoch {
				w.owner, w.ownerEpoch = node, d.Epoch
			}
			winners[id] = w
		}
	}
	for id, w := range winners {
		if w.doc.Tombstone {
			continue
		}
		owner := -1
		if w.owner >= 0 && w.ownerEpoch == w.doc.Epoch {
			owner = w.owner
		}
		c.directory[id] = docEntry{card: w.doc.Card, state: stateLive, epoch: w.doc.Epoch, owner: owner}
	}
	if maxEpoch > c.epoch {
		c.epoch = maxEpoch
	}
	return nil
}

// fetchNodeState opens a one-shot connection to a node and returns its
// full-sync snapshot. The connection is closed without tailing the
// mutation stream that follows; the node notices on its next push and
// drops the subscription.
func fetchNodeState(addr string) (*syncResponse, error) {
	conn, err := net.DialTimeout("tcp", addr, replDialTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := gob.NewEncoder(conn).Encode(&request{Op: opSync}); err != nil {
		return nil, err
	}
	var resp response
	if err := gob.NewDecoder(conn).Decode(&resp); err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	if resp.Sync == nil {
		return nil, errors.New("node did not return a sync snapshot")
	}
	return resp.Sync, nil
}
