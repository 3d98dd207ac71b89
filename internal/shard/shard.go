// Package shard implements the paper's two-step index distribution
// strategy (§III-A4, Fig 2c, §VI-E):
//
//  1. Geodabs map to shards through their geohash prefix in a
//     locality-preserving way — contiguous ranges of the Z-order
//     space-filling curve form a shard, so a query, whose fingerprints are
//     spatially clustered, touches few shards.
//  2. Shards map to nodes with a modulo, which deliberately breaks
//     locality so that the load of dense areas spreads over the cluster.
package shard

import (
	"fmt"
	"math"
	"slices"

	"geodabs/internal/core"
)

// Strategy maps geodabs to shards and shards to nodes.
type Strategy struct {
	// PrefixBits is the geohash prefix width of the geodabs (default 16).
	PrefixBits uint8
	// Shards is the total number of shards (paper sweeps 100 vs 10'000).
	Shards int
	// Nodes is the number of cluster nodes (paper: 10).
	Nodes int
}

// Validate reports whether the strategy is usable.
func (s Strategy) Validate() error {
	switch {
	case s.PrefixBits < 1 || s.PrefixBits >= core.GeodabBits:
		return fmt.Errorf("shard: PrefixBits = %d out of range", s.PrefixBits)
	case s.Shards < 1:
		return fmt.Errorf("shard: Shards = %d", s.Shards)
	case s.Nodes < 1:
		return fmt.Errorf("shard: Nodes = %d", s.Nodes)
	default:
		return nil
	}
}

// ShardOf returns the shard of a geodab: its position on the space-filling
// curve scaled to the shard count, the paper's
// shard = ⌊geohash / 2^P × s⌋.
func (s Strategy) ShardOf(geodab uint32) int {
	prefix := uint64(geodab) >> (core.GeodabBits - s.PrefixBits)
	return int(prefix * uint64(s.Shards) >> s.PrefixBits)
}

// NodeOf returns the node of a shard, the paper's node = shard mod n.
func (s Strategy) NodeOf(shard int) int { return shard % s.Nodes }

// NodeOfGeodab composes ShardOf and NodeOf.
func (s Strategy) NodeOfGeodab(geodab uint32) int { return s.NodeOf(s.ShardOf(geodab)) }

// ShardsOf returns the distinct shards touched by a fingerprint set, in
// ascending order. The length of the result is the query fan-out the
// locality-preserving step minimizes.
func (s Strategy) ShardsOf(geodabs []uint32) []int {
	seen := make(map[int]struct{}, 8)
	for _, g := range geodabs {
		seen[s.ShardOf(g)] = struct{}{}
	}
	out := make([]int, 0, len(seen))
	for sh := range seen {
		out = append(out, sh)
	}
	slices.Sort(out)
	return out
}

// Balance summarizes how a load distributes over nodes (paper Fig 16).
type Balance struct {
	// PerNode is the load (e.g. postings or trajectories) on each node.
	PerNode []int
	// Max and Min are the extreme node loads; Mean their average.
	Max, Min int
	Mean     float64
	// CV is the coefficient of variation (stddev/mean), 0 for a perfectly
	// balanced cluster.
	CV float64
	// Imbalance is Max/Mean, 1 for a perfectly balanced cluster.
	Imbalance float64
}

// BalanceOf folds per-shard loads onto nodes with the strategy's modulo
// step and summarizes the result.
func (s Strategy) BalanceOf(perShard []int) Balance {
	perNode := make([]int, s.Nodes)
	for shard, load := range perShard {
		perNode[s.NodeOf(shard)] += load
	}
	return summarize(perNode)
}

func summarize(perNode []int) Balance {
	b := Balance{PerNode: perNode}
	if len(perNode) == 0 {
		return b
	}
	b.Min = perNode[0]
	total := 0
	for _, v := range perNode {
		total += v
		if v > b.Max {
			b.Max = v
		}
		if v < b.Min {
			b.Min = v
		}
	}
	b.Mean = float64(total) / float64(len(perNode))
	if b.Mean > 0 {
		var ss float64
		for _, v := range perNode {
			d := float64(v) - b.Mean
			ss += d * d
		}
		b.CV = math.Sqrt(ss/float64(len(perNode))) / b.Mean
		b.Imbalance = float64(b.Max) / b.Mean
	}
	return b
}
