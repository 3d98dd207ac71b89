package cluster

import (
	"geodabs/internal/geo"
	"geodabs/internal/rerank"
	"geodabs/internal/wal"
)

// Wire protocol: length-delimited gob over TCP. Each connection carries a
// sequential stream of request/response pairs; the coordinator serializes
// requests per connection and fans out across connections (and across the
// per-node connection pool). The ops in service: opMutate carries one
// mutation record — an add routing a trajectory's postings (with its
// replicated cardinality, and — to the point owner only — its raw
// points) or a delete withdrawing them behind an epoch fence — opQuery
// scatters a search, opStats collects shard summaries, opSync serves
// replication, and opRerank exact-scores a shortlist slice against the
// node's retained points.
//
// Searches are plan-path only: the coordinator shards a query's term set
// into per-node groups once, in a QueryPlan (built by Plan, cached by the
// public prepared-Query layer), and every SearchPlan call replays those
// groups into queryRequest scatters. Nothing plan-specific crosses the
// wire — a node sees the same Terms/QueryCard/MaxDistance triple whether
// the plan was freshly built or reused — so plan caching is invisible to
// this protocol and needs no version negotiation.
//
// A mutation is one wal.Record all the way: the coordinator builds it,
// the owning node logs and applies it, its replicas tail it. It carries
// a per-mutation epoch assigned by the coordinator, which nodes use to
// fence stale writes: a delete leaves a tombstone at its epoch, and an
// add whose epoch is not newer than the trajectory's last applied
// mutation is ignored. That makes the coordinator's failed-add
// cleanup safe against the abandoned add racing it onto the node, and
// makes retries idempotent. Every request also piggybacks the
// coordinator's compaction watermark — the epoch below which no mutation
// is still in flight — letting nodes reclaim tombstones lazily.
//
// Adds replicate the trajectory's total fingerprint cardinality |G| to
// every node owning one of its terms, and queries carry the query's
// global cardinality |F| plus the effective distance bound d. That lets
// a node apply the threshold-pruning cardinality window
//
//	(1−d)·|F| ≤ |G| ≤ |F|/(1−d)
//
// before serializing its partial counts, so candidates that provably
// cannot qualify never hit gob or the wire. The window is safe to
// evaluate node-side because it involves only the two total
// cardinalities and the bound — quantities every owning node holds in
// full — and a candidate outside it is exactly one the coordinator's
// Ranker would prune on arrival, so rankings are unchanged. The second
// pruning bound, the shared-count bar |F∩G|·(1+s) ≥ s·(|F|+|G|), is NOT
// node-safe: a node sees only its partial intersection count, and a
// candidate can fail the bar on every node individually while its
// summed count passes it. The bar therefore stays coordinator-side,
// applied after the partials are merged.

// Replication (opSync) breaks the request/response cadence on purpose:
// a replica sends one opSync request and the primary answers with a
// full-sync snapshot of its shard state (every doc with its terms,
// replicated cardinality, epoch, and tombstone flag, plus the highest
// compaction watermark the primary has proven complete), then keeps the
// connection as a one-way push stream of replEvent values — the record
// of every mutation the primary applies after the snapshot cut, in apply
// order, interleaved with heartbeats that carry the advancing watermark.
// Epoch fencing makes the stream idempotent and order-insensitive per
// ID, so a replica that reconnects and full-syncs again always
// converges. A replica that falls behind the primary's event backlog is
// disconnected and full-syncs afresh (the Redis replication shape).
//
// Replica reads stay consistent with the coordinator's snapshot
// isolation through the watermark: a replica's state provably covers
// every mutation at or below the highest watermark it has seen in the
// stream (the coordinator only advances the watermark past an epoch
// once every owning node acknowledged it, and the primary's stream is
// in apply order). A query whose piggybacked CompactBelow — the
// coordinator's search snapshot — exceeds that stable epoch is refused
// with response.Stale instead of being answered wrong; the coordinator
// falls back to the primary, whose next request also carries the
// watermark forward and thereby un-stales the replica.

// op discriminates request types.
type op uint8

const (
	opMutate op = iota + 1
	opQuery
	opStats
	opSync
	opRerank
)

// queryRequest carries the query terms owned by the node — one group of
// the QueryPlan's term sharding — plus the inputs of the node-side
// cardinality window: QueryCard is the query's
// global fingerprint cardinality |F| (across all nodes, not just the
// terms routed here) and MaxDistance the effective Jaccard distance
// bound. A QueryCard of 0 disables node-side pruning (the window would
// be meaningless without the query's true size).
type queryRequest struct {
	Terms       []uint32
	QueryCard   int
	MaxDistance float64
}

// queryResponse returns, for every candidate trajectory seen on this node,
// the number of query terms it shares, as parallel ID/count slices —
// flat slices gob-encode in one pass where the former map paid a per-entry
// reflection walk. Term spaces of different nodes are disjoint, so the
// coordinator can sum partial counts. Pruned reports how many candidate
// entries the node's cardinality window skipped before serialization;
// a candidate's replicated |G| is identical on every node, so a pruned
// candidate is pruned by all of its nodes and never reaches the merge.
type queryResponse struct {
	IDs    []uint32
	Counts []uint32
	Pruned int
}

// syncDoc is one trajectory's shard state in a full-sync snapshot:
// everything a replica needs to reconstruct the primary's docs and
// postings for this node. Tombstones ship too — they fence stale
// mutations on the replica exactly as on the primary. Points carries
// the retained raw trajectory when this node is its point owner, so
// replicas and snapshots hold retention identically to the primary.
type syncDoc struct {
	ID        uint32
	Terms     []uint32
	Card      int
	Epoch     uint64
	Tombstone bool
	Points    []geo.Point
}

// syncResponse is the primary's full-sync answer: the complete shard
// state at the snapshot cut plus the highest compaction watermark the
// primary has seen — the replica's starting stable epoch. Every
// mutation applied after the cut follows on the same connection as
// replEvent values.
type syncResponse struct {
	Docs      []syncDoc
	Watermark uint64
}

// replEvent is one replication stream message: the record of a mutation
// the primary applied, or — with a zero Op — a heartbeat. Watermark
// piggybacks the primary's highest known compaction watermark: the
// replica's state provably covers every mutation at or below it, so it
// gates replica reads.
type replEvent struct {
	wal.Record
	Watermark uint64
}

// rerankRequest asks a node to exact-score its slice of a fingerprint
// shortlist: IDs are shortlist members whose points the node owns (the
// coordinator groups by pointOwner before scattering), Query is the raw
// query trajectory, and Metric selects DTW (1) or discrete Fréchet (2) —
// only the built-in metrics are addressable over the wire.
//
// Limit enables scoring against a bar: when > 0 it is the result cap the
// coordinator will truncate the merged scores to, and the node need not
// finish — or start — the O(n·m) dynamic program of a candidate it can
// prove strictly above both the k-th best score among candidates it has
// already scored and the k-th smallest upper bound over its slice
// (k = Limit; rerank.Score has the argument). A skipped candidate
// provably cannot enter the node's own top-k, hence not the global top-k
// either, so the merged results are byte-identical to scoring
// everything. Limit = 0 means no cap downstream: every candidate is
// scored.
type rerankRequest struct {
	IDs    []uint32
	Query  []geo.Point
	Metric rerank.Metric
	Limit  int
}

// rerankResponse returns the node's exact scores as parallel ID/score
// slices — scores only, never points. Candidates proved above the bar,
// by a bound or by an abandoned dynamic program, are absent from the
// slices and counted in Skipped. Missing
// lists shortlist IDs the node holds no points for (retention disabled,
// torn add, or a stale shortlist racing a delete); the coordinator
// aggregates Missing across nodes into one error naming them all.
type rerankResponse struct {
	IDs     []uint32
	Scores  []float64
	Skipped int
	Missing []uint32
}

// request is the envelope sent from coordinator to node. CompactBelow is
// the coordinator's compaction watermark: no mutation at or below it is
// still tracked as in flight by the coordinator, so the node reclaims
// tombstones at or below it. One residual race remains: the coordinator
// stops tracking an abandoned add when its call returns, not when its
// last request byte is provably dead, so a node wedged long enough for
// the watermark to advance can in principle apply a stale add after its
// fence was pruned. The stranded postings that result are invisible to
// searches (the coordinator's directory check drops them) and are
// replaced by any later add/upsert of the ID; see the ROADMAP
// anti-entropy item for full reclaim.
type request struct {
	Op           op
	CompactBelow uint64
	Mutate       *wal.Record
	Query        *queryRequest
	Rerank       *rerankRequest
}

// response is the envelope sent back. Err is non-empty on failure.
// Stale is a replica's typed refusal of a query whose snapshot epoch
// exceeds the replica's stable epoch: not an error, but a signal for
// the coordinator to read from the primary instead.
type response struct {
	Err    string
	Stale  bool
	Query  *queryResponse
	Stats  *NodeStats
	Sync   *syncResponse
	Rerank *rerankResponse
}
