package cluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"geodabs/internal/bitmap"
	"geodabs/internal/geo"
	"geodabs/internal/rerank"
	"geodabs/internal/wal"
	"geodabs/internal/wire"
)

// Wire protocol: length-prefixed binary frames over TCP, in
// internal/wire's framing (a 4-byte big-endian payload length, capped at
// maxFrame). Each message below has one append-style encoder and
// one decoder, kept next to its type; docs/protocol.md
// ("Internal coordinator↔node frames") gives every byte layout. Both ends
// ship in one binary, so the layouts carry no version and promise nothing
// across versions; only the node snapshot (persist.go) is versioned.
//
// Each connection carries a sequential stream of request/response pairs;
// the coordinator serializes requests per connection and fans out across
// connections (and across the per-node connection pool). The ops in
// service: opMutate carries one mutation record — an add routing a
// trajectory's postings (with its replicated cardinality, and — to the
// point owner only — its raw points) or a delete withdrawing them behind
// an epoch fence — opQuery scatters a search, opStats collects shard
// summaries, opSync serves replication, and opRerank exact-scores a
// shortlist slice against the node's retained points. A reply's first
// byte is the op it answers, or opError or opStale; any other reply kind
// is a protocol error.
//
// Searches are plan-path only: the coordinator shards a query's term set
// into per-node groups once, in a QueryPlan (built by Plan, cached by the
// public prepared-Query layer), and every SearchPlan call replays those
// groups into queryRequest scatters. A node sees the same
// Terms/QueryCard/MaxDistance/Limit fields whether the plan was freshly
// built or reused — Limit depends only on the plan's route count and the
// search's cap — so plan caching is invisible to this protocol.
//
// A mutation is one wal.Record all the way, in one byte form: the
// coordinator encodes it with wal.AppendRecord, the owning node logs and
// applies it, its replicas receive the same bytes in the replication
// stream, and a full sync or a snapshot stores each doc as the record
// that recreates it. It carries a per-mutation epoch assigned by the coordinator,
// which nodes use to fence stale writes: a delete leaves a tombstone at
// its epoch, and an add whose epoch is not newer than the trajectory's
// last applied mutation is ignored. That makes the coordinator's
// failed-add cleanup safe against the abandoned add racing it onto the
// node, and makes retries idempotent. Every request also piggybacks the
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
// before encoding its partial counts, so candidates that provably cannot
// qualify never hit the wire. The window is safe to evaluate node-side
// because it involves only the two total cardinalities and the bound —
// quantities every owning node holds in full — and a candidate outside
// it is exactly one the coordinator's Ranker would prune on arrival, so
// rankings are unchanged. The second pruning bound, the shared-count bar
// |F∩G|·(1+s) ≥ s·(|F|+|G|), is NOT node-safe: a node sees only its
// partial intersection count, and a candidate can fail the bar on every
// node individually while its summed count passes it. The bar therefore
// stays coordinator-side, applied after the partials are merged — unless
// the plan has one route: that node holds every query term, so its
// counts are the sums, and it ranks with the window and the bar alike
// (queryRequest.Limit).

// Replication (opSync) breaks the request/response cadence on purpose:
// a replica sends one opSync request and the primary answers with a
// full sync — a header frame (the highest compaction watermark the
// primary has proven complete, and the doc count), then one opSyncDoc
// frame per doc carrying the mutation record that recreates it — and
// then keeps the connection as a one-way push
// stream: an opEvent frame (the record of a mutation the primary applied
// after the snapshot cut, in apply order) or an opHeartbeat frame
// carrying the advancing watermark. Epoch fencing makes the stream
// idempotent and order-insensitive per ID, so a replica that reconnects
// and full-syncs again always converges. A replica that falls behind the
// primary's event backlog is disconnected and full-syncs afresh (the
// Redis replication shape).
//
// Replica reads stay consistent with the coordinator's snapshot
// isolation through the watermark: a replica's state provably covers
// every mutation at or below the highest watermark it has seen in the
// stream (the coordinator only advances the watermark past an epoch
// once every owning node acknowledged it, and the primary's stream is
// in apply order). A query whose piggybacked CompactBelow — the
// coordinator's search snapshot — exceeds that stable epoch is refused
// with an opStale reply instead of being answered wrong; the coordinator
// falls back to the primary, whose next request also carries the
// watermark forward and thereby un-stales the replica.
//
// Integers are unsigned varints unless noted; u32 and f64 are 4- and
// 8-byte little-endian, the float as its IEEE 754 bits, so scores and
// points cross bit for bit. Every message is read through internal/wire's
// one bounds-checked Decoder, and counted u32 and point lists are its
// AppendU32s and AppendPoints forms, the point form shared with the
// write-ahead log's records.

// maxFrame caps a coordinator↔node frame at the write-ahead log's bound
// on one record, not at the client protocol's wire.MaxFrame: a mutation
// travels as one frame and is logged as one record, so any trajectory
// the log can replay — a million points and more — can be shipped, and
// one the log could not replay is refused before it is sent.
const maxFrame = 64 << 20

// op is a frame's kind, its first payload byte: the request op, the op a
// reply answers, or one of the reply-only kinds.
type op uint8

const (
	opMutate op = iota + 1
	opQuery
	opStats
	opSync
	opRerank
	// opError replies a failure: the rest of the payload is the message.
	opError
	// opStale is a replica's refusal of a read whose snapshot epoch its
	// state does not cover: not an error, a signal to read the primary.
	opStale
	// opSyncDoc, opEvent and opHeartbeat follow a full-sync header on a
	// replication connection.
	opSyncDoc
	opEvent
	opHeartbeat
)

func (o op) String() string {
	switch o {
	case opMutate:
		return "mutate"
	case opQuery:
		return "query"
	case opStats:
		return "stats"
	case opSync:
		return "sync"
	case opRerank:
		return "rerank"
	case opError:
		return "error"
	case opStale:
		return "stale"
	case opSyncDoc:
		return "sync doc"
	case opEvent:
		return "event"
	case opHeartbeat:
		return "heartbeat"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// request is a decoded request frame: op, CompactBelow, then the op's
// body — a wal record for opMutate, a queryRequest, a rerankRequest, or
// nothing for opStats and opSync. CompactBelow is the coordinator's
// compaction watermark: no mutation at or below it is still tracked as in
// flight by the coordinator, so the node reclaims tombstones at or below
// it. One residual race remains: the coordinator stops tracking an
// abandoned add when its call returns, not when its last request byte is
// provably dead, so a node wedged long enough for the watermark to
// advance can in principle apply a stale add after its fence was pruned.
// The stranded postings that result are invisible to searches (the
// coordinator's directory check drops them) and are replaced by any later
// mutation of the ID that reaches that node; see the ROADMAP anti-entropy
// item for full reclaim.
type request struct {
	Op           op
	CompactBelow uint64
	Mutate       *wal.Record
	Query        *queryRequest
	Rerank       *rerankRequest
}

// appendRequest appends req's payload to dst. A request missing its op's
// body encodes without one, which the node rejects.
func appendRequest(dst []byte, req *request) []byte {
	dst = append(dst, byte(req.Op))
	dst = binary.AppendUvarint(dst, req.CompactBelow)
	switch {
	case req.Op == opMutate && req.Mutate != nil:
		dst = wal.AppendRecord(dst, req.Mutate)
	case req.Op == opQuery && req.Query != nil:
		dst = req.Query.append(dst)
	case req.Op == opRerank && req.Rerank != nil:
		dst = req.Rerank.append(dst)
	}
	return dst
}

// decode parses a request payload into req. The query and rerank bodies
// a previous decode left in req are reused, slices and all, so a node
// connection decodes request after request without allocating; a
// mutation record is always fresh, because the node keeps its slices.
func (req *request) decode(p []byte) error {
	d := wire.NewDecoder(p)
	req.Op, req.CompactBelow = op(d.Byte()), d.Uvarint()
	switch req.Op {
	case opMutate:
		req.Mutate = decodeRecord(&d)
	case opQuery:
		if req.Query == nil {
			req.Query = new(queryRequest)
		}
		req.Query.decode(&d)
	case opRerank:
		if req.Rerank == nil {
			req.Rerank = new(rerankRequest)
		}
		req.Rerank.decode(&d)
	case opStats, opSync:
	default:
		d.Fail(fmt.Errorf("cluster: unknown request op %d", req.Op))
	}
	return d.Done(req.Op)
}

// queryRequest carries the query terms owned by the node — one group of
// the QueryPlan's term sharding — plus the inputs of the node-side
// cardinality window: QueryCard is the query's global fingerprint
// cardinality |F| (across all nodes, not just the terms routed here) and
// MaxDistance the effective Jaccard distance bound. A QueryCard of 0
// disables node-side pruning (the window would be meaningless without the
// query's true size).
//
// Limit is the result cap of a one-node plan: the node holds every query
// term, so its counts are final, and it ranks them itself and replies
// with its top Limit hits only, in the partials form. A request with a
// Limit must carry its term count as QueryCard, as a one-node plan's
// does; the node refuses one that does not. Limit 0 — every multi-node
// or uncapped plan — asks for every partial.
//
// Body: QueryCard, MaxDistance f64, Limit, term count, terms u32.
type queryRequest struct {
	Terms       []uint32
	QueryCard   int
	MaxDistance float64
	Limit       int
}

func (q *queryRequest) append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(q.QueryCard))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.MaxDistance))
	dst = binary.AppendUvarint(dst, uint64(q.Limit))
	return wire.AppendU32s(dst, q.Terms)
}

func (q *queryRequest) decode(d *wire.Decoder) {
	q.QueryCard, q.MaxDistance, q.Limit, q.Terms = d.Int("query card"), d.F64(), d.Int("query limit"), d.U32s(q.Terms)
}

// partials is a node's query reply: how many candidates its cardinality
// window pruned, and the node's partial count for every other candidate
// it holds — or, for a request with a Limit, the shared count of each of
// its top Limit hits — as (id u32, count u32) pairs in pairs — the bytes of the
// frame itself, so the coordinator sums them into its counter without
// decoding them into slices first. Term spaces of different nodes are
// disjoint, so summed partials are the exact |F ∩ G|. A candidate's
// replicated |G| is identical on every node, so a pruned candidate is
// pruned by all of its nodes and never reaches the merge.
//
// Body: pruned u32, then the pairs to the end of the frame. The node
// encodes it straight from its counter: beginPartials, appendPartial per
// candidate, endPartials.
type partials struct {
	pruned int
	pairs  []byte
}

// partialSize is the bytes of one (id, count) pair.
const partialSize = 8

func beginPartials(dst []byte) []byte { return append(dst, byte(opQuery), 0, 0, 0, 0) }

func appendPartial(dst []byte, id, count uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, id)
	return binary.LittleEndian.AppendUint32(dst, count)
}

// endPartials fills in the pruned count of the reply beginPartials
// opened at offset start of dst.
func endPartials(dst []byte, start, pruned int) []byte {
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(pruned))
	return dst
}

func (p *partials) decode(d *wire.Decoder) {
	p.pruned, p.pairs = int(d.U32()), d.Rest()
	if len(p.pairs)%partialSize != 0 {
		d.Fail(fmt.Errorf("cluster: %d partial-count bytes are not whole (id, count) pairs", len(p.pairs)))
	}
}

// len is the number of (id, count) pairs.
func (p *partials) len() int { return len(p.pairs) / partialSize }

// addTo sums every pair into c.
func (p *partials) addTo(c *bitmap.Counter) {
	for b := p.pairs; len(b) >= partialSize; b = b[partialSize:] {
		c.AddN(binary.LittleEndian.Uint32(b), int(binary.LittleEndian.Uint32(b[4:])))
	}
}

// rerankRequest asks a node to exact-score its slice of a fingerprint
// shortlist: IDs are shortlist members whose points the node owns (the
// coordinator groups by point owner before scattering), Query is the raw
// query trajectory, and Metric selects DTW (1) or discrete Fréchet (2).
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
//
// Body: Metric byte, Limit, id count, ids u32, point count, points as
// (lat f64, lon f64).
type rerankRequest struct {
	IDs    []uint32
	Query  []geo.Point
	Metric rerank.Metric
	Limit  int
}

func (r *rerankRequest) append(dst []byte) []byte {
	dst = append(dst, byte(r.Metric))
	dst = binary.AppendUvarint(dst, uint64(r.Limit))
	dst = wire.AppendU32s(dst, r.IDs)
	return wire.AppendPoints(dst, r.Query)
}

func (r *rerankRequest) decode(d *wire.Decoder) {
	r.Metric, r.Limit = rerank.Metric(d.Byte()), d.Int("rerank limit")
	r.IDs, r.Query = d.U32s(r.IDs), d.Points(r.Query)
}

// scored is one exact score a node computed.
type scored struct {
	ID    uint32
	Score float64
}

// rerankResponse returns the node's exact scores — scores only, never
// points, listed in the order of the request's IDs, which lets the
// coordinator match them to its shortlist in one walk. Candidates proved
// above the bar, by a bound or by an abandoned dynamic program, are
// absent from Scored and counted in Skipped.
// Missing lists shortlist IDs the node holds no points for (retention
// disabled, torn add, or a stale shortlist racing a delete); the
// coordinator aggregates Missing across nodes into one error naming them
// all.
//
// Body: Skipped, score count, (id u32, score f64) per score, missing
// count, missing ids u32.
type rerankResponse struct {
	Scored  []scored
	Skipped int
	Missing []uint32
}

func (r *rerankResponse) append(dst []byte) []byte {
	dst = append(dst, byte(opRerank))
	dst = binary.AppendUvarint(dst, uint64(r.Skipped))
	dst = binary.AppendUvarint(dst, uint64(len(r.Scored)))
	for _, s := range r.Scored {
		dst = binary.LittleEndian.AppendUint32(dst, s.ID)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Score))
	}
	return wire.AppendU32s(dst, r.Missing)
}

// decode reads the reply into r's own storage where it fits: a client
// decodes every reply into its connection's response.
func (r *rerankResponse) decode(d *wire.Decoder) {
	r.Skipped = d.Int("rerank skipped count")
	n := d.Count(12)
	if cap(r.Scored) < n {
		r.Scored = make([]scored, n)
	}
	r.Scored = r.Scored[:n]
	for i := range r.Scored {
		r.Scored[i] = scored{ID: d.U32(), Score: d.F64()}
	}
	r.Missing = d.U32s(r.Missing)
}

// append encodes the node's answer to opStats: every field but Node and
// Replicas, which the coordinator fills in from its own view.
func (s *NodeStats) append(dst []byte) []byte {
	dst = append(dst, byte(opStats))
	for _, v := range s.wireFields() {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func (s *NodeStats) wireFields() [18]uint64 {
	return [...]uint64{uint64(s.Terms), uint64(s.Postings), uint64(s.Docs), uint64(s.Tombstones),
		s.Epoch, s.StableEpoch, uint64(s.WALBytes), uint64(s.WALSegments), s.WALRecords, s.WALSyncs,
		uint64(s.WALLastSync), s.FullSyncs, uint64(s.Subscribers), uint64(s.RetainedDocs),
		uint64(s.RetainedPoints), uint64(s.RetainedBytes), s.RerankScored, s.RerankSkipped}
}

// decode reads the fields in wireFields' order: the calls of a composite
// literal run left to right.
func (s *NodeStats) decode(d *wire.Decoder) {
	const n = "stats value"
	*s = NodeStats{Terms: d.Int(n), Postings: d.Int(n), Docs: d.Int(n), Tombstones: d.Int(n),
		Epoch: d.Uvarint(), StableEpoch: d.Uvarint(), WALBytes: int64(d.Int(n)), WALSegments: d.Int(n),
		WALRecords: d.Uvarint(), WALSyncs: d.Uvarint(), WALLastSync: time.Duration(d.Int(n)),
		FullSyncs: d.Uvarint(), Subscribers: d.Int(n), RetainedDocs: d.Int(n), RetainedPoints: d.Int(n),
		RetainedBytes: int64(d.Int(n)), RerankScored: d.Uvarint(), RerankSkipped: d.Uvarint()}
}

// syncHeader opens a full sync: the primary's highest compaction
// watermark at the snapshot cut — the replica's starting stable epoch —
// and how many opSyncDoc frames follow. Every mutation applied after the
// cut follows the docs on the same connection as opEvent frames.
//
// Body: Watermark, Docs.
type syncHeader struct {
	Watermark uint64
	Docs      int
}

func (h *syncHeader) append(dst []byte) []byte {
	dst = append(dst, byte(opSync))
	dst = binary.AppendUvarint(dst, h.Watermark)
	return binary.AppendUvarint(dst, uint64(h.Docs))
}

func (h *syncHeader) decode(d *wire.Decoder) {
	h.Watermark, h.Docs = d.Uvarint(), d.Int("sync doc count")
}

// A sync doc is one trajectory's shard state in a full sync or a
// snapshot, as the mutation record that recreates it: an OpDelete at a
// tombstone's epoch — tombstones ship too, to fence stale mutations on
// the replica exactly as on the primary — or the add of a live doc, an
// OpAddPoints when this node is the trajectory's point owner, so replicas
// and snapshots hold retention identically to the primary.
//
// Body: the record's wal.AppendRecord bytes.
func appendSyncDoc(dst []byte, rec *wal.Record) []byte {
	return wal.AppendRecord(append(dst, byte(opSyncDoc)), rec)
}

// appendDocFrame appends rec as one whole sync doc frame: the unit of a
// full sync's body and of a version 2 snapshot's.
func appendDocFrame(dst []byte, rec *wal.Record) ([]byte, error) {
	start := len(dst)
	return wire.EndFrame(appendSyncDoc(wire.BeginFrame(dst), rec), start, maxFrame)
}

// decodeRecord parses the rest of d as one mutation record, into fresh
// slices: the node keeps them. It is nil when d fails.
func decodeRecord(d *wire.Decoder) *wal.Record {
	rec, err := wal.DecodeRecord(d.Rest())
	if err != nil {
		d.Fail(fmt.Errorf("cluster: mutation record: %w", err))
	}
	return rec
}

// replEvent is one replication stream message: the record of a mutation
// the primary applied, or — with a zero Op — a heartbeat. Watermark
// piggybacks the primary's highest known compaction watermark: the
// replica's state provably covers every mutation at or below it, so it
// gates replica reads.
//
// Body: Watermark, then for an opEvent the record's wal.AppendRecord
// bytes; an opHeartbeat frame ends after the watermark.
type replEvent struct {
	wal.Record
	Watermark uint64
}

func (e *replEvent) append(dst []byte) []byte {
	if e.Op == 0 {
		return binary.AppendUvarint(append(dst, byte(opHeartbeat)), e.Watermark)
	}
	dst = binary.AppendUvarint(append(dst, byte(opEvent)), e.Watermark)
	return wal.AppendRecord(dst, &e.Record)
}

func (e *replEvent) decode(d *wire.Decoder, kind op) {
	*e = replEvent{Watermark: d.Uvarint()}
	if kind == opEvent {
		if rec := decodeRecord(d); rec != nil {
			e.Record = *rec
		}
	}
}

// appendError appends an opError reply carrying msg.
func appendError(dst []byte, msg string) []byte {
	return append(append(dst, byte(opError)), msg...)
}

// response is a decoded reply frame. Kind says which field holds its
// body: none for an opMutate acknowledgement or an opStale refusal, Err
// for opError, and the field named after the kind otherwise.
type response struct {
	Kind   op
	Err    string
	Query  partials
	Stats  NodeStats
	Rerank rerankResponse
	Sync   syncHeader
	Doc    *wal.Record
	Event  replEvent
}

// decode parses a reply payload into r. A query reply's pairs alias p.
func (r *response) decode(p []byte) error {
	d := wire.NewDecoder(p)
	switch r.Kind = op(d.Byte()); r.Kind {
	case opMutate, opStale:
	case opError:
		r.Err = string(d.Rest())
	case opQuery:
		r.Query.decode(&d)
	case opStats:
		r.Stats.decode(&d)
	case opRerank:
		r.Rerank.decode(&d)
	case opSync:
		r.Sync.decode(&d)
	case opSyncDoc:
		r.Doc = decodeRecord(&d)
	case opEvent, opHeartbeat:
		r.Event.decode(&d, r.Kind)
	default:
		d.Fail(fmt.Errorf("cluster: unknown reply kind %d", r.Kind))
	}
	return d.Done(r.Kind)
}
