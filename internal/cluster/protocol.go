package cluster

import (
	"encoding/binary"
	"errors"
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
// one bounds-checked decoder, kept next to its type; docs/protocol.md
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
// groups into queryRequest scatters. Nothing plan-specific crosses the
// wire — a node sees the same Terms/QueryCard/MaxDistance triple whether
// the plan was freshly built or reused — so plan caching is invisible to
// this protocol.
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
// stays coordinator-side, applied after the partials are merged.

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
// points cross bit for bit.

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
	d := decoder{buf: p}
	k, err := d.byte()
	if err != nil {
		return err
	}
	req.Op = op(k)
	if req.CompactBelow, err = d.uvarint(); err != nil {
		return err
	}
	switch req.Op {
	case opMutate:
		req.Mutate, err = decodeRecord(&d)
	case opQuery:
		if req.Query == nil {
			req.Query = new(queryRequest)
		}
		err = req.Query.decode(&d)
	case opRerank:
		if req.Rerank == nil {
			req.Rerank = new(rerankRequest)
		}
		err = req.Rerank.decode(&d)
	case opStats, opSync:
	default:
		return fmt.Errorf("cluster: unknown request op %d", k)
	}
	if err != nil {
		return err
	}
	return d.done(req.Op)
}

// queryRequest carries the query terms owned by the node — one group of
// the QueryPlan's term sharding — plus the inputs of the node-side
// cardinality window: QueryCard is the query's global fingerprint
// cardinality |F| (across all nodes, not just the terms routed here) and
// MaxDistance the effective Jaccard distance bound. A QueryCard of 0
// disables node-side pruning (the window would be meaningless without the
// query's true size).
//
// Body: QueryCard, MaxDistance f64, term count, terms u32.
type queryRequest struct {
	Terms       []uint32
	QueryCard   int
	MaxDistance float64
}

func (q *queryRequest) append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(q.QueryCard))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(q.MaxDistance))
	return appendU32s(dst, q.Terms)
}

func (q *queryRequest) decode(d *decoder) error {
	card, err := d.uvarint()
	if err != nil {
		return err
	}
	q.QueryCard = int(card)
	if q.MaxDistance, err = d.f64(); err != nil {
		return err
	}
	q.Terms, err = d.u32s(q.Terms)
	return err
}

// partials is a node's query reply: how many candidates its cardinality
// window pruned, and the node's partial count for every other candidate
// it holds, as (id u32, count u32) pairs in pairs — the bytes of the
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

func (p *partials) decode(d *decoder) error {
	pruned, err := d.u32()
	if err != nil {
		return err
	}
	if len(d.buf)%partialSize != 0 {
		return fmt.Errorf("cluster: %d partial-count bytes are not whole (id, count) pairs", len(d.buf))
	}
	p.pruned, p.pairs = int(pruned), d.rest()
	return nil
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
	dst = appendU32s(dst, r.IDs)
	return appendPoints(dst, r.Query)
}

func (r *rerankRequest) decode(d *decoder) error {
	m, err := d.byte()
	if err != nil {
		return err
	}
	r.Metric = rerank.Metric(m)
	limit, err := d.uvarint()
	if err != nil {
		return err
	}
	r.Limit = int(limit)
	if r.IDs, err = d.u32s(r.IDs); err != nil {
		return err
	}
	r.Query, err = d.points(r.Query)
	return err
}

// scored is one exact score a node computed.
type scored struct {
	ID    uint32
	Score float64
}

// rerankResponse returns the node's exact scores — scores only, never
// points. Candidates proved above the bar, by a bound or by an abandoned
// dynamic program, are absent from Scored and counted in Skipped.
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
	return appendU32s(dst, r.Missing)
}

func (r *rerankResponse) decode(d *decoder) error {
	skipped, err := d.uvarint()
	if err != nil {
		return err
	}
	n, err := d.count(12)
	if err != nil {
		return err
	}
	*r = rerankResponse{Skipped: int(skipped), Scored: make([]scored, n)}
	for i := range r.Scored {
		if r.Scored[i].ID, err = d.u32(); err != nil {
			return err
		}
		if r.Scored[i].Score, err = d.f64(); err != nil {
			return err
		}
	}
	r.Missing, err = d.u32s(nil)
	return err
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

func (s *NodeStats) decode(d *decoder) error {
	var v [18]uint64
	for i := range v {
		var err error
		if v[i], err = d.uvarint(); err != nil {
			return err
		}
	}
	*s = NodeStats{Terms: int(v[0]), Postings: int(v[1]), Docs: int(v[2]), Tombstones: int(v[3]),
		Epoch: v[4], StableEpoch: v[5], WALBytes: int64(v[6]), WALSegments: int(v[7]), WALRecords: v[8],
		WALSyncs: v[9], WALLastSync: time.Duration(v[10]), FullSyncs: v[11], Subscribers: int(v[12]),
		RetainedDocs: int(v[13]), RetainedPoints: int(v[14]), RetainedBytes: int64(v[15]),
		RerankScored: v[16], RerankSkipped: v[17]}
	return nil
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

func (h *syncHeader) decode(d *decoder) error {
	var err error
	if h.Watermark, err = d.uvarint(); err != nil {
		return err
	}
	docs, err := d.uvarint()
	h.Docs = int(docs)
	return err
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
// slices: the node keeps them.
func decodeRecord(d *decoder) (*wal.Record, error) {
	rec, err := wal.DecodeRecord(d.rest())
	if err != nil {
		return nil, fmt.Errorf("cluster: mutation record: %w", err)
	}
	return rec, nil
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

func (e *replEvent) decode(d *decoder, kind op) error {
	*e = replEvent{}
	var err error
	if e.Watermark, err = d.uvarint(); err != nil || kind == opHeartbeat {
		return err
	}
	rec, err := decodeRecord(d)
	if err != nil {
		return err
	}
	e.Record = *rec
	return nil
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
	d := decoder{buf: p}
	k, err := d.byte()
	if err != nil {
		return err
	}
	r.Kind = op(k)
	switch r.Kind {
	case opMutate, opStale:
	case opError:
		r.Err = string(d.rest())
	case opQuery:
		err = r.Query.decode(&d)
	case opStats:
		err = r.Stats.decode(&d)
	case opRerank:
		err = r.Rerank.decode(&d)
	case opSync:
		err = r.Sync.decode(&d)
	case opSyncDoc:
		r.Doc, err = decodeRecord(&d)
	case opEvent, opHeartbeat:
		err = r.Event.decode(&d, r.Kind)
	default:
		return fmt.Errorf("cluster: unknown reply kind %d", k)
	}
	if err != nil {
		return err
	}
	return d.done(r.Kind)
}

// errTruncated reports a payload shorter than its own encoding claims.
var errTruncated = errors.New("cluster: truncated frame")

// decoder walks a frame payload with bounds checking. Element counts are
// checked against the bytes left before anything is allocated from them,
// so a hostile count costs nothing.
type decoder struct {
	buf []byte
}

func (d *decoder) byte() (byte, error) {
	if len(d.buf) < 1 {
		return 0, errTruncated
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, errTruncated
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if len(d.buf) < 4 {
		return 0, errTruncated
	}
	v := binary.LittleEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, nil
}

func (d *decoder) f64() (float64, error) {
	if len(d.buf) < 8 {
		return 0, errTruncated
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v, nil
}

// count reads an element count whose elements take size bytes apiece
// and checks they fit in what is left.
func (d *decoder) count(size int) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.buf)/size) {
		return 0, errTruncated
	}
	return int(v), nil
}

// u32s reads a counted u32 list into into's storage when it fits.
func (d *decoder) u32s(into []uint32) ([]uint32, error) {
	n, err := d.count(4)
	if err != nil {
		return nil, err
	}
	if cap(into) < n {
		into = make([]uint32, n)
	}
	into = into[:n]
	for i := range into {
		into[i] = binary.LittleEndian.Uint32(d.buf[4*i:])
	}
	d.buf = d.buf[4*n:]
	return into, nil
}

// points reads a counted point list into into's storage when it fits.
func (d *decoder) points(into []geo.Point) ([]geo.Point, error) {
	n, err := d.count(16)
	if err != nil {
		return nil, err
	}
	if cap(into) < n {
		into = make([]geo.Point, n)
	}
	into = into[:n]
	for i := range into {
		b := d.buf[16*i:]
		into[i] = geo.Point{
			Lat: math.Float64frombits(binary.LittleEndian.Uint64(b)),
			Lon: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		}
	}
	d.buf = d.buf[16*n:]
	return into, nil
}

// rest consumes and returns everything left.
func (d *decoder) rest() []byte {
	b := d.buf
	d.buf = d.buf[len(d.buf):]
	return b
}

// done rejects trailing bytes: a frame whose body outlasts its encoding
// is not one this binary wrote.
func (d *decoder) done(kind op) error {
	if len(d.buf) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after a %s frame", len(d.buf), kind)
	}
	return nil
}

func appendU32s(dst []byte, vs []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

func appendPoints(dst []byte, pts []geo.Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	for _, p := range pts {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Lat))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Lon))
	}
	return dst
}
