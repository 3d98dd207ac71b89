// Package cluster implements the paper's distributed index (§III-A4,
// §VI-E) as a real client/server system on TCP: shard nodes own disjoint
// ranges of the geodab term space and serve posting lookups; a coordinator
// routes additions and deletions and scatter-gathers queries, merging
// partial intersection counts into Jaccard-ranked results. Document
// cardinalities are replicated to the owning nodes, so each node applies
// the threshold-pruning cardinality window before encoding its partial
// counts — non-qualifying candidates never cross the wire — and a node
// that holds every term of a capped query ranks it itself, shipping only
// its top hits.
//
// Shard nodes are durable when started with a write-ahead log: every
// applied mutation is appended (group-committed fsync) before it touches
// the in-memory index, periodic snapshots compact the log, and a restart
// replays the surviving records on top of the latest snapshot — epoch
// fencing makes the replay idempotent. Nodes can also run as log-shipped
// read replicas of a primary (full sync + live mutation stream), and the
// coordinator can fan reads out across a shard's replica set.
//
// Everything speaks length-prefixed binary frames (protocol.go): the
// RPCs, the replication stream, and the node snapshot's body — no
// dependencies beyond the standard library.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"geodabs/internal/geo"
	"geodabs/internal/index"
	"geodabs/internal/rerank"
	"geodabs/internal/wal"
	"geodabs/internal/wire"
)

// nodeDoc is a node's per-trajectory bookkeeping: the terms it owns for
// the trajectory and the epoch of the last mutation applied to it; the
// trajectory's total fingerprint cardinality |G|, replicated from the
// coordinator, is in the shard state's card table beside it. A nil
// Terms slice is a tombstone — the trajectory was deleted at Epoch, it
// has no card, and the entry lingers only to fence stale adds until
// the coordinator's compaction watermark passes the epoch; a tombstone
// has no postings, so it can never surface as a query candidate.
// checkRecord keeps termless adds out, so nil terms mean nothing else.
//
// When this node is the trajectory's point owner under point retention,
// points holds the raw trajectory. It is replaced wholesale by a newer
// mutation and never mutated in place, so a rerank can snapshot the slice
// header under the read lock and score outside it.
type nodeDoc struct {
	terms  []uint32
	epoch  uint64
	points []geo.Point
}

// nodeOptions is the resolved StartNode option set.
type nodeOptions struct {
	walDir        string
	walOpts       wal.Options
	snapshotBytes int64
	replicaOf     string
}

// NodeOption configures a shard node at StartNode.
type NodeOption func(*nodeOptions)

// WithWALDir makes the node durable: every applied mutation is appended
// to a write-ahead log in dir before it is applied, and on restart the
// node recovers its state from the latest snapshot plus the log. The
// directory is created if missing and must be private to this node.
func WithWALDir(dir string) NodeOption {
	return func(o *nodeOptions) { o.walDir = dir }
}

// WithWALSync tunes the log's durability policy: an fsync at least every
// `every` records (1 = group-committed fsync on every mutation, the
// default) and at least every interval when every > 1.
func WithWALSync(every int, interval time.Duration) NodeOption {
	return func(o *nodeOptions) {
		o.walOpts.SyncEvery = every
		o.walOpts.SyncInterval = interval
	}
}

// WithWALSegmentBytes sets the size past which the log rolls to a fresh
// segment file (default 16 MiB).
func WithWALSegmentBytes(n int64) NodeOption {
	return func(o *nodeOptions) { o.walOpts.SegmentBytes = n }
}

// WithSnapshotBytes sets the log size past which the node snapshots its
// state and truncates the replayed segments (log compaction). Default
// 64 MiB; 0 keeps the default, negative disables automatic snapshots
// (Close still writes a final one).
func WithSnapshotBytes(n int64) NodeOption {
	return func(o *nodeOptions) { o.snapshotBytes = n }
}

// WithReplicaOf starts the node as a read replica: it performs a full
// sync from the primary at addr, tails its live mutation stream, and
// serves queries (refusing mutations, and refusing queries whose
// snapshot epoch its replicated state does not yet cover). Replicas
// recover by re-syncing, so WithReplicaOf cannot be combined with
// WithWALDir.
func WithReplicaOf(addr string) NodeOption {
	return func(o *nodeOptions) { o.replicaOf = addr }
}

// defaultSnapshotBytes is the WAL size that triggers an automatic
// snapshot + truncate when WithSnapshotBytes is not given.
const defaultSnapshotBytes = 64 << 20

// replBacklog is the per-subscriber event buffer: a replica that falls
// this many events behind the primary's mutation stream is disconnected
// and must full-sync afresh.
const replBacklog = 4096

// replHeartbeatInterval is how often a primary pushes a watermark
// heartbeat to idle replication streams.
const replHeartbeatInterval = 500 * time.Millisecond

// Node is a shard server holding the posting lists of the terms routed to
// it. Start it with StartNode; stop it with Close (graceful: flushes and
// snapshots a durable node) or Kill (abrupt, for crash testing).
type Node struct {
	ln net.Listener

	// wal is the node's write-ahead log, nil for memory-only nodes and
	// replicas. applyMu is the outer mutation lock: mutations hold it
	// shared across their append-then-apply window, Snapshot holds it
	// exclusively, so a snapshot plus the segments below its Seal
	// boundary always contain exactly the same mutations.
	wal           *wal.Log
	walDir        string
	snapshotBytes int64
	applyMu       sync.RWMutex
	snapMu        sync.Mutex // serializes snapshots (single flight)
	snapWG        sync.WaitGroup
	snapshotting  atomic.Bool

	mu sync.RWMutex
	shardState
	// compactedBelow is the highest compaction watermark seen, so a sweep
	// runs only when the watermark advances. Atomic so the per-request
	// fast path stays off the write lock — pooled queries must not
	// serialize through a lock acquisition just to re-check the
	// watermark.
	compactedBelow atomic.Uint64

	// Replication. subs are the replicas tailing this primary's stream;
	// publishes happen under mu's write lock (mutations and watermark
	// advances are serialized there), so subscriber teardown on overflow
	// is race-free. fullSyncs counts syncs served (primary) or performed
	// (replica).
	subMu     sync.Mutex
	subs      []*subscriber
	fullSyncs atomic.Uint64

	// Replica state: primaryAddr is set iff the node is a replica;
	// stableEpoch is the highest stream watermark seen — its state
	// provably covers every mutation at or below it.
	primaryAddr string
	stableEpoch atomic.Uint64

	// Rerank counters, over the node's lifetime: candidates whose exact
	// score was computed, and candidates proved outside the top limit
	// without it — by the bounded kernel's chord-cost pass, or by its
	// dynamic program abandoned part-way.
	rerankScored  atomic.Uint64
	rerankSkipped atomic.Uint64

	connWG    sync.WaitGroup
	replWG    sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once
	killed    atomic.Bool
}

// shardState is what a node's shard holds — docs, postings, cards, and
// two counters derived from them — and what a full sync or a snapshot
// carries. A replica or a recovering node builds one doc by doc, as the
// frames are read, and installs it whole. The postings are the posting
// store a local shard uses too (index.Postings), fed each doc's routed
// terms, and cards is a shard's card table (index.CardTable), holding
// each live doc's replicated |G|: the lookup of a node's cardinality
// window and of its ranking walk. Docs, tombstones and epochs are the
// node's own bookkeeping.
type shardState struct {
	postings index.Postings
	cards    index.CardTable
	docs     map[uint32]nodeDoc
	// tombstones holds the IDs of the docs entries with nil terms, so a
	// compaction sweep visits the fences and never the live docs.
	tombstones map[uint32]struct{}
	// maxEpoch is the highest mutation epoch applied to this node.
	maxEpoch uint64
}

func newShardState() shardState {
	return shardState{postings: make(index.Postings), docs: make(map[uint32]nodeDoc), tombstones: make(map[uint32]struct{})}
}

// install adds one doc of a full sync or a snapshot: the record that
// recreates it (see syncDocs). The state must be exclusively the
// caller's, and doc IDs unique: a sync or snapshot that repeats one, or
// that holds a record checkRecord refuses, is not one a node wrote.
func (s *shardState) install(rec *wal.Record) error {
	if _, dup := s.docs[rec.ID]; dup {
		return fmt.Errorf("cluster: doc %d appears twice", rec.ID)
	}
	if err := checkRecord(rec); err != nil {
		return fmt.Errorf("cluster: doc %d: %w", rec.ID, err)
	}
	if rec.Epoch > s.maxEpoch {
		s.maxEpoch = rec.Epoch
	}
	s.put(rec)
	return nil
}

// put places a record's doc: a delete's tombstone, or an add's doc, its
// card and its postings. The ID must hold no doc, or one whose postings
// and tombstone entry are already withdrawn.
func (s *shardState) put(rec *wal.Record) {
	if rec.Op == wal.OpDelete {
		s.docs[rec.ID] = nodeDoc{epoch: rec.Epoch}
		s.cards.Delete(rec.ID)
		s.tombstones[rec.ID] = struct{}{}
		return
	}
	s.docs[rec.ID] = nodeDoc{terms: rec.Terms, epoch: rec.Epoch, points: rec.Points}
	s.cards.Set(rec.ID, int(rec.Card))
	s.postings.Add(rec.ID, rec.Terms)
}

// syncDocs lists the state's docs, as a full sync sends them and a
// snapshot stores them: each as the mutation record that recreates it —
// an OpDelete at a tombstone's epoch, an OpAddPoints for a doc with
// retained points, an OpAdd otherwise. The slices are shared, not
// copied: applied mutations replace a doc's slices wholesale, never
// mutate them. The caller holds the node's lock.
func (s *shardState) syncDocs() []wal.Record {
	docs := make([]wal.Record, 0, len(s.docs))
	for id, d := range s.docs {
		card, _ := s.cards.Get(id)
		rec := wal.Record{Op: wal.OpAdd, Epoch: d.epoch, ID: id, Card: uint32(card), Terms: d.terms, Points: d.points}
		switch {
		case d.terms == nil:
			rec = wal.Record{Op: wal.OpDelete, Epoch: d.epoch, ID: id}
		case d.points != nil:
			rec.Op = wal.OpAddPoints
		}
		docs = append(docs, rec)
	}
	return docs
}

// subscriber is one replica's tap on the primary's mutation stream.
type subscriber struct {
	ch chan replEvent
}

// StartNode listens on addr (e.g. "127.0.0.1:0") and serves shard requests
// until Close. With WithWALDir it first recovers its state from the
// snapshot and write-ahead log in that directory; with WithReplicaOf it
// starts as a read replica of the given primary.
func StartNode(addr string, opts ...NodeOption) (*Node, error) {
	var o nodeOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.replicaOf != "" && o.walDir != "" {
		return nil, fmt.Errorf("cluster: a replica recovers by re-syncing from its primary; WithReplicaOf and WithWALDir are mutually exclusive")
	}
	n := &Node{
		shardState:  newShardState(),
		closing:     make(chan struct{}),
		primaryAddr: o.replicaOf,
	}
	if o.walDir != "" {
		n.walDir = o.walDir
		n.snapshotBytes = o.snapshotBytes
		if n.snapshotBytes == 0 {
			n.snapshotBytes = defaultSnapshotBytes
		}
		if err := n.recover(o.walDir, o.walOpts); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if n.wal != nil {
			n.wal.Close()
		}
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	n.ln = ln
	n.connWG.Add(1)
	go n.acceptLoop()
	if n.primaryAddr != "" {
		n.replWG.Add(1)
		go n.replicationLoop()
	}
	return n, nil
}

// recover rebuilds the node's state from its snapshot (if any) plus a
// replay of the write-ahead log. Replayed records that the snapshot
// already covers are fenced off by their epochs, so the combination is
// exact regardless of where the last compaction left the log.
func (n *Node) recover(dir string, opts wal.Options) error {
	if err := n.loadSnapshot(dir); err != nil {
		return err
	}
	l, err := wal.Open(dir, opts)
	if err != nil {
		return err
	}
	if err := l.Replay(func(r *wal.Record) error {
		n.apply(r)
		return nil
	}); err != nil {
		l.Close()
		return fmt.Errorf("cluster: wal replay: %w", err)
	}
	n.wal = l
	return nil
}

// Addr returns the node's listen address for coordinators to dial.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close stops the listener, waits for in-flight connections to finish,
// and — for a durable node — flushes the log and writes a final
// compacting snapshot so the next start recovers fast. It is safe to
// call multiple times.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.closing)
		err = n.ln.Close()
		n.connWG.Wait()
		n.replWG.Wait()
		n.snapWG.Wait()
		if n.wal != nil {
			if serr := n.Snapshot(); serr != nil && err == nil {
				err = serr
			}
			if werr := n.wal.Close(); werr != nil && err == nil {
				err = werr
			}
		}
	})
	return err
}

// Kill abruptly stops the node: the listener and connections are torn
// down and the write-ahead log is abandoned without a flush, snapshot,
// or final sync — the in-process stand-in for SIGKILL. State the sync
// policy had already made durable survives a subsequent StartNode on the
// same WAL directory; nothing else does. For crash testing.
func (n *Node) Kill() {
	n.closeOnce.Do(func() {
		n.killed.Store(true)
		close(n.closing)
		n.ln.Close()
		n.connWG.Wait()
		n.replWG.Wait()
		n.snapWG.Wait()
		if n.wal != nil {
			n.wal.Kill()
		}
	})
}

// acceptLoop serves each accepted connection on its own goroutine until
// the node closes.
func (n *Node) acceptLoop() {
	defer n.connWG.Done()
	wire.AcceptLoop(n.ln, n.closing, func(conn net.Conn) {
		n.connWG.Add(1)
		go n.serve(conn)
	})
}

// serve handles one coordinator connection until EOF or node shutdown.
// An opSync request hijacks the connection into a one-way replication
// push stream for its remaining lifetime. A request that does not decode
// is answered with an error; its frame is whole, so the stream stays in
// step and the connection serves on.
func (n *Node) serve(conn net.Conn) {
	defer n.connWG.Done()
	defer conn.Close()
	// Unblock the read when the node shuts down.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-n.closing:
			conn.Close()
		case <-stop:
		}
	}()
	f := wire.NewConn(conn, maxFrame)
	var req request
	for {
		p, err := f.ReadFrame()
		if err != nil {
			return // EOF or connection torn down
		}
		reply := f.BeginFrame()
		if err := req.decode(p); err != nil {
			reply = appendError(reply, err.Error())
		} else if req.Op == opSync {
			n.serveSync(f)
			return
		} else {
			reply = n.handle(reply, &req)
		}
		if err := f.SendFrame(reply); err != nil {
			return
		}
	}
}

// handle answers one decoded request, appending the reply payload to dst.
func (n *Node) handle(dst []byte, req *request) []byte {
	// A replica compacts only at watermark events in the replication
	// stream — the position where its primary compacted — never from a
	// request's piggybacked watermark. A request can race ahead of the
	// stream, and sweeping a tombstone fence early would let the replica
	// apply a stale streamed add that the primary (fence still in place
	// at that stream position) ignored: silent divergence.
	if n.primaryAddr == "" {
		n.compact(req.CompactBelow)
	}
	// The replica's state may not yet cover a read's snapshot epoch: it
	// refuses rather than answer from missing mutations, and the
	// coordinator reads the primary instead.
	stale := n.primaryAddr != "" && req.CompactBelow > n.stableEpoch.Load()
	switch req.Op {
	case opMutate:
		if n.primaryAddr != "" {
			return appendError(dst, "node is a read-only replica")
		}
		if err := checkRecord(req.Mutate); err != nil {
			return appendError(dst, err.Error())
		}
		if err := n.mutate(req.Mutate); err != nil {
			return appendError(dst, err.Error())
		}
		return append(dst, byte(opMutate))
	case opQuery:
		if stale {
			return append(dst, byte(opStale))
		}
		return n.query(dst, req.Query)
	case opRerank:
		if stale {
			return append(dst, byte(opStale))
		}
		return n.rerank(dst, req.Rerank)
	case opStats:
		return n.stats().append(dst)
	default:
		return appendError(dst, fmt.Sprintf("unknown op %d", req.Op))
	}
}

// checkRecord rejects, before it is logged, a mutation record the
// coordinator never builds — the node reads them off a socket. The
// record codec already refuses a delete with terms and a plain add with
// points. An add needs at least one term: nil terms are how a nodeDoc
// marks a tombstone, so a termless add would be swept by compact as a
// tombstone the node never counted. And an OpAddPoints record must carry
// points: the node would otherwise log a point-owner add it cannot serve
// a rerank from. A card of 2³²−1 is refused too: no fingerprint set is
// that large, and the card table cannot hold it.
func checkRecord(rec *wal.Record) error {
	if rec.Op == wal.OpDelete {
		return nil
	}
	if len(rec.Terms) == 0 {
		return errors.New("add record carries no terms")
	}
	if rec.Card == math.MaxUint32 {
		return errors.New("add record's card is out of range")
	}
	if rec.Op == wal.OpAddPoints && len(rec.Points) == 0 {
		return errors.New("add record's points do not match its op")
	}
	return nil
}

// mutate logs and applies one mutation. The write-ahead append happens
// before the in-memory apply and the coordinator's ack, under the shared
// apply lock, so a crash never acknowledges a mutation the log does not
// hold.
func (n *Node) mutate(rec *wal.Record) error {
	n.applyMu.RLock()
	defer n.applyMu.RUnlock()
	if n.wal != nil {
		//geodabs:vet-ignore durability contract: append-then-apply must hold the shared apply lock so a crash never acks an unlogged mutation (docs/durability.md)
		if err := n.wal.Append(*rec); err != nil {
			return err
		}
	}
	n.apply(rec)
	n.maybeSnapshot()
	return nil
}

// apply is the one place a mutation record meets the node's state: the
// request path (mutate), WAL replay (recover) and the replica stream
// (applyEvent) all come through it, so a primary, its recovered self and
// its replicas cannot drift.
//
// An add replaces whatever the node held for the ID. An add at or below
// the ID's last applied epoch is stale — an abandoned call that lost to
// its own cleanup delete, or a duplicate retry (or a WAL replay over a
// snapshot that already covers it) — and is ignored, so cleanup deletes
// cannot be undone by the failed add racing them onto the node. A
// delete withdraws the trajectory's postings and leaves a tombstone at
// its epoch to fence stale adds; only a strictly newer mutation
// supersedes it. Deleting an unknown ID still plants the fence: the
// cleanup of a failed add may reach the node before the add itself does.
func (n *Node) apply(rec *wal.Record) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rec.Epoch > n.maxEpoch {
		n.maxEpoch = rec.Epoch
	}
	defer n.publishLocked(replEvent{Record: *rec, Watermark: n.compactedBelow.Load()})
	if doc, ok := n.docs[rec.ID]; ok {
		if doc.epoch > rec.Epoch || (rec.Op != wal.OpDelete && doc.epoch == rec.Epoch) {
			return // stale or duplicate mutation
		}
		// Withdraw the doc the record supersedes; put replaces its entry.
		n.postings.Remove(rec.ID, doc.terms)
		if doc.terms == nil {
			delete(n.tombstones, rec.ID)
		}
	}
	n.put(rec)
}

// publishLocked fans an event out to every replication subscriber. The
// caller holds mu's write lock, so publishes are serialized in apply
// order. A subscriber whose buffer is full has fallen too far behind to
// tail the stream: its channel is closed (safe — no other publisher can
// race this one) and its replica reconnects with a fresh full sync.
func (n *Node) publishLocked(ev replEvent) {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	kept := n.subs[:0]
	for _, sub := range n.subs {
		select {
		case sub.ch <- ev:
			kept = append(kept, sub)
		default:
			close(sub.ch) // overflow: force a fresh full sync
		}
	}
	n.subs = kept
}

// unsubscribe withdraws a replication subscriber, if still registered.
func (n *Node) unsubscribe(sub *subscriber) {
	n.subMu.Lock()
	defer n.subMu.Unlock()
	for i, s := range n.subs {
		if s == sub {
			n.subs = append(n.subs[:i], n.subs[i+1:]...)
			return
		}
	}
}

// syncBatchBytes is about how many bytes of doc frames a full sync
// builds before each write.
const syncBatchBytes = 64 << 10

// serveSync answers a replica's full-sync request and then pushes the
// live mutation stream until the connection dies, the replica falls
// behind, or the node shuts down. The state snapshot and the stream
// subscription are taken under one read-lock acquisition, so the stream
// carries exactly the mutations applied after the snapshot cut.
func (n *Node) serveSync(f *wire.Conn) {
	if n.primaryAddr != "" {
		f.SendFrame(appendError(f.BeginFrame(), "node is a replica; sync from the primary"))
		return
	}
	n.mu.RLock()
	docs := n.syncDocs()
	watermark := n.compactedBelow.Load()
	sub := &subscriber{ch: make(chan replEvent, replBacklog)}
	n.subMu.Lock()
	n.subs = append(n.subs, sub)
	n.subMu.Unlock()
	n.mu.RUnlock()
	defer n.unsubscribe(sub)
	n.fullSyncs.Add(1)
	hdr := syncHeader{Watermark: watermark, Docs: len(docs)}
	buf, err := wire.EndFrame(hdr.append(f.BeginFrame()), 0, maxFrame)
	for i := 0; err == nil && i < len(docs); i++ {
		if buf, err = appendDocFrame(buf, &docs[i]); err == nil && len(buf) >= syncBatchBytes {
			err = f.WriteFrames(buf)
			buf = buf[:0]
		}
	}
	if err != nil || f.WriteFrames(buf) != nil {
		return
	}
	heartbeat := time.NewTicker(replHeartbeatInterval)
	defer heartbeat.Stop()
	for {
		var ev replEvent
		select {
		case e, ok := <-sub.ch:
			if !ok {
				return // overflowed: the replica must full-sync afresh
			}
			ev = e
		case <-heartbeat.C:
			ev = replEvent{Watermark: n.compactedBelow.Load()}
		case <-n.closing:
			return
		}
		if err := f.SendFrame(ev.append(f.BeginFrame())); err != nil {
			return
		}
	}
}

// compact reclaims tombstones at or below the coordinator's watermark:
// no mutation that old can still be tracked in flight, so the fences are
// (almost certainly — see the caveat in the protocol doc) dead weight.
// Runs only when the watermark advances past the last sweep; the
// watermark test is lock-free so the query hot path never contends the
// write lock here. An advancing watermark is also published to the
// replication stream — it is what proves a replica's state complete
// through an epoch.
func (n *Node) compact(below uint64) {
	if below == 0 || below <= n.compactedBelow.Load() {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if below <= n.compactedBelow.Load() {
		return // another request swept past this watermark meanwhile
	}
	n.compactedBelow.Store(below)
	n.publishLocked(replEvent{Watermark: below})
	for id := range n.tombstones {
		if n.docs[id].epoch <= below {
			delete(n.docs, id)
			delete(n.tombstones, id)
		}
	}
}

// query runs the same term-at-a-time counting merge as the local index's
// search core (index.Postings.Count): each owned posting list streams
// once into a pooled counter, leaving the node's partial |F ∩ G| per
// candidate — no candidate union, no per-candidate intersection. A
// request with a result cap comes from a one-node plan, so the counts
// are final and the node ranks them itself (rank); its QueryCard must be
// its term count, as a one-node plan's always is, which also bounds what
// the ranking allocates by the frame's size. Otherwise the
// partials are appended to dst as a query reply from one drain of the
// counter. Before appending one, the node applies the threshold-pruning
// cardinality window against the replicated document cardinalities (see
// cardWindow), so non-qualifying candidates never reach the wire; an
// open window — every search without a distance bound — prunes nothing,
// and skips the per-candidate cardinality lookup.
func (n *Node) query(dst []byte, req *queryRequest) []byte {
	s := index.GetScratch()
	defer s.Release()
	n.mu.RLock()
	defer n.mu.RUnlock()
	if req.Limit > 0 {
		if req.QueryCard != len(req.Terms) {
			return appendError(dst, "ranked query's card is not its term count")
		}
		n.postings.Count(s.Counter, req.Terms)
		return n.rank(dst, s, req)
	}
	n.postings.Count(s.Counter, req.Terms)
	cands := s.Counter.Candidates()
	s.Counts, _ = s.Counter.Drain(s.Counts[:0], nil)
	minCard, maxCard := cardWindow(req)
	open := index.WindowOpen(minCard, maxCard)
	start, pruned := len(dst), 0
	dst = slices.Grow(beginPartials(dst), partialSize*len(cands))
	for i, v := range cands {
		if !open {
			if card, _ := n.cards.Get(v); !index.InWindow(card, minCard, maxCard) {
				pruned++
				continue
			}
		}
		dst = appendPartial(dst, v, s.Counts[i])
	}
	return endPartials(dst, start, pruned)
}

// rank answers a capped query from the counts in s: it ranks them with
// the shard's walk (index.Ranker.RankByCount) against the card table and
// appends its top req.Limit hits to dst as partials, each with its shared
// count. It admits every doc in the postings: the coordinator's directory
// check, which ranks the shipped hits again, admits no doc the node does
// not hold, and asks again for every partial when a shipped hit fails it
// (docs/invariants.md, "Ranking in count order"). The reply's pruned
// count is the cardinality window's alone, which the ranking does not
// separate from the rest of what it skips, so it is 0. The caller holds
// the read lock and has checked that req.QueryCard is the term count, so
// no count exceeds it.
//
//geodabs:noalloc
func (n *Node) rank(dst []byte, s *index.Scratch, req *queryRequest) []byte {
	s.Ranker.Init(req.QueryCard, req.MaxDistance, req.Limit)
	// Every candidate of the counting merge is a live doc, so the card
	// table holds it.
	if err := s.Ranker.RankByCount(noContext, s.Counter, n.cards.Get); err != nil {
		return appendError(dst, err.Error())
	}
	s.Hits = s.Ranker.Finish(s.Hits[:0])
	start := len(dst)
	dst = beginPartials(dst)
	for _, h := range s.Hits {
		dst = appendPartial(dst, uint32(h.ID), uint32(h.Shared))
	}
	return endPartials(dst, start, 0)
}

// noContext is the context of a node's ranking walk: a node request
// carries none, so the walk runs to completion. A package variable, so
// passing it converts nothing to an interface on the search path.
var noContext = context.Background()

// cardWindow resolves a query's node-side cardinality window: the shared
// index.CardinalityWindow bounds when the request carries the query's
// global cardinality, the open window (prune nothing) otherwise. The
// callers test candidates through index.InWindow — the exact predicate
// the coordinator's Ranker applies — so a node-side prune can never
// remove a candidate the merge would keep.
func cardWindow(req *queryRequest) (minCard, maxCard int) {
	if req.QueryCard <= 0 {
		return 0, 0
	}
	return index.CardinalityWindow(req.QueryCard, req.MaxDistance)
}

// rerank exact-scores the node's slice of a fingerprint shortlist
// against its retained points and appends the reply to dst: (id, score)
// pairs — never points — in the order of the request's IDs. The
// candidates are snapshotted under the read lock — the slice
// headers are safe to score outside it because applied mutations replace
// a doc's point slice wholesale, never mutate it — and scored by
// rerank.Score against the bar of the node's own top-Limit: what its
// bounded dynamic program proves above the bar is skipped, everything
// else is returned with its exact score, so the coordinator's merge
// stays byte-identical to scoring the whole shortlist. The candidate
// slice and the reply come from pooled scratch.
func (n *Node) rerank(dst []byte, req *rerankRequest) []byte {
	s := rerankPool.Get().(*rerankScratch)
	defer s.release()
	resp := &s.resp
	resp.Scored, resp.Skipped, resp.Missing = resp.Scored[:0], 0, resp.Missing[:0]
	// Grown once to the request's size: a collection empties the pool, and
	// appends from empty would pay a growth step at every doubling.
	s.cands = slices.Grow(s.cands, len(req.IDs))
	resp.Scored = slices.Grow(resp.Scored, len(req.IDs))
	n.mu.RLock()
	for _, id := range req.IDs {
		doc, ok := n.docs[id]
		if !ok || doc.points == nil {
			resp.Missing = append(resp.Missing, id)
			continue
		}
		s.cands = append(s.cands, rerank.Candidate{ID: id, Points: doc.points})
	}
	n.mu.RUnlock()
	if len(resp.Missing) > 0 {
		return resp.append(dst)
	}
	// A node request carries no context: the pass runs to completion.
	if err := rerank.Score(context.TODO(), req.Query, s.cands, req.Metric, req.Limit); err != nil {
		return appendError(dst, err.Error())
	}
	for _, c := range s.cands {
		if c.Skipped {
			resp.Skipped++
			continue
		}
		resp.Scored = append(resp.Scored, scored{ID: c.ID, Score: c.Score})
	}
	n.rerankScored.Add(uint64(len(resp.Scored)))
	n.rerankSkipped.Add(uint64(resp.Skipped))
	return resp.append(dst)
}

// rerankScratch is a node rerank's working memory: the candidates it
// scores and the reply it encodes.
type rerankScratch struct {
	cands []rerank.Candidate
	resp  rerankResponse
}

var rerankPool = sync.Pool{New: func() any { return new(rerankScratch) }}

// release drops the candidates' references to retained points, which a
// pooled scratch would otherwise keep alive past a delete, and returns
// the scratch to the pool.
func (s *rerankScratch) release() {
	clear(s.cands)
	s.cands = s.cands[:0]
	rerankPool.Put(s)
}

// stats summarizes the node's shard contents, durability and replication
// state; the coordinator fills in Node and Replicas. StableEpoch is the
// epoch through which the state is proven complete: the compaction
// watermark for a primary, the highest stream watermark for a replica —
// the coordinator derives replica lag from it.
func (n *Node) stats() *NodeStats {
	n.mu.RLock()
	s := &NodeStats{
		Terms:         len(n.postings),
		Docs:          len(n.docs) - len(n.tombstones),
		Tombstones:    len(n.tombstones),
		Epoch:         n.maxEpoch,
		StableEpoch:   n.compactedBelow.Load(),
		FullSyncs:     n.fullSyncs.Load(),
		RerankScored:  n.rerankScored.Load(),
		RerankSkipped: n.rerankSkipped.Load(),
	}
	s.Postings, _ = n.postings.Size()
	for _, d := range n.docs {
		if d.points != nil {
			s.RetainedDocs++
			s.RetainedPoints += len(d.points)
		}
	}
	s.RetainedBytes = int64(s.RetainedPoints) * 16 // two float64s per point
	n.mu.RUnlock()
	if n.primaryAddr != "" {
		s.StableEpoch = n.stableEpoch.Load()
	}
	n.subMu.Lock()
	s.Subscribers = len(n.subs)
	n.subMu.Unlock()
	if n.wal != nil {
		ws := n.wal.Stats()
		s.WALBytes = ws.SizeBytes
		s.WALSegments = ws.Segments
		s.WALRecords = ws.Records
		s.WALSyncs = ws.Syncs
		s.WALLastSync = ws.LastSync
	}
	return s
}
