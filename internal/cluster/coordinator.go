package cluster

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"geodabs/internal/bitmap"
	"geodabs/internal/fanout"
	"geodabs/internal/geo"
	"geodabs/internal/index"
	"geodabs/internal/rerank"
	"geodabs/internal/shard"
	"geodabs/internal/trajectory"
	"geodabs/internal/wal"
)

// ErrNotFound reports a mutation aimed at a trajectory the cluster does
// not hold.
var ErrNotFound = errors.New("cluster: trajectory not found")

// ErrClosed reports an operation on a closed coordinator (or through a
// closed node client). Searches and mutations racing a Close either
// complete normally or fail with an error wrapping ErrClosed — never a
// panic or a hang.
var ErrClosed = errors.New("cluster: closed")

// addCleanupTimeout bounds the posting-reclaim pass that runs when an
// Add's fan-out fails: the cleanup deletes run under a detached context
// (the failure cause is often the caller's own cancelled context), so a
// wedged node cannot hold the error return forever.
var addCleanupTimeout = 5 * time.Second

// reconcileInterval paces the background reconciler that retries the
// cleanup deletes an unreachable node missed. Package variable so crash
// tests can tighten it.
var reconcileInterval = 2 * time.Second

// Coordinator fronts a cluster of shard nodes: it fingerprints
// trajectories, routes each term to the node owning its shard, fans out
// deletions, and scatter-gathers ranked queries. It maintains the
// directory of per-trajectory fingerprint cardinalities needed to turn
// partial intersection counts into Jaccard distances (plus, when point
// retention is on, which node owns each trajectory's raw points — the
// points themselves live on that node, and exact re-ranking is pushed
// down to it via Rerank). Each
// trajectory's total cardinality is also replicated to the nodes owning
// its terms, so queries carry their cardinality and distance bound down
// and the nodes threshold-prune non-qualifying candidates before the
// wire (see the protocol doc for why that window — unlike the
// shared-count bar — is safe to evaluate node-side).
//
// Every mutation is assigned a monotone epoch, and every search takes a
// snapshot — the epoch below which no mutation is still in flight —
// before scattering. Ranking admits a trajectory only when its mutation
// committed at or below the snapshot, so a search observes a trajectory
// either fully (all its terms on every node) or not at all, never on a
// partial intersection count; quiescent data matches a local Index
// exactly.
//
// Coordinator is safe for concurrent use.
type Coordinator struct {
	ex       index.Extractor
	strategy shard.Strategy
	clients  []*client
	retain   bool

	// replicas[i] are pooled clients to node i's read replicas; readPref
	// picks between primary-preferred reads (replicas are failover only)
	// and round-robin replica reads (primary is the fallback when a
	// replica errors or refuses as stale). rr holds the per-node
	// round-robin cursors.
	replicas [][]*client
	readPref ReadPreference
	rr       []atomic.Uint32

	// cleanups queues the per-node delete retries a failed Add's cleanup
	// could not land (node unreachable); the background reconciler drains
	// it, so stranded postings are reclaimed as soon as the node is back,
	// and a re-Add of the ID drains its own entries first.
	cleanupMu     sync.Mutex
	cleanups      map[trajectory.ID][]pendingCleanup
	stopReconcile chan struct{}
	reconcileWG   sync.WaitGroup

	// idMu stripes a per-trajectory mutation lock: Add, Delete and Upsert
	// acquire the ID's stripe for their full node fan-out, so same-ID
	// mutations are serialized end to end. Without it two concurrent
	// Upserts of one ID would both aim their deletes at the node set the
	// directory recorded before either ran, and the postings of the one
	// that committed first would stay on nodes the other never reaches.
	// Distinct IDs sharing a stripe merely serialize — never deadlock —
	// and the stripe is always acquired before (never while holding) mu.
	idMu [idStripes]sync.Mutex

	// closed flips once in Close. Entry points check it up front to fail
	// fast with ErrClosed; calls that raced past the check fail inside
	// the node clients, whose post-close checkout also reports ErrClosed.
	closed atomic.Bool

	mu        sync.RWMutex
	directory map[trajectory.ID]docEntry
	// epoch is the last assigned mutation epoch; inFlight holds the epochs
	// of mutations whose node fan-out has not completed. The watermark
	// derived from them (min in-flight − 1) is both the searches' snapshot
	// and the compaction bound piggybacked to the nodes.
	epoch    uint64
	inFlight map[uint64]struct{}
}

// idStripes sizes the per-ID mutation lock table. Collisions between
// distinct IDs cost serialization of two unrelated mutations, nothing
// more, so a modest power of two suffices.
const idStripes = 64

// idLock returns the stripe serializing mutations of one trajectory ID.
func (c *Coordinator) idLock(id trajectory.ID) *sync.Mutex {
	return &c.idMu[uint64(id)%idStripes]
}

// entryState tracks a directory entry through its mutation lifecycle.
type entryState uint8

const (
	// statePending reserves an ID while its add is in flight: duplicate
	// adds are rejected atomically, ranking skips the entry.
	statePending entryState = iota
	// stateLive is a committed trajectory, rankable by searches whose
	// snapshot covers its epoch.
	stateLive
	// stateDeleting marks a delete in flight (or failed, pending retry):
	// the trajectory is withdrawn from ranking, its ID still reserved.
	stateDeleting
)

// docEntry is the coordinator's per-trajectory bookkeeping: the
// fingerprint cardinality (for Jaccard ranking), the lifecycle state,
// the epoch of the trajectory's last mutation, the nodes holding its
// terms (the nodes its next mutation must reach), and — under point
// retention — the index of the shard node that stores the trajectory's
// raw points (its point owner), or -1 when no node does. The points
// themselves never live in the coordinator: Add spills them to the
// owner and exact rerank is pushed down to the owning nodes, so the
// directory stays 32 bytes per trajectory regardless of trajectory
// length.
type docEntry struct {
	card  uint32
	owner int32
	epoch uint64
	// nodes has bit i set when node i holds terms of the trajectory: a
	// coordinator fronts at most 64 nodes.
	nodes uint64
	state entryState
}

// Options configures a Coordinator at construction. The zero value is a
// coordinator that keeps no points, pools one connection per node, reads
// from primaries and starts with an empty directory.
type Options struct {
	// RetainPoints makes Add spill each trajectory's raw points to one
	// deterministic owner among the nodes holding its terms, so searches
	// can re-rank candidates with an exact distance computed node-side.
	// Left off, ingest pays neither the spill bandwidth nor node memory.
	RetainPoints bool
	// PoolSize is how many connections the coordinator pools per shard
	// node; below 1 means 1. A larger pool lets that many RPCs be in
	// flight to the same node, raising batched-search throughput.
	PoolSize int
	// Replicas registers read replicas: Replicas[i] lists the addresses
	// of node i's replicas (started with WithReplicaOf pointing at node
	// i). A non-nil slice must have one entry per shard node; inner
	// slices may be empty. Mutations always go to primaries — replicas
	// only serve reads, per ReadPreference.
	Replicas [][]string
	// ReadPreference is the read routing policy (ReadPrimary when zero).
	ReadPreference ReadPreference
	// RecoverDirectory makes NewCoordinator rebuild the ranking directory
	// from the nodes' state before serving (see recover.go): the restart
	// path over durable nodes. On empty nodes it costs a round trip each.
	RecoverDirectory bool
}

// ParseReplicas reads a command line's replica spec into Options.Replicas:
// one comma-separated group per node, each group's addresses separated by
// '|', an empty group leaving its node without replicas. An empty spec is
// no replicas at all.
func ParseReplicas(spec string, nodes int) ([][]string, error) {
	if spec == "" {
		return nil, nil
	}
	groups := strings.Split(spec, ",")
	if len(groups) != nodes {
		return nil, fmt.Errorf("-replicas has %d groups, -nodes has %d addresses", len(groups), nodes)
	}
	reps := make([][]string, len(groups))
	for i, g := range groups {
		if g != "" {
			reps[i] = strings.Split(g, "|")
		}
	}
	return reps, nil
}

// ReadPreference selects how the coordinator routes query reads across a
// shard's replica set.
type ReadPreference uint8

const (
	// ReadPrimary reads from the primary; replicas serve only as
	// failover when the primary call fails. The default.
	ReadPrimary ReadPreference = iota
	// ReadReplicas round-robins reads across a node's replicas, falling
	// back to the primary when a replica errors or refuses the query as
	// stale (its replicated state does not yet cover the search's
	// snapshot epoch). Results remain snapshot-exact either way — a
	// replica never answers a snapshot it cannot prove complete.
	ReadReplicas
)

// NewCoordinator connects to the given node addresses. The strategy's
// Nodes must equal len(addrs) and be at most 64.
func NewCoordinator(ex index.Extractor, strategy shard.Strategy, addrs []string, opts Options) (*Coordinator, error) {
	if err := strategy.Validate(); err != nil {
		return nil, err
	}
	if strategy.Nodes > 64 { // the width of a directory entry's node mask
		return nil, fmt.Errorf("cluster: strategy has %d nodes, a coordinator fronts at most 64", strategy.Nodes)
	}
	if strategy.Nodes != len(addrs) {
		return nil, fmt.Errorf("cluster: strategy has %d nodes, got %d addresses", strategy.Nodes, len(addrs))
	}
	c := &Coordinator{
		ex:        ex,
		strategy:  strategy,
		retain:    opts.RetainPoints,
		readPref:  opts.ReadPreference,
		directory: make(map[trajectory.ID]docEntry),
		inFlight:  make(map[uint64]struct{}),
		cleanups:  make(map[trajectory.ID][]pendingCleanup),
	}
	poolSize := max(opts.PoolSize, 1)
	for _, addr := range addrs {
		cl, err := dialPool(addr, poolSize)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.clients = append(c.clients, cl)
	}
	if opts.Replicas != nil {
		if len(opts.Replicas) != len(addrs) {
			c.Close()
			return nil, fmt.Errorf("cluster: replica set has %d entries, cluster has %d nodes", len(opts.Replicas), len(addrs))
		}
		c.replicas = make([][]*client, len(addrs))
		c.rr = make([]atomic.Uint32, len(addrs))
		for i, reps := range opts.Replicas {
			for _, addr := range reps {
				cl, err := dialPool(addr, poolSize)
				if err != nil {
					c.Close()
					return nil, err
				}
				c.replicas[i] = append(c.replicas[i], cl)
			}
		}
	}
	if opts.RecoverDirectory {
		if err := c.recoverDirectory(addrs); err != nil {
			c.Close()
			return nil, err
		}
	}
	c.stopReconcile = make(chan struct{})
	c.reconcileWG.Add(1)
	go c.reconcileLoop()
	return c, nil
}

// Close tears down all node connections. It is idempotent and safe to
// call concurrently with in-flight searches and mutations: later calls
// return nil immediately, and racing operations either complete or fail
// with an error wrapping ErrClosed. After Close every Search, Add,
// Delete, Upsert, DeleteAll and Stats returns ErrClosed.
func (c *Coordinator) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	if c.stopReconcile != nil {
		close(c.stopReconcile)
		c.reconcileWG.Wait()
	}
	var firstErr error
	for _, cl := range c.clients {
		if err := cl.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, reps := range c.replicas {
		for _, cl := range reps {
			if err := cl.close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// checkClosed fails fast once Close has run.
func (c *Coordinator) checkClosed() error {
	if c.closed.Load() {
		return ErrClosed
	}
	return nil
}

// beginMutationLocked assigns the next mutation epoch and marks it in
// flight. Callers must hold the write lock.
func (c *Coordinator) beginMutationLocked() uint64 {
	c.epoch++
	c.inFlight[c.epoch] = struct{}{}
	return c.epoch
}

// endMutation retires a mutation epoch, letting the watermark advance.
func (c *Coordinator) endMutation(e uint64) {
	c.mu.Lock()
	delete(c.inFlight, e)
	c.mu.Unlock()
}

// watermarkLocked returns the epoch below which no mutation is still in
// flight. Callers must hold the lock (read or write).
func (c *Coordinator) watermarkLocked() uint64 {
	w := c.epoch
	for e := range c.inFlight {
		if e-1 < w {
			w = e - 1
		}
	}
	return w
}

// watermark is watermarkLocked under a read lock.
func (c *Coordinator) watermark() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.watermarkLocked()
}

// Add fingerprints the trajectory and routes its postings to the cluster,
// honoring ctx cancellation while waiting on the shard nodes. The first
// node failure cancels the sibling calls, so one wedged node cannot hold
// the add past another node's error.
//
// The ID is reserved with a pending directory entry before the fan-out
// (duplicate Adds are rejected atomically) and published for ranking only
// after every node accepted its postings; searches additionally admit it
// only once their snapshot covers its epoch, so a search never ranks a
// trajectory on a partial intersection count. A failed add reclaims the
// postings it already applied by fanning out deletes to the nodes it
// touched (epoch fencing makes the cleanup safe against the abandoned add
// racing it onto a node), withdraws the reservation, and is retryable.
// Cleanup is best-effort under its own timeout: if a node is unreachable,
// its stranded postings stay hidden behind the directory check until the
// background reconciler fences them, and a re-Add of the ID lands that
// fence first — failing while it cannot.
func (c *Coordinator) Add(parent context.Context, t *trajectory.Trajectory) error {
	return c.mutateID(parent, t.ID, t, false)
}

// mutateID is Add (replace false), Upsert, and Delete (t nil): one round
// at a fresh epoch e under the ID's mutation stripe. Each node of the new
// version's plan gets its add at e, which replaces whatever the node held
// for the ID; each node of the old version that the plan leaves gets a
// delete at e; no other node hears of the ID. The three differ only in
// their directory precondition and in what a failure leaves (see their
// doc comments).
func (c *Coordinator) mutateID(parent context.Context, id trajectory.ID, t *trajectory.Trajectory, replace bool) error {
	lock := c.idLock(id)
	lock.Lock()
	defer lock.Unlock()
	if err := parent.Err(); err != nil {
		return err
	}
	if err := c.checkClosed(); err != nil {
		return err
	}
	plan := &QueryPlan{}
	if t != nil {
		if err := c.settleCleanups(parent, id); err != nil {
			return err
		}
		plan = c.Plan(c.ex.Extract(t.Points))
	}
	c.mu.Lock()
	entry, indexed := c.directory[id]
	var err error
	switch {
	case !indexed && t == nil:
		err = ErrNotFound
	case indexed && entry.state == statePending:
		err = fmt.Errorf("cluster: trajectory %d has an add in flight", id)
	case indexed && !replace:
		err = fmt.Errorf("cluster: trajectory %d already indexed", id)
	}
	if err != nil {
		c.mu.Unlock()
		return err
	}
	if indexed {
		entry.state = stateDeleting
	} else {
		entry = docEntry{state: statePending, owner: -1}
	}
	c.directory[id] = entry
	e := c.beginMutationLocked()
	below := c.watermarkLocked()
	c.mu.Unlock()

	// Under point retention the trajectory's raw points spill to exactly
	// one deterministic owner among the nodes holding its terms, spread by
	// ID so retention memory balances across the cluster; that node stores
	// (and logs, and replicates) them so exact rerank can run node-side. A
	// termless trajectory has no owner — it can never appear in a
	// fingerprint shortlist, so it never needs reranking either.
	owner := -1
	if c.retain && len(plan.routes) > 0 {
		owner = plan.routes[int(id)%len(plan.routes)].node
	}
	// A route without terms is a delete. The plan is this call's own, so
	// the deletes may share its routes' storage.
	nodes, routes, card := plan.nodes(), plan.routes, plan.card()
	for _, node := range nodesOf(entry.nodes &^ nodes) {
		routes = append(routes, route{node: node})
	}
	err = fanout.Workers(parent, len(routes), len(routes), func(ctx context.Context, i int) error {
		r := routes[i]
		rec := &wal.Record{Op: wal.OpDelete, Epoch: e, ID: uint32(id)}
		if r.terms != nil {
			rec.Op, rec.Card, rec.Terms = wal.OpAdd, uint32(card), r.terms
			if r.node == owner && len(t.Points) > 0 {
				rec.Op, rec.Points = wal.OpAddPoints, t.Points
			}
		}
		return c.clients[r.node].call(ctx, &request{Op: opMutate, CompactBelow: below, Mutate: rec}, nil)
	})
	if err != nil && !indexed {
		c.cleanupFailedAdd(id, nodesOf(nodes))
	}
	c.mu.Lock()
	switch {
	case err == nil && t != nil:
		c.directory[id] = docEntry{card: uint32(card), owner: int32(owner), state: stateLive, epoch: e, nodes: nodes}
	case err == nil || !indexed:
		delete(c.directory, id) // deleted, or a failed add's reservation withdrawn: retryable
	default:
		entry.nodes |= nodes
		c.directory[id] = entry
	}
	delete(c.inFlight, e)
	c.mu.Unlock()
	return err
}

// cleanupFailedAdd reclaims the postings a failed Add already applied by
// fanning a delete to the nodes it touched. The delete's fresh epoch
// fences the failed add: even if an abandoned add call lands on a node
// after the cleanup, the node ignores it as stale. The directory check
// already hides the ID from searches, so a node the cleanup cannot reach
// costs memory, not correctness — its deletes are queued for the
// background reconciler, which retries them (same fencing epoch) until
// the node is reachable again, e.g. after it restarts from its WAL, and a
// re-Add of the ID settles them before it reserves the ID again.
func (c *Coordinator) cleanupFailedAdd(id trajectory.ID, nodes []int) {
	c.mu.Lock()
	e := c.beginMutationLocked()
	below := c.watermarkLocked()
	c.mu.Unlock()
	defer c.endMutation(e)
	ctx, cancel := context.WithTimeout(context.Background(), addCleanupTimeout)
	defer cancel()
	if failed := c.fanDeletes(ctx, id, e, below, nodes); len(failed) > 0 {
		c.queueCleanup(id, pendingCleanup{epoch: e, nodes: failed})
	}
}

// queueCleanup hands a fence that has not landed to the reconciler.
func (c *Coordinator) queueCleanup(id trajectory.ID, p pendingCleanup) {
	c.cleanupMu.Lock()
	c.cleanups[id] = append(c.cleanups[id], p)
	c.cleanupMu.Unlock()
}

// pendingCleanup is one failed Add's unfinished posting reclaim: the
// nodes whose fencing delete has not landed yet, and the epoch it must
// carry. The epoch is reused verbatim across retries — it postdates the
// abandoned add (fencing it) and predates any later mutation of the ID
// (so a retry can never undo a re-Add).
type pendingCleanup struct {
	epoch uint64
	nodes []int
}

// fanDeletes sends a fencing delete to each node and returns the nodes
// whose delete did not land. Its tasks never fail the fan-out, so one
// unreachable node does not cancel the fences bound for the others. A
// done ctx stops the fan-out before it calls every node, so a node counts
// as failed unless its delete was acknowledged.
func (c *Coordinator) fanDeletes(ctx context.Context, id trajectory.ID, epoch, below uint64, nodes []int) (failed []int) {
	landed := make([]bool, len(nodes))
	_ = fanout.Workers(ctx, len(nodes), len(nodes), func(ctx context.Context, i int) error {
		rec := &wal.Record{Op: wal.OpDelete, Epoch: epoch, ID: uint32(id)}
		landed[i] = c.clients[nodes[i]].call(ctx, &request{Op: opMutate, CompactBelow: below, Mutate: rec}, nil) == nil
		return nil
	})
	for i, node := range nodes {
		if !landed[i] {
			failed = append(failed, node)
		}
	}
	return failed
}

// reconcileLoop drains the pending-cleanup queue on a fixed cadence
// until Close.
func (c *Coordinator) reconcileLoop() {
	defer c.reconcileWG.Done()
	tick := time.NewTicker(reconcileInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopReconcile:
			return
		case <-tick.C:
			c.reconcileOnce()
		}
	}
}

// reconcileOnce retries every queued cleanup delete, re-queueing the
// nodes that still cannot be reached. Each ID settles under its mutation
// stripe; a stripe some mutation holds is left for the next round.
func (c *Coordinator) reconcileOnce() {
	c.cleanupMu.Lock()
	ids := make([]trajectory.ID, 0, len(c.cleanups))
	for id := range c.cleanups {
		ids = append(ids, id)
	}
	c.cleanupMu.Unlock()
	for _, id := range ids {
		if lock := c.idLock(id); lock.TryLock() {
			_ = c.settleCleanups(context.Background(), id) // what failed stays queued
			lock.Unlock()
		}
	}
}

// settleCleanups lands the fences still queued for id, re-queueing and
// failing on the nodes it cannot reach within addCleanupTimeout. An Add
// or Upsert settles before it adds the ID: stranded postings on a node
// the new version does not touch would inflate its shared counts. Callers
// hold id's mutation stripe.
func (c *Coordinator) settleCleanups(ctx context.Context, id trajectory.ID) error {
	c.cleanupMu.Lock()
	pending := c.cleanups[id]
	delete(c.cleanups, id)
	c.cleanupMu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, addCleanupTimeout)
	defer cancel()
	var err error
	for _, p := range pending {
		if p.nodes = c.fanDeletes(ctx, id, p.epoch, c.watermark(), p.nodes); len(p.nodes) > 0 {
			c.queueCleanup(id, p)
			err = fmt.Errorf("cluster: trajectory %d: the fence of an earlier failed add has not reached nodes %v", id, p.nodes)
		}
	}
	return err
}

// PendingCleanups reports how many trajectories still have failed-Add
// cleanups waiting on unreachable nodes — zero once every stranded
// posting has been fenced and reclaimed.
func (c *Coordinator) PendingCleanups() int {
	c.cleanupMu.Lock()
	defer c.cleanupMu.Unlock()
	return len(c.cleanups)
}

// Delete withdraws a trajectory from the cluster and reclaims its
// postings on the nodes that hold them — the directory records which —
// honoring ctx cancellation while waiting on the shard nodes. It returns
// ErrNotFound when the ID is not indexed.
//
// The directory entry flips to a deleting state up front, so the
// trajectory vanishes from ranking atomically — concurrent searches see
// it fully or not at all, never on the partial counts of a half-applied
// delete. A failed Delete keeps the entry in the deleting state: the
// trajectory stays withdrawn from results, duplicate Adds stay rejected,
// and retrying the Delete reclaims whatever postings remain (node-side
// deletion is idempotent).
func (c *Coordinator) Delete(parent context.Context, id trajectory.ID) error {
	return c.mutateID(parent, id, nil, true)
}

// Upsert replaces a trajectory in one round under one fresh epoch: the
// nodes of the new version receive its postings, which replace whatever
// they held for the ID, and the nodes that held only the old version
// receive a delete. During the round the ID is withdrawn from results —
// searches observe the old version, nothing, or the new version, never a
// mixture. An Upsert of an ID that is not indexed is an Add, failure
// semantics included.
//
// A failed Upsert of an indexed ID leaves it deleting, as a failed Delete
// does: withdrawn from results, refused by Add, and recorded as held by
// the nodes of both versions. Retrying the Upsert, or a Delete, reaches
// every node either version may have landed on, and converges.
func (c *Coordinator) Upsert(ctx context.Context, t *trajectory.Trajectory) error {
	return c.mutateID(ctx, t.ID, t, true)
}

// DeleteAll deletes a batch of IDs on the given number of parallel
// workers (minimum 1) and reports how many were actually indexed.
// Unknown IDs are skipped, so the call is idempotent; the first hard
// error cancels the remaining work.
func (c *Coordinator) DeleteAll(parent context.Context, ids []trajectory.ID, workers int) (int, error) {
	if err := parent.Err(); err != nil {
		return 0, err
	}
	if err := c.checkClosed(); err != nil {
		return 0, err
	}
	var deleted atomic.Int64
	err := fanout.Workers(parent, len(ids), workers, func(ctx context.Context, i int) error {
		switch err := c.Delete(ctx, ids[i]); {
		case err == nil:
			deleted.Add(1)
		case !errors.Is(err, ErrNotFound): // an unknown ID is an idempotent skip
			return err
		}
		return nil
	})
	return int(deleted.Load()), err
}

// nodesOf lists the nodes of a node mask (bit i for node i), ascending.
func nodesOf(mask uint64) []int {
	var nodes []int
	for ; mask != 0; mask &= mask - 1 {
		nodes = append(nodes, bits.TrailingZeros64(mask))
	}
	return nodes
}

// Rerank pushes the exact-refinement pass of a search down to the shard
// nodes: each node owning points of shortlist members scores its slice
// locally (DTW or DFD, against the bar of its own top-limit) and
// ships back (id, score) pairs; the merged scores are sorted by the
// engines' shared (distance, ID) contract and truncated to limit. Raw
// candidate points never cross the wire — only the query does, once per
// owning node.
//
// The result is byte-identical to fetching every candidate's points and
// scoring them coordinator-side: nodes run the identical metric code on
// identical float inputs, a node only skips a candidate it has proved
// strictly outside its own (hence the global) top-limit, and the final
// merge reuses index.SortResults. limit <= 0 scores and returns the
// whole shortlist.
//
// The shortlist is grouped by owner node in one slice, each group in
// shortlist order, and a one-owner round is asked on the caller's
// goroutine, as a one-route search's is.
func (c *Coordinator) Rerank(parent context.Context, hits []index.Result, query []geo.Point, metric rerank.Metric, limit int) ([]index.Result, error) {
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if err := c.checkClosed(); err != nil {
		return nil, err
	}
	if len(hits) == 0 {
		return hits, nil
	}
	// owners[i] is hits[i]'s owner node (NewCoordinator caps Nodes at
	// 64); it stays on the stack for a shortlist of up to 256 hits.
	owners := make([]uint8, 0, 256)
	var (
		counts  [64]int
		missing []uint32
	)
	c.mu.RLock()
	for _, h := range hits {
		entry, ok := c.directory[h.ID]
		if !ok || entry.state != stateLive || entry.owner < 0 {
			missing = append(missing, uint32(h.ID))
			continue
		}
		owners = append(owners, uint8(entry.owner))
		counts[entry.owner]++
	}
	below := c.watermarkLocked()
	c.mu.RUnlock()
	if len(missing) > 0 {
		return nil, rerankMissing(missing, len(hits))
	}
	// A counting sort by owner, each group in shortlist order. The hits
	// keep their Shared count, which a node's reply does not carry: the
	// local path keeps the original Result and only replaces Distance, so
	// the pushed-down path must too for the two to stay byte-identical.
	var at [64]int
	for node, lo := 0, 0; node < len(counts); node++ {
		at[node] = lo
		lo += counts[node]
	}
	merged := make([]index.Result, len(hits))
	ids := make([]uint32, len(hits))
	for i, h := range hits {
		o := owners[i]
		merged[at[o]], ids[at[o]] = h, uint32(h.ID)
		at[o]++
	}
	req := rerankRequest{Query: query, Metric: metric, Limit: limit}
	var (
		kept int
		err  error
	)
	if node := int(owners[0]); counts[node] == len(hits) {
		var keepErr error
		err = c.askRerank(parent, node, below, req, ids, func(r *response) {
			missing = append(missing, r.Rerank.Missing...)
			kept, keepErr = keepScored(merged, r.Rerank.Scored, node)
		})
		err = cmp.Or(err, keepErr)
	} else {
		kept, missing, err = c.rerankScatter(parent, counts, below, req, ids, merged)
	}
	if err != nil {
		return nil, err
	}
	// A shortlist member that raced a delete/upsert between the directory
	// check and the node call is Missing. It is collected across nodes
	// rather than failed fast, so the error names every unavailable ID.
	if len(missing) > 0 {
		return nil, rerankMissing(missing, len(hits))
	}
	merged = merged[:kept]
	index.SortResults(merged)
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	return merged, nil
}

// askRerank asks node for the exact scores of ids, the request's other
// fields from req, handing the reply to use.
func (c *Coordinator) askRerank(ctx context.Context, node int, below uint64, req rerankRequest, ids []uint32, use func(*response)) error {
	req.IDs = ids
	return c.readCall(ctx, node, &request{Op: opRerank, CompactBelow: below, Rerank: &req}, use)
}

// rerankScatter asks every owner node of a shortlist grouped by owner —
// counts[node] hits each, in node order — at once. It moves the hits the
// nodes scored to the front of merged and returns how many there are and
// the IDs the nodes hold no points for.
func (c *Coordinator) rerankScatter(ctx context.Context, counts [64]int, below uint64, req rerankRequest, ids []uint32, merged []index.Result) (int, []uint32, error) {
	type group struct {
		node, lo, hi, kept int
		err                error
	}
	var groups []group
	for node, lo := 0, 0; node < len(counts); node++ {
		if counts[node] > 0 {
			groups = append(groups, group{node: node, lo: lo, hi: lo + counts[node]})
		}
		lo += counts[node]
	}
	var (
		mu      sync.Mutex
		missing []uint32
	)
	err := fanout.Workers(ctx, len(groups), len(groups), func(ctx context.Context, i int) error {
		g := &groups[i]
		return c.askRerank(ctx, g.node, below, req, ids[g.lo:g.hi], func(r *response) {
			// Each group writes its own part of merged; only the missing
			// list is shared.
			g.kept, g.err = keepScored(merged[g.lo:g.hi], r.Rerank.Scored, g.node)
			mu.Lock()
			missing = append(missing, r.Rerank.Missing...)
			mu.Unlock()
		})
	})
	n := 0
	for _, g := range groups {
		if g.err != nil {
			return 0, missing, cmp.Or(err, g.err)
		}
		n += copy(merged[n:], merged[g.lo:g.lo+g.kept])
	}
	return n, missing, err
}

// keepScored moves the hits a node scored to the front of its part of
// the shortlist, each with its exact score as its Distance, and returns
// how many there are. A node lists its scores in the order of the IDs it
// was asked for (rerankResponse), so one forward walk matches them; a
// score for an ID it was not asked for, or out of that order, is an
// error.
func keepScored(part []index.Result, scores []scored, node int) (int, error) {
	k := 0
	for w, s := range scores {
		for k < len(part) && uint32(part[k].ID) != s.ID {
			k++
		}
		if k == len(part) {
			return 0, fmt.Errorf("cluster: node %d scored trajectory %d, which it was not asked for in that order", node, s.ID)
		}
		// w ≤ k: every score consumed at least one hit of the part.
		part[w] = part[k]
		part[w].Distance = s.Score
		k++
	}
	return len(scores), nil
}

// rerankMissing is Rerank's error for the shortlist IDs no node holds
// points for.
func rerankMissing(missing []uint32, shortlist int) error {
	slices.Sort(missing)
	return fmt.Errorf("cluster: cannot rerank: raw points of %d of %d shortlist trajectories unavailable (IDs %v): cluster built without point retention, a recovered directory predating the points, or a concurrent delete", len(missing), shortlist, missing)
}

// QueryStats reports the fan-out of the last analysis of a query set.
type QueryStats struct {
	// Shards and Nodes touched by the query's terms. Locality on the
	// space-filling curve keeps Shards small; the modulo step spreads
	// them over Nodes.
	Shards int
	Nodes  int
}

// Extractor returns the coordinator's term extractor, so callers can
// prepare query term sets once and reuse them across searches.
func (c *Coordinator) Extractor() index.Extractor { return c.ex }

// Strategy returns the shard strategy the coordinator routes with. Two
// coordinators with equal strategies partition any term set identically,
// so a QueryPlan is reusable across them.
func (c *Coordinator) Strategy() shard.Strategy { return c.strategy }

// QueryPlan is one term set's routing across a shard strategy: the
// per-node term slices exactly as they go on the wire (queryRequest.Terms)
// and the distinct-shard count. Building the plan is the per-query
// sharding cost — two passes over the terms through ShardOf and NodeOf — so
// preparing it once and reusing it across repeated or batched searches
// removes that cost from the scatter hot path. A plan is immutable after
// construction and safe for concurrent use; it is valid for any
// coordinator whose Strategy equals the one that built it.
type QueryPlan struct {
	routes []route
	shards int
}

// route is one owning node's share of a planned term set, ascending.
type route struct {
	node  int
	terms []uint32
}

// card returns the number of planned terms — the query's global |F|,
// carried on the wire so nodes can threshold-prune. The routes partition
// the terms.
func (p *QueryPlan) card() int {
	n := 0
	for _, r := range p.routes {
		n += len(r.terms)
	}
	return n
}

// Stats returns the fan-out the planned query incurs.
func (p *QueryPlan) Stats() QueryStats {
	return QueryStats{Shards: p.shards, Nodes: len(p.routes)}
}

// nodes returns the plan's nodes as a node mask, bit i for node i.
func (p *QueryPlan) nodes() (mask uint64) {
	for _, r := range p.routes {
		mask |= 1 << r.node
	}
	return mask
}

// Plan partitions a query's terms (distinct, ascending) by owning node
// under the coordinator's strategy, returning the reusable routing, in
// ascending node order. ShardOf is monotone, so the distinct shards are
// its runs; a counting pass sizes each node's stretch of one array. The
// route of a one-node plan, the common case, is terms itself, shared:
// the plan is valid as long as terms is not modified.
func (c *Coordinator) Plan(terms []uint32) *QueryPlan {
	p := &QueryPlan{}
	var perNode [64]int // NewCoordinator caps Nodes at 64
	last, nodes := -1, 0
	for _, term := range terms {
		if sh := c.strategy.ShardOf(term); sh != last {
			p.shards, last = p.shards+1, sh
		}
		node := c.strategy.NodeOf(last)
		if perNode[node] == 0 {
			nodes++
		}
		perNode[node]++
	}
	p.routes = make([]route, 0, nodes)
	if nodes == 1 {
		p.routes = append(p.routes, route{node: c.strategy.NodeOf(last), terms: terms})
		return p
	}
	grouped, off := make([]uint32, len(terms)), 0
	for node, n := range perNode[:c.strategy.Nodes] {
		if n > 0 {
			p.routes = append(p.routes, route{node: node, terms: grouped[off : off : off+n]})
			perNode[node], off = len(p.routes)-1, off+n
		}
	}
	for _, term := range terms {
		r := &p.routes[perNode[c.strategy.NodeOfGeodab(term)]]
		r.terms = append(r.terms, term)
	}
	return p
}

// SearchInfo reports what one distributed search touched.
type SearchInfo struct {
	// Candidates is the number of distinct trajectories seen across the
	// partial intersection counts that crossed the wire, before distance
	// filtering. Candidates the shard nodes pruned are not included; on a
	// node-ranked search (see SearchPlan) it is the hits the node shipped
	// in the round that was ranked.
	Candidates int
	// Pruned is how many candidates the coordinator's threshold bounds
	// skipped before scoring, after the merge, counting every candidate
	// past the count-order walk's stop — visible to the snapshot or not.
	Pruned int
	// NodePruned is how many candidate partials the shard nodes'
	// cardinality window skipped before serialization — entries that,
	// without node-side pruning, would have crossed the wire and been
	// pruned by the coordinator instead. A candidate spanning several
	// nodes counts once per node, matching its wire cost. A node that
	// ranks a one-node plan reports 0: the window is part of its ranking.
	NodePruned int
	// WirePartials is the number of (ID, count) partial entries that did
	// cross the wire, summed over the answering nodes and over both rounds
	// of a node-ranked search that asked again; with NodePruned it
	// quantifies the transfer the node-side window saved.
	WirePartials int
	// Shards and Nodes are the fan-out the query's terms incurred.
	Shards int
	Nodes  int
}

// SearchPlan scatter-gathers the ranked retrieval problem across the
// cluster for a pre-planned query and merges partial intersection counts
// into Jaccard-ranked results, equivalent to index.Inverted's
// AppendSearchSet over the same data. The plan's term set is already
// extracted and partitioned by owning node, so the scatter starts
// immediately — repeated and batched searches of one prepared query pay
// extraction and sharding once, not per call. The plan must have been
// built by a coordinator with an equal Strategy. Cancelling ctx aborts
// the scatter-gather promptly and returns the context's error; the first
// node failure cancels the sibling calls, so one wedged node cannot hold
// the query past another node's error.
//
// The search is snapshot-isolated against concurrent mutations: it takes
// the mutation watermark before scattering and ranks only trajectories
// whose last mutation committed at or below it. A trajectory whose add
// or delete overlaps the search is either fully visible (the mutation
// committed before the snapshot, so every node answered with its terms)
// or fully invisible — never ranked on a partial intersection count.
//
// A capped search of a one-node plan is ranked on that node, which ships
// its top limit hits instead of every partial; the coordinator ranks
// them again through its directory. When the node shipped a full limit
// and a shipped hit fails the directory check — what a failed write
// leaves behind — a hit the node did not ship might place, so the search
// asks again for every partial (docs/invariants.md, "Ranking in count
// order").
func (c *Coordinator) SearchPlan(parent context.Context, plan *QueryPlan, maxDistance float64, limit int) ([]index.Result, SearchInfo, error) {
	if err := parent.Err(); err != nil {
		return nil, SearchInfo{}, err
	}
	if err := c.checkClosed(); err != nil {
		return nil, SearchInfo{}, err
	}
	snap := c.watermark()
	info := SearchInfo{Shards: plan.shards, Nodes: len(plan.routes)}
	s := index.GetScratch()
	defer s.Release()
	nodeLimit := 0
	if len(plan.routes) == 1 && limit > 0 {
		nodeLimit = limit
	}
	for {
		if err := c.gather(parent, s.Counter, plan, snap, maxDistance, nodeLimit, &info); err != nil {
			return nil, info, err
		}
		results, err := c.rank(parent, s, plan, snap, maxDistance, limit, &info)
		// Only a node-ranked first round gets here with nodeLimit > 0, so
		// WirePartials is what that node shipped.
		if err != nil || nodeLimit == 0 || info.WirePartials < nodeLimit || len(results) == limit {
			return results, info, err
		}
		s.Counter.Reset()
		nodeLimit = 0
	}
}

// gather scatters the plan's routes and sums the nodes' replies into
// counter, adding to info's wire counts. nodeLimit is the queryRequest's
// Limit, for a one-route plan. A one-route plan, the common case, is
// asked on the caller's goroutine with nothing handed to a fan-out, so
// nothing it touches escapes to the heap; only a scatter to several
// nodes pays for its goroutines' shared state.
func (c *Coordinator) gather(ctx context.Context, counter *bitmap.Counter, plan *QueryPlan, snap uint64, maxDistance float64, nodeLimit int, info *SearchInfo) error {
	if len(plan.routes) == 1 {
		return c.queryRoute(ctx, plan, 0, snap, maxDistance, nodeLimit, func(r *response) {
			r.Query.addTo(counter)
			info.NodePruned += r.Query.pruned
			info.WirePartials += r.Query.len()
		})
	}
	var mu sync.Mutex
	var pruned, partials int
	err := fanout.Workers(ctx, len(plan.routes), len(plan.routes), func(ctx context.Context, i int) error {
		return c.queryRoute(ctx, plan, i, snap, maxDistance, nodeLimit, func(r *response) {
			mu.Lock()
			r.Query.addTo(counter)
			pruned += r.Query.pruned
			partials += r.Query.len()
			mu.Unlock()
		})
	})
	info.NodePruned += pruned
	info.WirePartials += partials
	return err
}

// queryRoute asks the node of the plan's route i for its partial counts,
// handing the reply to use. Node term spaces are disjoint, so summing
// the replies' partial counts yields the exact |F ∩ G| — the distributed
// half of the counting merge — straight from the replies' bytes.
func (c *Coordinator) queryRoute(ctx context.Context, plan *QueryPlan, i int, snap uint64, maxDistance float64, nodeLimit int, use func(*response)) error {
	r := plan.routes[i]
	return c.readCall(ctx, r.node, &request{
		Op:           opQuery,
		CompactBelow: snap,
		// QueryCard and MaxDistance let the node apply the cardinality
		// window before encoding its partials, and rank under a Limit.
		Query: &queryRequest{Terms: r.terms, QueryCard: plan.card(), MaxDistance: maxDistance, Limit: nodeLimit},
	}, use)
}

// rank ranks the counts gathered into s through the local index's core.
// The walk probes the directory under the read lock, only above its
// stop; a candidate ranks only if its mutation committed at or below the
// snapshot.
func (c *Coordinator) rank(ctx context.Context, s *index.Scratch, plan *QueryPlan, snap uint64, maxDistance float64, limit int, info *SearchInfo) ([]index.Result, error) {
	info.Candidates = len(s.Counter.Candidates())
	qc := plan.card()
	s.Ranker.Init(qc, maxDistance, limit)
	c.mu.RLock()
	err := s.Ranker.RankByCount(ctx, s.Counter, func(id uint32) (int, bool) {
		entry, ok := c.directory[trajectory.ID(id)]
		return int(entry.card), ok && entry.state == stateLive && entry.epoch <= snap
	})
	c.mu.RUnlock()
	if errors.Is(err, index.ErrCountAboveQuery) {
		return nil, fmt.Errorf("cluster: node partial counts exceed the query's %d terms: %w", qc, err)
	}
	if err != nil {
		return nil, err
	}
	info.Pruned = s.Ranker.Pruned()
	// No hits is a nil slice, as on the local engine: callers compare the
	// two engines' rankings with reflect.DeepEqual.
	return s.Ranker.Finish(nil), nil
}

// readCall routes one read request across a shard's primary and replica
// set per the coordinator's read preference, handing the reply to use
// as client.call does — once, from whichever node answered. Under
// ReadReplicas, reads round-robin the replicas; a replica that errors or
// refuses the request as stale falls through to the next, and ultimately
// the primary. Under ReadPrimary, the primary answers and replicas are
// failover only. The snapshot watermark the request carries makes either
// route exact: a replica only answers a snapshot its replicated state
// provably covers.
func (c *Coordinator) readCall(ctx context.Context, node int, req *request, use func(*response)) error {
	var reps []*client
	if c.replicas != nil {
		reps = c.replicas[node]
	}
	if len(reps) == 0 {
		return c.clients[node].call(ctx, req, use)
	}
	if c.readPref == ReadReplicas {
		start := int(c.rr[node].Add(1))
		for i := 0; i < len(reps); i++ {
			if reps[(start+i)%len(reps)].call(ctx, req, use) == nil {
				return nil
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		return c.clients[node].call(ctx, req, use)
	}
	err := c.clients[node].call(ctx, req, use)
	if err == nil || ctx.Err() != nil {
		return err
	}
	for _, rep := range reps {
		if rep.call(ctx, req, use) == nil {
			return nil
		}
	}
	return err
}

// Stats gathers per-node term and posting counts in parallel, slice
// index i matching node i. Cancelling ctx aborts the gather promptly;
// the first node failure cancels the sibling calls. The request
// piggybacks the mutation watermark, so a Stats call also lets nodes
// reclaim dead tombstones before reporting.
func (c *Coordinator) Stats(parent context.Context) ([]NodeStats, error) {
	if err := parent.Err(); err != nil {
		return nil, err
	}
	if err := c.checkClosed(); err != nil {
		return nil, err
	}
	below := c.watermark()
	out := make([]NodeStats, len(c.clients))
	err := fanout.Workers(parent, len(c.clients), len(c.clients), func(ctx context.Context, i int) error {
		if err := c.clients[i].call(ctx, &request{Op: opStats, CompactBelow: below}, func(r *response) { out[i] = r.Stats }); err != nil {
			return err
		}
		out[i].Node = i
		if c.replicas == nil || len(c.replicas[i]) == 0 {
			return nil
		}
		// Replica lag is measured against the primary's highest applied
		// epoch at the time of this gather; a momentarily larger stable
		// epoch (the stream ran ahead of our primary read) clamps to 0.
		for _, rep := range c.replicas[i] {
			rs := ReplicaStats{Addr: rep.addr}
			if rerr := rep.call(ctx, &request{Op: opStats}, func(r *response) {
				rs.StableEpoch, rs.FullSyncs = r.Stats.StableEpoch, r.Stats.FullSyncs
			}); rerr != nil {
				rs.Err = rerr.Error()
			} else if out[i].Epoch > rs.StableEpoch {
				rs.EpochLag = out[i].Epoch - rs.StableEpoch
			}
			out[i].Replicas = append(out[i].Replicas, rs)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NodeStats is one node's shard statistics, including its durability and
// replication state. It is also what a node answers opStats with: the
// node fills everything but Node and Replicas, which the coordinator
// adds from its own view of the cluster.
type NodeStats struct {
	Node     int
	Terms    int
	Postings int
	// Docs is the number of live trajectories with postings on the node;
	// Tombstones counts delete fences not yet reclaimed by compaction.
	Docs       int
	Tombstones int
	// Epoch is the highest mutation epoch the node has applied;
	// StableEpoch the epoch through which its state is proven complete.
	Epoch       uint64
	StableEpoch uint64
	// Write-ahead log state; zero when the node runs without one.
	WALBytes    int64
	WALSegments int
	WALRecords  uint64
	WALSyncs    uint64
	WALLastSync time.Duration
	// FullSyncs counts full syncs the node served; Subscribers is how
	// many replicas currently tail its mutation stream; Replicas holds
	// the per-replica lag gathered alongside.
	FullSyncs   uint64
	Subscribers int
	Replicas    []ReplicaStats
	// Point retention and node-side rerank state: trajectories whose raw
	// points this node owns, the points across them, their in-memory
	// size, and how many rerank candidates the node has exact-scored vs
	// proved outside the requested top-k without an exact score (lower
	// bound, or a dynamic program abandoned at the bar).
	RetainedDocs   int
	RetainedPoints int
	RetainedBytes  int64
	RerankScored   uint64
	RerankSkipped  uint64
}

// ReplicaStats is one read replica's replication state as seen during a
// Stats gather. EpochLag is the primary's highest applied epoch minus
// the replica's stable epoch — 0 means the replica can serve every
// snapshot the primary can. Err is set (and the epochs zero) when the
// replica was unreachable.
type ReplicaStats struct {
	Addr        string
	StableEpoch uint64
	EpochLag    uint64
	FullSyncs   uint64
	Err         string
}
