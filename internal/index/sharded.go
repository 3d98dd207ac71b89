package index

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"geodabs/internal/fanout"
	"geodabs/internal/geo"
	"geodabs/internal/trajectory"
)

// Sharded is the local index engine. It partitions the corpus across a
// power-of-two number of independent Inverted shards by a hash of the
// trajectory ID. Every trajectory lives wholly in one shard (postings,
// cached cardinality, retained points), so a mutation takes exactly one
// shard's write lock and mutations on different shards proceed without
// contending. A search runs every shard's own search, spread over the
// calling goroutine and whatever helpers idle cores allow, and merges
// their top-k lists, producing rankings byte-identical at every shard
// count (see the package doc's Sharding section for why); with one shard
// it runs that shard's search directly.
//
// A concurrent search observes each trajectory either fully or not at
// all. What is weaker with several shards is the cross-shard snapshot: a
// search overlapping mutations on several shards may observe them at
// different epochs — the same isolation the network cluster's
// scatter-gather provides.
type Sharded struct {
	ex     Extractor
	shards []*Inverted
	mask   uint32
	// reloads counts ReadFrom swaps; it is bumped while every shard's write
	// lock is held. The shards of a fanned-out search lock independently,
	// so a search that sees the count move across its fan-out may have
	// ranked some shards before the swap and some after, and runs again.
	reloads atomic.Uint64
}

// NewSharded returns an empty sharded index with n shards, rounded up to
// the next power of two; n ≤ 0 builds one shard. One shard is the cheaper
// search unless a query is large and a core is idle: it pays for no
// fan-out and counts each term in one posting map. Ask for more to get
// mutations that stop contending, or fan-out over a large corpus.
// Options apply to every shard.
func NewSharded(ex Extractor, n int, opts ...InvertedOption) *Sharded {
	n = ceilPow2(n)
	s := &Sharded{ex: ex, shards: make([]*Inverted, n), mask: uint32(n - 1)}
	for i := range s.shards {
		s.shards[i] = newInverted(opts...)
	}
	return s
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NumShards returns the shard count (a power of two, fixed at
// construction).
func (s *Sharded) NumShards() int { return len(s.shards) }

// shardIndex places a trajectory ID: a strong 32-bit integer hash
// (lowbias32) masked down to the shard count. Sequentially assigned IDs —
// the common ingest pattern — would all land in shard 0 under a plain
// modulo of the low bits once the count divides them; the hash spreads
// them uniformly instead. The placement is a pure function of (ID, shard
// count), so snapshots can be rebalanced deterministically.
func shardIndex(id, mask uint32) uint32 {
	id ^= id >> 16
	id *= 0x7feb352d
	id ^= id >> 15
	id *= 0x846ca68b
	id ^= id >> 16
	return id & mask
}

// shardOf returns the shard owning a trajectory ID.
func (s *Sharded) shardOf(id trajectory.ID) *Inverted {
	return s.shards[shardIndex(uint32(id), s.mask)]
}

// Add fingerprints the trajectory and inserts it into the owning shard.
// Re-adding an ID fails; use Upsert to replace in place.
func (s *Sharded) Add(t *trajectory.Trajectory) error {
	return s.insert(t.ID, s.ex.Extract(t.Points), t.Points)
}

func (s *Sharded) insert(id trajectory.ID, terms []uint32, pts []geo.Point) error {
	return s.shardOf(id).insert(id, terms, pts)
}

// AddAll indexes a dataset, fingerprinting with the given number of
// parallel workers (minimum 1); insertions route to the owning shards,
// and duplicate-ID detection works because a given ID always hashes to
// the same shard. It fails fast: the first insertion error (or context
// cancellation) stops job dispatch, and AddAll returns once it sees the
// failure, without draining the extractions still in flight; their
// results are dropped. AddAll is all-or-nothing — on failure the
// trajectories it inserted are removed again, one lock acquisition per
// touched shard, so the caller can retry the same dataset after fixing
// the cause.
func (s *Sharded) AddAll(ctx context.Context, d *trajectory.Dataset, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type extracted struct {
		id    trajectory.ID
		terms []uint32
		pts   []geo.Point
	}
	jobs := make(chan *trajectory.Trajectory)
	results := make(chan extracted)
	go func() {
		defer close(jobs)
		for _, t := range d.Trajectories {
			select {
			case jobs <- t:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for t := range jobs {
				select {
				case results <- extracted{id: t.ID, terms: s.ex.Extract(t.Points), pts: t.Points}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	var firstErr error
	var inserted []trajectory.ID
	for r := range results {
		if firstErr = ctx.Err(); firstErr != nil {
			break // cancellation outranks in-flight results
		}
		if firstErr = s.insert(r.id, r.terms, r.pts); firstErr != nil {
			break
		}
		inserted = append(inserted, r.id)
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		// Stop dispatch; workers drop what they still extract. Then roll
		// back this call's insertions so a retry starts clean. The
		// cancellation that may have failed the ingest must not stop it, and
		// without one DeleteAll cannot fail.
		cancel()
		_, _ = s.DeleteAll(context.WithoutCancel(ctx), inserted)
	}
	return firstErr
}

// Delete removes a trajectory from its owning shard, reporting whether it
// was indexed.
func (s *Sharded) Delete(id trajectory.ID) bool {
	return s.shardOf(id).Delete(id)
}

// Upsert fingerprints the trajectory and replaces any previous version in
// its owning shard; the swap is atomic under that shard's write lock.
func (s *Sharded) Upsert(t *trajectory.Trajectory) {
	s.shardOf(t.ID).upsertSet(t.ID, s.ex.Extract(t.Points), t.Points)
}

// DeleteAll groups the IDs by owning shard and deletes each group under a
// single acquisition of that shard's write lock, honoring ctx between
// shards and (via Inverted.DeleteAll) inside each batch. It returns how
// many of the IDs were actually indexed; unknown IDs are skipped, so the
// call is idempotent.
func (s *Sharded) DeleteAll(ctx context.Context, ids []trajectory.ID) (int, error) {
	if len(s.shards) == 1 {
		return s.shards[0].DeleteAll(ctx, ids)
	}
	perShard := make([][]trajectory.ID, len(s.shards))
	for _, id := range ids {
		si := shardIndex(uint32(id), s.mask)
		perShard[si] = append(perShard[si], id)
	}
	deleted := 0
	for si, group := range perShard {
		if len(group) == 0 {
			continue
		}
		n, err := s.shards[si].DeleteAll(ctx, group)
		deleted += n
		if err != nil {
			return deleted, err
		}
	}
	return deleted, nil
}

// Epoch returns the index's mutation epoch — the sum of the shard epochs.
// Every insert, delete and upsert bumps exactly one shard's epoch, so the
// sum is a monotone mutation counter; it is persisted in snapshots so
// lineages of a mutated index stay ordered.
func (s *Sharded) Epoch() uint64 {
	var total uint64
	for _, sh := range s.shards {
		total += sh.Epoch()
	}
	return total
}

// Extractor returns the index's term extractor (immutable after
// construction), so callers can prepare query term sets once and reuse
// them across searches.
func (s *Sharded) Extractor() Extractor { return s.ex }

// Len returns the total number of indexed trajectories.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}

// Stats aggregates the per-shard statistics. Terms counts per-shard term
// entries (a term spanning k shards counts k times), mirroring the memory
// actually held by the per-shard posting maps.
func (s *Sharded) Stats() Stats {
	var total Stats
	for _, sh := range s.shards {
		st := sh.Stats()
		total.Trajectories += st.Trajectories
		total.Terms += st.Terms
		total.Postings += st.Postings
		total.BitmapBytes += st.BitmapBytes
	}
	total.Shards = len(s.shards)
	return total
}

// PointsOf returns the retained raw points of a trajectory, or nil.
func (s *Sharded) PointsOf(id trajectory.ID) []geo.Point {
	return s.shardOf(id).PointsOf(id)
}

// ScanDocs visits every indexed trajectory shard by shard until f returns
// false. Each shard is visited under its own read lock; the order is
// unspecified.
func (s *Sharded) ScanDocs(f func(id trajectory.ID, terms []uint32, card int) bool) {
	stopped := false
	for _, sh := range s.shards {
		if stopped {
			return
		}
		sh.ScanDocs(func(id trajectory.ID, terms []uint32, card int) bool {
			if !f(id, terms, card) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// Search fingerprints q and returns the trajectories whose Jaccard
// distance to it is at most maxDistance, ordered by increasing distance
// (ties by ID for determinism), truncated to limit results (limit ≤ 0
// means no limit) — the paper's "finding similar trajectories" problem
// (§II-B1). It is the extract-then-rank convenience for tools; callers
// that hold a query's extracted terms use AppendSearchSet.
func (s *Sharded) Search(ctx context.Context, q *trajectory.Trajectory, maxDistance float64, limit int) ([]Result, SearchStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, SearchStats{}, err
	}
	return s.AppendSearchSet(ctx, nil, s.ex.Extract(q.Points), maxDistance, limit)
}

// fanoutScratch is the pooled per-query state of a sharded search: each
// shard's hits, stats and error (each written by exactly one goroutine)
// and the buffer their merge is sorted in. Pooling it makes a steady-state
// fanned-out search allocation-free once the buffers have grown to the
// workload, bar fanout.Each's per-call state.
type fanoutScratch struct {
	shards []shardSearch
	merged []Result
}

// shardSearch is one shard's answer within a fanned-out search.
type shardSearch struct {
	hits  []Result
	stats SearchStats
	err   error
}

var fanoutScratchPool = sync.Pool{New: func() any { return new(fanoutScratch) }}

// AppendSearchSet ranks against a query's extracted terms (distinct,
// ascending), appending the results to dst. A one-shard index runs the shard's search directly;
// otherwise every shard runs that same search with the caller's limit into
// its pooled hit buffer, each on whichever goroutine claims it first: the
// caller or one of the helpers fanout.Each can spare (none when every core
// is busy). A shard holds whole documents, so its shared counts are final
// and its own top-limit under the (distance, ID) order holds every hit of
// the global top-limit that it owns: sorting the at most shards × limit
// hits and truncating them is the one-shard ranking, whichever goroutine
// ranked each shard. Stats add up across shards.
func (s *Sharded) AppendSearchSet(ctx context.Context, dst []Result, terms []uint32, maxDistance float64, limit int) ([]Result, SearchStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, SearchStats{}, err
	}
	if len(s.shards) == 1 {
		return s.shards[0].AppendSearchSet(ctx, dst, terms, maxDistance, limit)
	}
	if len(terms) == 0 {
		return dst, SearchStats{}, nil
	}
	fs := fanoutScratchPool.Get().(*fanoutScratch)
	defer fanoutScratchPool.Put(fs)
	fs.shards = slices.Grow(fs.shards[:0], len(s.shards))[:len(s.shards)]

	for {
		reloads := s.reloads.Load()
		if err := fanout.Each(ctx, len(s.shards), len(s.shards)-1, func(i int) {
			out := &fs.shards[i]
			out.hits, out.stats, out.err = s.shards[i].AppendSearchSet(ctx, out.hits[:0], terms, maxDistance, limit)
		}); err != nil {
			return nil, SearchStats{}, err
		}
		if s.reloads.Load() == reloads {
			break
		}
	}

	var stats SearchStats
	merged := fs.merged[:0]
	for _, out := range fs.shards {
		if out.err != nil {
			return nil, stats, out.err
		}
		stats.Candidates += out.stats.Candidates
		stats.Pruned += out.stats.Pruned
		merged = append(merged, out.hits...)
	}
	SortResults(merged)
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	dst = append(dst, merged...)
	fs.merged = merged
	return dst, stats, nil
}
