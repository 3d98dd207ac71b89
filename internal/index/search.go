package index

import (
	"context"
	"errors"
	"math"
	"slices"

	"geodabs/internal/bitmap"
	"geodabs/internal/trajectory"
)

// This file is the ranked-retrieval core: a term-at-a-time counting merge
// with threshold pruning and a pooled, allocation-free steady state.
//
// The classic document-at-a-time formulation — materialize the union of
// the query terms' posting lists, then intersect the query set against
// every candidate's fingerprint set — costs O(Σ|postings|) container
// merges to build the union plus O(|candidates| × (|F|+|G|)) container
// walks to score. The counting merge drops both terms: each posting list
// is streamed once into a chunked per-query counter (bitmap.Counter), so
// after one O(Σ|postings|) pass the counter holds |F ∩ G| for every
// candidate G, and the union follows from cached cardinalities as
// |F| + |G| − |F ∩ G| in O(1). Total: O(Σ|postings| + |candidates|).
// The counter is exact for any number of posting lists, so this is the
// only search path: no query is too wide for it.
//
// Threshold pruning (in the spirit of exact trajectory indexes such as
// N-tree, arXiv:2408.07650) skips candidates before the floating-point
// scoring step. For a similarity bar s = 1 − maxDistance, a candidate G
// can only satisfy dJ(F, G) ≤ maxDistance when
//
//	s·|F| ≤ |G| ≤ |F|/s            (cardinality window)
//	|F ∩ G|·(1+s) ≥ s·(|F|+|G|)    (shared-count bar)
//
// and under a k-bounded search the bar rises as better candidates fill
// the top-k heap (s becomes 1 − kth-best distance). Both bounds are
// applied with one count of slack so floating-point rounding can never
// prune a candidate the exact check would keep; the exact legacy
// comparison decides every emitted result, keeping rankings byte-identical
// to the sort-everything contract (distance ascending, ID tiebreak).

// SearchStats reports what one ranked search touched.
type SearchStats struct {
	// Candidates is the number of trajectories sharing at least one
	// fingerprint with the query, before distance filtering.
	Candidates int
	// Pruned is how many of those candidates the threshold bounds skipped
	// before the scoring step, counting those after the count-order
	// walk's stop, whose cardinality was never read.
	Pruned int
}

// ErrCountAboveQuery reports a candidate counted as sharing more
// fingerprints than the query has: the counts came from broken input.
var ErrCountAboveQuery = errors.New("index: a candidate's shared count exceeds the query's cardinality")

// resultLess is the ranking contract: distance ascending, ID tiebreak.
func resultLess(a, b Result) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.ID < b.ID
}

// SortResults orders by ascending distance, breaking ties by ID — the
// ranking contract shared by the local index, the cluster coordinator,
// and the exact-rerank refinement.
//
//geodabs:noalloc
func SortResults(results []Result) {
	slices.SortFunc(results, func(a, b Result) int {
		switch {
		case resultLess(a, b):
			return -1
		case resultLess(b, a):
			return 1
		default:
			return 0
		}
	})
}

// Ranker folds (id, cardinality, shared-count) candidate triples into the
// ranked-retrieval contract. It owns the threshold pruning bounds and,
// under a result cap, a bounded top-k max-heap whose rising distance bar
// tightens the bounds as better candidates accumulate; without a cap it
// accumulates a flat result list for one final sort. Both the local index
// and the cluster coordinator rank through it, so the two engines cannot
// drift. A Ranker is reusable via Init and performs no allocations once
// its scratch has grown to the workload's steady state; it is not safe
// for concurrent use.
type Ranker struct {
	qc          int
	maxDistance float64
	limit       int

	// sim is the static similarity bar 1 − maxDistance; effSim is the
	// effective bar, raised above sim by the top-k heap as it fills.
	sim, effSim float64
	// minCard/maxCard is the cardinality window derived from effSim with
	// one count of slack; maxCard 0 means unbounded.
	minCard, maxCard int
	pruned           int

	heap    []Result // max-heap by (distance, ID) when limit > 0
	results []Result // flat accumulation when limit ≤ 0

	// RankByCount's scratch: the counter's drained counts, parallel to its
	// candidates; one histogram bucket per count 0..|F|, which turn into
	// offsets as the levels of a band are placed; and the band's
	// candidates, highest count first.
	counts  []uint32
	buckets []int32
	order   []uint32
}

// minBand is the fewest candidates RankByCount places at a time under a
// result cap: enough that the walk of a k-bounded search usually stops
// inside its first band.
const minBand = 256

// Init readies the ranker for one search: a query of cardinality qc,
// a distance cutoff, and a result cap (≤ 0 for uncapped).
func (r *Ranker) Init(qc int, maxDistance float64, limit int) {
	r.qc, r.maxDistance, r.limit = qc, maxDistance, limit
	r.pruned = 0
	r.heap = r.heap[:0]
	r.results = r.results[:0]
	r.sim = 1 - maxDistance
	if r.sim < 0 {
		r.sim = 0
	}
	r.effSim = r.sim
	r.retarget()
}

// retarget recomputes the cardinality window from effSim, keeping one
// count of slack so rounding cannot prune what the exact check would keep.
func (r *Ranker) retarget() {
	r.minCard, r.maxCard = cardinalityWindow(r.effSim, r.qc)
}

// cardinalityWindow computes the threshold-pruning window for a
// similarity bar: a candidate of cardinality card can only qualify when
// minCard ≤ card ≤ maxCard (maxCard 0 means unbounded). One count of
// slack on each bound keeps the window conservative against
// floating-point rounding.
func cardinalityWindow(sim float64, qc int) (minCard, maxCard int) {
	if sim <= 0 {
		return 0, 0
	}
	minCard = int(math.Ceil(sim*float64(qc))) - 1
	if maxC := math.Floor(float64(qc)/sim) + 1; maxC < math.MaxInt32 {
		maxCard = int(maxC)
	}
	return minCard, maxCard
}

// CardinalityWindow returns the cardinality bounds a candidate must fall
// in to possibly satisfy dJ(F, G) ≤ maxDistance against a query of
// cardinality qc: minCard ≤ |G| ≤ maxCard, with maxCard 0 meaning
// unbounded. It is exactly the window the Ranker starts from, exported
// so the cluster's shard nodes can apply the same bounds before
// shipping partial counts — the window depends only on |F|, |G| and the
// distance bound, never on cross-node intersection counts, so it is
// safe to evaluate against a node's replicated cardinalities. A
// candidate outside the window is one the coordinator's Ranker would
// prune anyway, which keeps node-side pruning invisible in the ranked
// results.
func CardinalityWindow(qc int, maxDistance float64) (minCard, maxCard int) {
	return cardinalityWindow(1-maxDistance, qc)
}

// InWindow reports whether a candidate of the given cardinality falls
// inside a window produced by CardinalityWindow. Every pruning site —
// the Ranker and the shard nodes — must test through it (and WindowOpen),
// so the maxCard-0-means-unbounded convention cannot drift between them.
func InWindow(card, minCard, maxCard int) bool {
	return card >= minCard && (maxCard == 0 || card <= maxCard)
}

// WindowOpen reports whether a window produced by CardinalityWindow
// admits every cardinality — InWindow holds for any card ≥ 0 — so a
// pruning site may skip looking candidates' cardinalities up at all.
func WindowOpen(minCard, maxCard int) bool {
	return minCard <= 0 && maxCard == 0
}

// raiseBar lifts the effective similarity bar to the top-k heap's current
// worst member. Callers invoke it whenever a full heap's root changes.
func (r *Ranker) raiseBar() {
	if simBar := 1 - r.heap[0].Distance; simBar > r.effSim {
		r.effSim = simBar
		r.retarget()
	}
}

// Consider scores one candidate: a trajectory of the given fingerprint
// cardinality sharing `shared` fingerprints with the query. Candidates
// outside the threshold bounds are skipped before scoring and counted as
// pruned.
//
//geodabs:noalloc
func (r *Ranker) Consider(id trajectory.ID, card, shared int) {
	if !InWindow(card, r.minCard, r.maxCard) || r.belowBar(shared, card) {
		r.pruned++
		return
	}
	union := r.qc + card - shared
	d := 1.0
	if union > 0 {
		d = 1 - float64(shared)/float64(union)
	}
	if d > r.maxDistance {
		return
	}
	res := Result{ID: id, Distance: d, Shared: shared}
	if r.limit <= 0 {
		r.results = append(r.results, res)
		return
	}
	if len(r.heap) < r.limit {
		r.heap = append(r.heap, res)
		r.siftUp(len(r.heap) - 1)
		if len(r.heap) == r.limit {
			r.raiseBar()
		}
		return
	}
	// The heap is full: the candidate must beat the worst member under the
	// exact ranking contract, which a bar-equal distance can still do on
	// the ID tiebreak.
	if resultLess(res, r.heap[0]) {
		r.heap[0] = res
		r.siftDown(0)
		r.raiseBar()
	}
}

// belowBar reports whether a candidate fails the shared-count bar at the
// effective similarity, with one count of slack.
func (r *Ranker) belowBar(shared, card int) bool {
	s := r.effSim
	return s > 0 && float64(shared+1)*(1+s) < s*float64(r.qc+card)
}

// RankByCount considers a counter's candidates highest shared count first
// and stops at the first count c at which the bar fails even at |G| = c.
// A candidate sharing c fingerprints has |G| ≥ c, and the bar only
// tightens with |G| and with falling c, so every candidate from there on
// is one Consider would prune right now: it counts as pruned, and card —
// which resolves a cardinality, false for a candidate not to be ranked
// at all — is never called for it. The results equal considering every
// candidate in any order (docs/invariants.md, "Ranking in count order").
//
// The walk drains the counter (it takes no more Adds until Reset), and
// the drain builds a histogram of the counts in the same pass: one
// bucket per level, a count, since a count never exceeds |F|. A count
// above |F| (a node's reply can claim one) is ErrCountAboveQuery, before
// any ranking. Candidates are then placed a band at a time: one
// sequential scan of the drained counts places the highest levels not
// yet walked, enough of them to hold
// max(minBand, 8·limit) candidates and none the bar already fails at.
// The walk takes the band level by level, the count implicit in the
// level, and the next band is placed only if it has not stopped. Each
// band holds at least as many candidates as all before it, so the scans
// stay logarithmic in the candidates; uncapped, the bar never rises and
// the first band is the whole walk. Within a level candidates keep
// first-touch order, so the walk visits exactly what one counting sort
// of every candidate would. ctx is checked every 1024 candidates walked.
//
//geodabs:noalloc
func (r *Ranker) RankByCount(ctx context.Context, c *bitmap.Counter, card func(id uint32) (int, bool)) error {
	cands := c.Candidates()
	if cap(r.order) < len(cands) {
		r.order = append(r.order[:0], cands...) // sized in one allocation
	}
	r.buckets = r.buckets[:0]
	for range r.qc + 1 {
		r.buckets = append(r.buckets, 0)
	}
	buckets := r.buckets
	var above bool
	if r.counts, above = c.Drain(r.counts[:0], buckets); above {
		return ErrCountAboveQuery
	}
	need := len(cands)
	if r.limit > 0 {
		need = max(minBand, 8*r.limit)
	}
	walked := 0
	for hi := r.qc; ; {
		for hi >= 0 && buckets[hi] == 0 {
			hi--
		}
		if hi < 0 {
			return nil
		}
		if r.belowBar(hi, hi) {
			r.pruned += len(cands) - walked
			return nil
		}
		lo, size := hi, int(buckets[hi])
		for lo > 0 && size < need && !r.belowBar(lo-1, lo-1) {
			lo--
			size += int(buckets[lo])
		}
		var next int32
		for n := hi; n >= lo; n-- {
			next, buckets[n] = next+buckets[n], next
		}
		// One scan places the band's levels, each in first-touch order;
		// after it buckets[n] is where level n ends.
		band := r.order[:size]
		base, span := uint32(lo), uint32(hi-lo)
		for i, n := range r.counts {
			if n-base <= span {
				band[buckets[n]] = cands[i]
				buckets[n]++
			}
		}
		start := int32(0)
		for n := hi; n >= lo; n-- {
			for _, v := range band[start:buckets[n]] {
				if r.belowBar(n, n) {
					r.pruned += len(cands) - walked
					return nil
				}
				if walked%1024 == 1023 && ctx.Err() != nil {
					return ctx.Err()
				}
				walked++
				if g, ok := card(v); ok {
					r.Consider(trajectory.ID(v), g, n)
				}
			}
			start = buckets[n]
		}
		hi = lo - 1
		need = max(need, walked)
	}
}

// Pruned returns how many candidates the threshold bounds skipped.
func (r *Ranker) Pruned() int { return r.pruned }

// Finish appends the ranked results to dst and returns it. The output is
// byte-identical to sorting every in-range candidate by (distance, ID)
// and truncating to the cap.
//
//geodabs:noalloc
func (r *Ranker) Finish(dst []Result) []Result {
	src := r.results
	if r.limit > 0 {
		src = r.heap
	}
	dst = append(dst, src...)
	SortResults(dst[len(dst)-len(src):])
	return dst
}

// siftUp restores the max-heap property from leaf i upward.
func (r *Ranker) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !resultLess(r.heap[parent], r.heap[i]) {
			return
		}
		r.heap[parent], r.heap[i] = r.heap[i], r.heap[parent]
		i = parent
	}
}

// siftDown restores the max-heap property from node i downward.
func (r *Ranker) siftDown(i int) {
	n := len(r.heap)
	for {
		largest := i
		if l := 2*i + 1; l < n && resultLess(r.heap[largest], r.heap[l]) {
			largest = l
		}
		if rt := 2*i + 2; rt < n && resultLess(r.heap[largest], r.heap[rt]) {
			largest = rt
		}
		if largest == i {
			return
		}
		r.heap[i], r.heap[largest] = r.heap[largest], r.heap[i]
		i = largest
	}
}

// countStride is how many query terms countShared counts between two
// checks of ctx.
const countStride = 512

// countShared is stage 1 of every search — the counting merge: it streams
// the posting list of each query term into the scratch counter, so that
// |F ∩ G| accumulates per candidate as the lists go by, checking ctx once
// per countStride terms. The caller holds the read lock.
//
//geodabs:noalloc
func (ix *Inverted) countShared(ctx context.Context, sc *Scratch, terms []uint32) error {
	for len(terms) > 0 {
		n := min(len(terms), countStride)
		ix.postings.Count(sc.Counter, terms[:n])
		terms = terms[n:]
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// AppendSearchSet ranks the index's documents against a query's terms
// (distinct, ascending), appending the results to dst and reporting the
// size of the candidate set (trajectories sharing at least one term with
// the query) and how many candidates threshold pruning skipped.
// Cancellation is honored between the counting and ranking stages and
// periodically inside both loops. Callers on the hot path recycle dst
// across queries: with a warm scratch pool and a dst of sufficient
// capacity a search performs zero heap allocations.
//
//geodabs:noalloc
func (ix *Inverted) AppendSearchSet(ctx context.Context, dst []Result, terms []uint32, maxDistance float64, limit int) ([]Result, SearchStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, SearchStats{}, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if len(terms) == 0 {
		return dst, SearchStats{}, nil
	}
	sc := GetScratch()
	defer sc.Release()

	if err := ix.countShared(ctx, sc, terms); err != nil {
		return nil, SearchStats{}, err
	}
	stats := SearchStats{Candidates: len(sc.Counter.Candidates())}

	// Stage 2 — threshold-pruned scoring, highest shared count first, up to
	// the first count that cannot place.
	sc.Ranker.Init(len(terms), maxDistance, limit)
	// Every candidate of the counting merge is one of the index's
	// documents, so the card table holds it.
	if err := sc.Ranker.RankByCount(ctx, sc.Counter, ix.cards.Get); err != nil {
		return nil, stats, err
	}
	dst = sc.Ranker.Finish(dst)
	stats.Pruned = sc.Ranker.Pruned()
	return dst, stats, nil
}
