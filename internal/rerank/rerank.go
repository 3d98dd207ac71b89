// Package rerank is the exact refinement pass of a search (the paper's
// §VI-C step): score a fingerprint-ranked shortlist against the query
// with a polynomial-cost trajectory metric. It is the one scoring loop in
// the system — the local index runs it over its retained points, a shard
// node over its slice of a pushed-down shortlist — so a cheaper bound
// added here speeds up both.
//
// A metric runs in one pooled pass: the query is prepared once,
// every candidate gets O(n+m) bounds from above and from below, and the
// candidates are scored in two fixed rounds in ascending upper-bound
// order — first the limit with the smallest upper bounds, each under its
// own, then the rest, each under its own and the worst first-round score,
// a bar no result can lie above. A second-round candidate whose lower
// bounds — its points against the query's box, or the query's against its
// box — already pass that bar is dropped before any dynamic program runs.
// The bounded kernel does the rest: a cheap chord-cost pass bounds what
// every cell of the O(n·m) dynamic program can still cost to finish, so a
// far candidate is dropped after that pass and a near one computes the
// exact cost of little more than the cells its best alignment runs
// through. Every test is a strict inequality, and a score that is kept is
// the unbounded metric's float, so sorting what was scored and truncating
// to the cap is byte-identical to scoring everything.
package rerank

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"geodabs/internal/distance"
	"geodabs/internal/fanout"
	"geodabs/internal/geo"
)

// Metric names an exact metric: DTW or DFD. Each has known bounds and a
// bounded kernel, so it is scored against a bar, and its name can be
// sent to a shard node. The values go on the wire between coordinator
// and nodes and must not be renumbered.
type Metric uint8

const (
	// DTW is dynamic time warping, DFD the discrete Fréchet distance.
	DTW Metric = 1
	DFD Metric = 2
)

// kernel returns the metric's bounded implementation and its O(n+m)
// bounds over a prepared query, or nils for an unknown tag.
func (m Metric) kernel() (within func(*distance.Prepared, []geo.Point, float64) (float64, bool), bounds func(*distance.Prepared, []geo.Point) distance.Bounds) {
	switch m {
	case DTW:
		return (*distance.Prepared).DTWWithin, (*distance.Prepared).DTWBounds
	case DFD:
		return (*distance.Prepared).DFDWithin, (*distance.Prepared).DFDBounds
	}
	return nil, nil
}

// Candidate is one shortlist member. The caller fills ID and Points; a
// scoring pass fills Score, or sets Skipped when the candidate was proved
// outside the top limit without its exact score being known.
type Candidate struct {
	ID     uint32
	Points []geo.Point

	Score   float64
	Skipped bool
}

// parallelMin is the shortlist length below which a pass stays on the
// calling goroutine; a pool is not worth its goroutine startup for a
// handful of metric calls.
const parallelMin = 16

// Score scores every candidate with the metric m. It prepares
// the query once, bounds every candidate in one O(n+m) walk — from above
// by the cost of one particular alignment, from below by each candidate
// point's chord to the box around the query, both computed before any
// dynamic program runs — sorts the candidates by upper bound, and scores
// them in two rounds:
//
//   - round 1 scores the limit candidates with the smallest upper bounds,
//     each against its own bound;
//   - round 2 scores the rest against min(own bound, T), where T is the
//     largest round-1 score. A candidate whose lower bound lies strictly
//     above that bar, or whose box the query's points, summed or maxed as
//     the metric does, pass it against, is marked Skipped before its points
//     are converted or its kernel runs.
//
// Under a positive limit only the limit best (score, ID) pairs matter to
// the caller, and the limit round-1 candidates all score at or below T,
// so a score strictly above T cannot place, not even on the ID tiebreak.
// With limit <= 0, or limit at least the shortlist's length, there is one
// round under own bounds. A candidate's own bound is never below its
// score, so that term skips nothing; it guides the kernel, which then
// computes little more than the cells of alignments that can finish under
// it. A candidate is marked Skipped instead of scored when its lower
// bounds or the bounded kernel prove its score strictly above its bar —
// the kernel by its chord-cost table before any exact cell, or part-way
// through the program; every other candidate gets bit-for-bit the score
// m's unbounded function returns. Each candidate's bar depends only on
// the bounds and the round-1 scores, never on which worker got there
// first, so every run skips the same candidates.
//
// The pass's state — the prepared query, each candidate's bounds and box,
// and the order — is pooled: a pass allocates per pass, not per
// candidate, and holds O(shortlist) numbers beside the prepared query,
// plus each worker's kernel scratch.
//
// A cancelled ctx stops the workers between candidates; Score returns
// ctx.Err().
func Score(ctx context.Context, query []geo.Point, cands []Candidate, m Metric, limit int) error {
	within, bounds := m.kernel()
	if within == nil {
		return fmt.Errorf("rerank: unknown metric %d", m)
	}
	p := passPool.Get().(*pass)
	defer p.release()
	p.query.Prepare(query)
	p.cands, p.within, p.boundsOf = cands, within, bounds
	n := len(cands)
	p.bounds = append(p.bounds[:0], make([]distance.Bounds, n)...)
	if err := each(ctx, n, n, p.boundFn); err != nil {
		return err
	}
	p.order = p.order[:0]
	for i := range n {
		p.order = append(p.order, i)
	}
	slices.SortFunc(p.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(p.bounds[a].Upper, p.bounds[b].Upper), cmp.Compare(a, b))
	})
	first := n
	if 0 < limit && limit < n {
		first = limit
	}
	// Round 1 fans out whenever the whole shortlist would: on the caller
	// alone, its limit kernel calls would add up to the search's latency.
	p.round, p.bar = p.order[:first], math.Inf(1)
	if err := each(ctx, first, n, p.scoreFn); err != nil || first == n {
		return err
	}
	p.bar = math.Inf(-1)
	for _, i := range p.round {
		p.bar = max(p.bar, cands[i].Score)
	}
	p.round = p.order[first:]
	return each(ctx, n-first, n, p.scoreFn)
}

// pass is one Score call's state, pooled. boundFn and scoreFn are the
// methods bound once, when the pass is made, so a fan-out over them
// allocates no closure. A fanout helper calls them only for an item it
// claimed, and Score returns only after every claimed item has run, so a
// released pass is never read.
type pass struct {
	query    distance.Prepared
	cands    []Candidate
	within   func(*distance.Prepared, []geo.Point, float64) (float64, bool)
	boundsOf func(*distance.Prepared, []geo.Point) distance.Bounds
	bounds   []distance.Bounds
	order    []int

	// round is the slice of order being scored, bar the round's cap on
	// every candidate's own bound: +Inf in round 1, T in round 2.
	round []int
	bar   float64

	boundFn, scoreFn func(i int)
}

var passPool = sync.Pool{New: func() any {
	p := new(pass)
	p.boundFn, p.scoreFn = p.bound, p.score
	return p
}}

// release drops the pass's references to the caller's candidates and
// returns it to the pool.
func (p *pass) release() {
	p.cands, p.within, p.boundsOf = nil, nil, nil
	passPool.Put(p)
}

// bound computes candidate i's bounds.
func (p *pass) bound(i int) {
	p.bounds[i] = p.boundsOf(&p.query, p.cands[i].Points)
}

// score scores the round's k-th candidate against min(its upper bound,
// bar). Under round 2's finite bar it first tries the lower bounds, which
// drop a candidate before its kernel runs; under its own upper bound alone
// they cannot, as no bound from below exceeds one from above.
func (p *pass) score(k int) {
	i := p.round[k]
	c := &p.cands[i]
	b := &p.bounds[i]
	bar := p.bar
	if b.Upper < bar {
		bar = b.Upper
	}
	if p.bar < math.Inf(1) && p.query.Over(b, bar) {
		c.Skipped = true
		return
	}
	score, ok := p.within(&p.query, c.Points, bar)
	if !ok {
		c.Skipped = true
		return
	}
	c.Score = score
}

// each runs f(i) for every i in [0, n) through fanout.Each — the metrics
// are CPU-bound, so on the calling goroutine plus the helpers the
// process's idle cores allow, and on it alone when the whole shortlist is
// shorter than parallelMin. A cancelled ctx stops the claimers between
// calls; each then returns ctx.Err().
func each(ctx context.Context, n, shortlist int, f func(i int)) error {
	helpers := 0
	if shortlist >= parallelMin {
		helpers = n - 1
	}
	return fanout.Each(ctx, n, helpers, f)
}
