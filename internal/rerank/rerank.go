// Package rerank is the exact refinement pass of a search (the paper's
// §VI-C step): score a fingerprint-ranked shortlist against the query
// with a polynomial-cost trajectory metric. It is the one scoring loop in
// the system — the local index runs it over its retained points, a shard
// node over its slice of a pushed-down shortlist — so a cheaper bound
// added here speeds up both.
//
// Under a result cap, a candidate whose cheap lower bound proves it cannot
// enter the top-limit is skipped without running the O(n·m) dynamic
// program. Skips are strict-inequality only, so sorting what was scored
// and truncating to the cap is byte-identical to scoring everything.
package rerank

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"geodabs/internal/distance"
	"geodabs/internal/geo"
)

// Metric names a built-in exact metric. Only built-ins have a known lower
// bound, so only they can be gated, and only they can be named to a shard
// node — a custom metric is an arbitrary function and cannot cross a
// process boundary; the zero Metric stands for one. The values go on the
// wire between coordinator and nodes and must not be renumbered.
type Metric uint8

const (
	// DTW is dynamic time warping, DFD the discrete Fréchet distance.
	DTW Metric = 1
	DFD Metric = 2
)

// Func returns the metric's implementation — the same function the public
// package binds — or nil for anything but a built-in.
func (m Metric) Func() func(a, b []geo.Point) float64 {
	switch m {
	case DTW:
		return distance.DTW
	case DFD:
		return distance.DFD
	}
	return nil
}

// Candidate is one shortlist member. The caller fills ID and Points, and
// Box (the bounding box of Points) when it passes Score a gate; Score
// fills Score, or sets Skipped when the lower bound settled the candidate
// without scoring it.
type Candidate struct {
	ID     uint32
	Points []geo.Point
	Box    geo.Box

	Score   float64
	Skipped bool
}

// parallelMin is the shortlist length below which Score stays on the
// calling goroutine; a pool is not worth its goroutine startup for a
// handful of metric calls.
const parallelMin = 16

// Score runs metric(query, c.Points) for every candidate on a bounded
// worker pool — the metrics are CPU-bound, so GOMAXPROCS workers at most,
// the calling goroutine among them, and it alone for a short shortlist.
//
// When gate is a built-in and limit is positive, the limit best (score,
// ID) pairs seen so far are kept in a heap, and a candidate whose lower
// bound lies strictly above the heap's worst member is marked Skipped
// instead of scored: it cannot place, not even on the ID tiebreak. The
// bound holds for the built-ins only — DTW and DFD each force the
// (first, first) and (last, last) alignments, so the larger endpoint
// haversine bounds both from below; the bounding-box separation bounds
// every matched pair, so it bounds DFD (a max over pairs) directly and
// DTW (a sum over a monotone path of at least max(n, m) pairs) times
// max(n, m) — which is why the caller must pass the gate that matches
// metric, or none.
//
// Workers read the heap's threshold under a mutex; a stale value is safe
// because the limit-th best only tightens as scores land — a looser one
// can admit an extra scoring, never skip a candidate that belongs in the
// top limit. Which candidates are skipped can therefore vary between
// runs; the top limit of those scored cannot.
//
// A cancelled ctx stops the workers between candidates; Score returns
// ctx.Err().
func Score(ctx context.Context, query []geo.Point, cands []Candidate, metric func(a, b []geo.Point) float64, gate Metric, limit int) error {
	if gate.Func() == nil {
		limit = 0 // no bound to gate with: the heap stays off
	}
	var (
		qBox   = geo.NewBox(query...)
		heapMu sync.Mutex
		h      = keptHeap{limit: limit}
		next   atomic.Int64
	)
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(cands) || ctx.Err() != nil {
				return
			}
			c := &cands[i]
			if limit > 0 && len(query) > 0 && len(c.Points) > 0 {
				heapMu.Lock()
				thr, full := h.threshold()
				heapMu.Unlock()
				if full && lowerBound(gate, query, qBox, c) > thr {
					c.Skipped = true
					continue
				}
			}
			c.Score = metric(query, c.Points)
			if limit > 0 {
				heapMu.Lock()
				h.offer(c.Score, c.ID)
				heapMu.Unlock()
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), len(cands))
	if len(cands) < parallelMin {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return ctx.Err()
}

// lowerBound cheaply bounds gate's metric between query and c from below;
// both point sequences must be non-empty.
func lowerBound(gate Metric, query []geo.Point, qBox geo.Box, c *Candidate) float64 {
	lb := math.Max(
		geo.Haversine(query[0], c.Points[0]),
		geo.Haversine(query[len(query)-1], c.Points[len(c.Points)-1]),
	)
	boxLB := qBox.MinDistance(c.Box)
	if gate == DTW {
		boxLB *= float64(max(len(query), len(c.Points)))
	}
	return math.Max(lb, boxLB)
}

// kept is one retained (score, ID) pair in the pruning heap.
type kept struct {
	score float64
	id    uint32
}

// worse is the (score asc, ID asc) comparison the pruning heap shares
// with index.SortResults: a is worse than b when it would sort after b in
// the final merge.
func worse(a, b kept) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.id > b.id
}

// keptHeap is a max-heap (by worse) of the limit best scores seen so far;
// its root is the limit-th best — the pruning threshold. Score consults
// it only under a positive limit.
type keptHeap struct {
	limit int
	items []kept
}

// threshold returns the limit-th best score so far and whether the heap
// is full — only a full heap prunes.
func (h *keptHeap) threshold() (float64, bool) {
	if len(h.items) < h.limit {
		return 0, false
	}
	return h.items[0].score, true
}

// offer records a scored candidate, evicting the current worst if the
// newcomer beats it under the (score, ID) tiebreak.
func (h *keptHeap) offer(score float64, id uint32) {
	k := kept{score, id}
	if len(h.items) < h.limit {
		h.items = append(h.items, k)
		for i := len(h.items) - 1; i > 0; { // sift up
			parent := (i - 1) / 2
			if !worse(h.items[i], h.items[parent]) {
				break
			}
			h.items[i], h.items[parent] = h.items[parent], h.items[i]
			i = parent
		}
		return
	}
	if !worse(h.items[0], k) {
		return
	}
	h.items[0] = k
	for i := 0; ; { // sift down
		worst := i
		if l := 2*i + 1; l < len(h.items) && worse(h.items[l], h.items[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h.items) && worse(h.items[r], h.items[worst]) {
			worst = r
		}
		if worst == i {
			break
		}
		h.items[i], h.items[worst] = h.items[worst], h.items[i]
		i = worst
	}
}
