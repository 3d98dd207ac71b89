package geodabs

import (
	"context"
	"errors"
	"fmt"
	"geodabs/internal/fanout"
	"geodabs/internal/index"
	"geodabs/internal/rerank"
	"math"
	"reflect"
	"sort"
	"time"
)

// Searcher is the retrieval surface shared by the local *Index and the
// distributed *Cluster: one fingerprint-based query model, identical
// results (§IV of the paper). Search honors ctx cancellation and
// deadlines; behavior is shaped by functional options:
//
//	res, err := s.Search(ctx, q,
//		geodabs.WithMaxDistance(0.9),
//		geodabs.WithKNN(10))
//
// With no options a search returns every trajectory sharing at least one
// fingerprint with the query, most similar first.
//
// SearchQuery is Search over a prepared *Query, whose extraction (and,
// on a Cluster, shard partition) is computed once and cached inside the
// value — repeated and batched searches skip the per-call preparation
// cost. Search(ctx, t, ...) is exactly SearchQuery(ctx, NewQuery(t.Points),
// ...): the two return byte-identical results.
type Searcher interface {
	Search(ctx context.Context, q *Trajectory, opts ...SearchOption) (*SearchResult, error)
	SearchQuery(ctx context.Context, q *Query, opts ...SearchOption) (*SearchResult, error)
}

// preparedSearcher is the internal resolved-options search entry both
// engines implement: options are parsed exactly once per public call —
// a batch resolves them up front and fans the resolved set out to its
// workers instead of re-parsing inside every per-query search.
type preparedSearcher interface {
	searchPrepared(ctx context.Context, q *Query, o searchOptions) (*SearchResult, error)
}

// Compile-time proof that both retrieval engines present the one surface.
var (
	_ Searcher         = (*Index)(nil)
	_ Searcher         = (*Cluster)(nil)
	_ preparedSearcher = (*Index)(nil)
	_ preparedSearcher = (*Cluster)(nil)
)

// RerankMetric is the type of the exact trajectory distances
// WithExactRerank refines a fingerprint-ranked candidate set with — the
// paper's §VI-C refinement step. It takes DTW and DFD, the two metrics
// the paper refines with, and no other function: every bound the rerank
// pass prunes with is defined for one of them.
type RerankMetric func(a, b []Point) float64

// SearchOption configures one Search call.
type SearchOption func(*searchOptions) error

// searchOptions is the resolved option set. The zero value is completed
// by newSearchOptions; fields are only reachable through options so the
// defaulting rules stay in one place.
type searchOptions struct {
	maxDistance float64
	knn         int           // the result cap; 0 = no cap
	rerank      rerank.Metric // 0 = no rerank
}

func newSearchOptions(opts []SearchOption) (searchOptions, error) {
	o := searchOptions{maxDistance: 1}
	for _, opt := range opts {
		if err := opt(&o); err != nil {
			return o, err
		}
	}
	return o, nil
}

// rerankShortlistFactor bounds the exact-rerank shortlist: the metric
// scores the top k×factor fingerprint-ranked hits, keeping the
// polynomial-cost pass proportional to the requested result count.
const rerankShortlistFactor = 8

// fetchLimit is how many fingerprint-ranked hits to pull from the engine
// before post-processing: the final cap when the ranking is final, an
// enlarged shortlist when an exact rerank will re-order it, and the whole
// range when no cap was requested.
func (o searchOptions) fetchLimit() int {
	if o.rerank == 0 {
		return o.knn
	}
	return o.knn * rerankShortlistFactor
}

// WithMaxDistance keeps only trajectories within Jaccard distance d of
// the query (range semantics, the paper's Δmax). The default is 1: every
// candidate sharing at least one fingerprint qualifies.
func WithMaxDistance(d float64) SearchOption {
	return func(o *searchOptions) error {
		if math.IsNaN(d) || d < 0 || d > 1 {
			return fmt.Errorf("geodabs: WithMaxDistance(%v) out of range [0, 1]", d)
		}
		o.maxDistance = d
		return nil
	}
}

// WithKNN returns up to the k most similar trajectories — fewer when
// fewer than k indexed trajectories share a fingerprint with the query,
// since anything sharing none has Jaccard distance 1 and is never a
// candidate. Combine with WithMaxDistance for a ranged kNN. It is the
// one result cap: without it a search returns its whole range.
func WithKNN(k int) SearchOption {
	return func(o *searchOptions) error {
		if k < 1 {
			return fmt.Errorf("geodabs: WithKNN(%d) must be at least 1", k)
		}
		o.knn = k
		return nil
	}
}

// WithExactRerank re-ranks a fingerprint-ranked shortlist by the exact
// metric (ascending), the paper's §VI-C refinement: geodabs prune
// cheaply, the polynomial-cost measure decides the final order. The
// metric is DTW or DFD; any other function, nil included, fails the
// search when its options are parsed, before any search runs. With a
// result cap (WithKNN) the shortlist is the top k×8 fingerprint hits;
// without one, the whole WithMaxDistance range is scored — bound one or
// the other, or the rerank degenerates to the brute-force scan it exists
// to avoid. Each candidate is scored against its own O(n+m) upper bound
// too, capped or not, so even an uncapped rerank is guided per
// candidate: the exact program skips the cells no alignment under that
// bound runs through, and the scores are still the metric's own. Each
// hit's Distance is replaced by the metric's value in meters.
// Re-ranking needs the raw points of every hit, so it requires an
// engine constructed with WithPointRetention and fails on indexes
// loaded from a snapshot.
//
// On a *Cluster the refinement runs on the shard nodes: each
// trajectory's raw points live on its owner node, the shortlist is
// pushed down with the metric's name, and only (ID, score) pairs
// return.
func WithExactRerank(metric RerankMetric) SearchOption {
	m, ok := builtinMetric(metric)
	return func(o *searchOptions) error {
		if !ok {
			return errors.New("geodabs: WithExactRerank takes geodabs.DTW or geodabs.DFD: the rerank pass prunes with bounds defined for those metrics only")
		}
		o.rerank = m
		return nil
	}
}

// SearchResult carries one search's ranked hits and execution statistics.
type SearchResult struct {
	// Hits are ordered most similar first, ties broken by ID. Distance is
	// the Jaccard distance, unless WithExactRerank replaced it with the
	// exact metric's value.
	Hits []Result
	// Stats describes what the search touched.
	Stats SearchStats
}

// SearchStats summarizes one search execution.
type SearchStats struct {
	// Candidates is the number of trajectories sharing at least one
	// fingerprint with the query, before distance filtering. On a
	// distributed search it counts the distinct candidates whose partial
	// counts reached the coordinator — candidates the shard nodes pruned
	// (see NodePruned) share fingerprints too but are not included. A
	// capped search whose terms all live on one node is ranked on that
	// node, which ships only its top hits: Candidates counts those hits
	// (and WirePartials the same), unless the ranking had to ask the node
	// again for every partial, when it counts what that round shipped.
	Candidates int
	// Pruned is how many of those candidates threshold pruning skipped
	// before scoring: trajectories whose fingerprint cardinality or
	// shared-term count proves they cannot satisfy WithMaxDistance (or
	// beat the current kth-best candidate under WithKNN).
	// Candidates are ranked highest shared count first, so once a count
	// cannot place, every candidate below it counts here.
	Pruned int
	// NodePruned is how many candidate partials the shard nodes skipped
	// before serializing their responses: the query's cardinality window
	// is evaluated node-side against replicated document cardinalities,
	// so a non-qualifying candidate never crosses the wire (it is not
	// counted in Candidates or Pruned). A candidate spanning several
	// nodes counts once per node, matching its wire cost. It counts the
	// window alone: a node that ranks a one-node query reports none of
	// what its ranking skipped. Always zero for a local *Index search.
	NodePruned int
	// WirePartials is the number of per-node (ID, count) partial entries
	// that did cross the wire, summed over the answering shard nodes and,
	// when a node-ranked search asked again, over both rounds.
	// WirePartials + NodePruned is what the same search would have
	// shipped without node-side pruning. Always zero for a local *Index
	// search.
	WirePartials int
	// ShardsTouched and NodesTouched report the distributed fan-out; both
	// are zero for a local *Index search.
	ShardsTouched int
	NodesTouched  int
	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
}

// Search implements Searcher on the local index. It is a thin wrapper
// over SearchQuery: the trajectory's points become a one-shot prepared
// query, so results are byte-identical to the prepared path.
func (ix *Index) Search(ctx context.Context, q *Trajectory, opts ...SearchOption) (*SearchResult, error) {
	return ix.SearchQuery(ctx, NewQuery(q.Points), opts...)
}

// SearchQuery implements the prepared side of Searcher on the local
// index: the query's cached term set feeds the counting-merge core
// directly, skipping fingerprint extraction on every call after the
// first.
func (ix *Index) SearchQuery(ctx context.Context, q *Query, opts ...SearchOption) (*SearchResult, error) {
	o, err := newSearchOptions(opts)
	if err != nil {
		return nil, err
	}
	return ix.searchPrepared(ctx, q, o)
}

// searchPrepared runs one resolved search against the local index.
func (ix *Index) searchPrepared(ctx context.Context, q *Query, o searchOptions) (*SearchResult, error) {
	if err := checkQuery(q, o); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	hits, istats, err := ix.eng.AppendSearchSet(ctx, nil, q.termSet(ix.eng.Extractor()), o.maxDistance, o.fetchLimit())
	if err != nil {
		return nil, err
	}
	if hits, err = rerankHits(ctx, o, hits, q.Points(), ix.eng.PointsOf); err != nil {
		return nil, err
	}
	return &SearchResult{
		Hits: hits,
		Stats: SearchStats{
			Candidates: istats.Candidates,
			Pruned:     istats.Pruned,
			Elapsed:    time.Since(start),
		},
	}, nil
}

// SearchQueryBatch runs many prepared searches with the same options on
// the given number of parallel workers, for throughput workloads.
// Results align with qs by position. The first error cancels the
// remaining work. Each *Query's cached extraction is reused across the
// batch — and across batches, so a recurring query set pays preparation
// once for its lifetime. The same *Query may appear at several
// positions; it is searched independently at each.
func (ix *Index) SearchQueryBatch(ctx context.Context, qs []*Query, workers int, opts ...SearchOption) ([]*SearchResult, error) {
	o, err := newSearchOptions(opts)
	if err != nil {
		return nil, err
	}
	return searchBatch(ctx, ix, qs, workers, o)
}

// Search implements Searcher on the distributed cluster. A cancelled ctx
// aborts the scatter-gather promptly with the context's error. Like the
// local engine, it wraps the trajectory in a one-shot prepared query.
func (c *Cluster) Search(ctx context.Context, q *Trajectory, opts ...SearchOption) (*SearchResult, error) {
	return c.SearchQuery(ctx, NewQuery(q.Points), opts...)
}

// SearchQuery implements the prepared side of Searcher on the cluster:
// beyond the cached extraction, the query caches its per-shard term
// partition (the wire-ready per-node term slices) on first use against a
// shard strategy, so repeated and batched scatter-gathers skip both
// extraction and re-sharding.
func (c *Cluster) SearchQuery(ctx context.Context, q *Query, opts ...SearchOption) (*SearchResult, error) {
	o, err := newSearchOptions(opts)
	if err != nil {
		return nil, err
	}
	return c.searchPrepared(ctx, q, o)
}

// searchPrepared runs one resolved scatter-gather against the cluster.
func (c *Cluster) searchPrepared(ctx context.Context, q *Query, o searchOptions) (*SearchResult, error) {
	if err := checkQuery(q, o); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	hits, info, err := c.coord.SearchPlan(ctx, q.clusterPlan(c.coord), o.maxDistance, o.fetchLimit())
	if err != nil {
		return nil, translateClusterErr(err)
	}
	if hits, err = c.rerankRemote(ctx, o, hits, q.Points()); err != nil {
		return nil, err
	}
	return &SearchResult{
		Hits: hits,
		Stats: SearchStats{
			Candidates:    info.Candidates,
			Pruned:        info.Pruned,
			NodePruned:    info.NodePruned,
			WirePartials:  info.WirePartials,
			ShardsTouched: info.Shards,
			NodesTouched:  info.Nodes,
			Elapsed:       time.Since(start),
		},
	}, nil
}

// SearchQueryBatch runs many prepared scatter-gathers on a worker pool;
// see Index.SearchQueryBatch. On a cluster, each query's shard partition
// is also cached, so a batch that repeats a *Query re-shards nothing.
// Effective parallelism is bounded by the per-node connection pool (one
// in-flight RPC per pooled connection); size it with WithConnsPerNode at
// construction to match the worker count.
func (c *Cluster) SearchQueryBatch(ctx context.Context, qs []*Query, workers int, opts ...SearchOption) ([]*SearchResult, error) {
	o, err := newSearchOptions(opts)
	if err != nil {
		return nil, err
	}
	return searchBatch(ctx, c, qs, workers, o)
}

// checkQuery rejects option/query combinations that cannot execute: a
// nil query, and exact re-ranking of a fingerprint-only query, whose raw
// points were never available to score with the metric.
func checkQuery(q *Query, o searchOptions) error {
	if q == nil {
		return errors.New("geodabs: nil *Query")
	}
	if o.rerank != 0 && q.FingerprintOnly() {
		return errors.New("geodabs: WithExactRerank needs the query's raw points, which a fingerprint-only Query (QueryFromFingerprint) does not carry — build the query with NewQuery or Fingerprinter.Prepare instead")
	}
	return nil
}

// rerankHits applies the exact refinement pass on the local engine:
// score the shortlist with the metric through the rerank package, re-sort
// ascending (ties by ID), truncate to the result limit. Under a result
// cap the pass runs bounded — hits proved outside the top-limit are
// dropped without their exact score. A no-op when no rerank was
// requested.
func rerankHits(ctx context.Context, o searchOptions, hits []Result, query []Point, pointsOf func(ID) []Point) ([]Result, error) {
	if o.rerank == 0 {
		return hits, nil
	}
	// Resolve every hit's points before scoring any, so a failure names
	// the complete set of unavailable trajectories instead of whichever
	// one a worker tripped over first.
	cands := make([]rerank.Candidate, len(hits))
	var missing []ID
	for i, h := range hits {
		pts := pointsOf(h.ID)
		if pts == nil {
			missing = append(missing, h.ID)
		}
		cands[i] = rerank.Candidate{ID: uint32(h.ID), Points: pts}
	}
	if len(missing) > 0 {
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		return nil, fmt.Errorf("geodabs: cannot rerank: raw points of %d of %d shortlist trajectories unavailable (IDs %v): index built without WithPointRetention, or snapshot-loaded index", len(missing), len(hits), missing)
	}
	if err := rerank.Score(ctx, query, cands, o.rerank, o.knn); err != nil {
		return nil, err
	}
	scored := hits[:0]
	for i, c := range cands {
		if !c.Skipped {
			hits[i].Distance = c.Score
			scored = append(scored, hits[i])
		}
	}
	index.SortResults(scored)
	if o.knn > 0 && len(scored) > o.knn {
		scored = scored[:o.knn]
	}
	return scored, nil
}

// rerankRemote is the distributed refinement pass: instead of pulling
// every candidate's raw points to the coordinator, the shortlist is
// pushed down to the shard nodes that retain them. Each node scores its
// slice through the same rerank.Score pass as a local rerank (so scores
// are bit-identical), dropping candidates it proves cannot enter the
// top-limit, and ships back (ID, score) pairs — raw
// points never cross the wire at query time. The coordinator merges the
// scores into the final ranking.
func (c *Cluster) rerankRemote(ctx context.Context, o searchOptions, hits []Result, query []Point) ([]Result, error) {
	if o.rerank == 0 {
		return hits, nil
	}
	reranked, err := c.coord.Rerank(ctx, hits, query, o.rerank, o.knn)
	if err != nil {
		return nil, translateClusterErr(err)
	}
	return reranked, nil
}

// builtinMetric maps a RerankMetric to its tag, reporting false for
// anything but DTW and DFD. Comparison is by function pointer: DTW and
// DFD are package-level bindings of the internal implementations, so any
// alias of them resolves to the same code pointer.
func builtinMetric(m RerankMetric) (rerank.Metric, bool) {
	switch reflect.ValueOf(m).Pointer() {
	case reflect.ValueOf(DTW).Pointer():
		return rerank.DTW, true
	case reflect.ValueOf(DFD).Pointer():
		return rerank.DFD, true
	}
	return 0, false
}

// searchBatch fans qs out over a worker pool against either engine's
// resolved-options entry. The caller has already parsed the options —
// exactly once per batch — so a bad option fails before any query runs
// and no worker re-resolves the option slice per search.
func searchBatch(ctx context.Context, s preparedSearcher, qs []*Query, workers int, o searchOptions) ([]*SearchResult, error) {
	out := make([]*SearchResult, len(qs))
	err := fanout.Workers(ctx, len(qs), workers, func(ctx context.Context, i int) error {
		r, err := s.searchPrepared(ctx, qs[i], o)
		out[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
