package geodabs

import (
	"sync"

	"geodabs/internal/cluster"
	"geodabs/internal/core"
	"geodabs/internal/index"
)

// Query is a prepared, reusable retrieval query. Query preparation —
// fingerprint extraction (FNV suffix hashing + geohash encoding) and, on
// a Cluster, partitioning the term set by owning shard node — dominates
// per-query cost, so Query converts it from a per-call expense into a
// per-query-lifetime one: the extracted term set and its shard partition
// are computed once and cached inside the value, and every SearchQuery,
// SearchQueryBatch and AnalyzeQuery call against any engine reuses them.
//
// Construct one with:
//
//   - NewQuery(points): lazy — extraction runs on first use, with the
//     engine's own fingerprinting configuration, and is cached for
//     subsequent uses against engines sharing that configuration.
//   - Fingerprinter.Prepare(points): eager — extraction runs immediately
//     with the Fingerprinter's configuration, off the search path.
//   - QueryFromFingerprint(fp): fingerprint-only — no raw points ever;
//     for clients that ship compact fingerprints instead of GPS traces.
//
// A Query is safe for concurrent use: one value can be shared across
// SearchQueryBatch workers and engines. A lazily-constructed Query used
// against engines with different fingerprinting configurations (say a
// geodab Index and a geohash-cell baseline Index) stays correct — the
// cache is keyed by configuration and re-derives on a mismatch — but
// then alternating engines re-extracts per call. The shard partition is
// cached the same way, for the most recent shard strategy only: a Query
// alternating between clusters of different strategies plans again on
// every switch. Prefer one Query per configuration and strategy for such
// workloads.
type Query struct {
	points []Point
	// fpOnly marks a Query built from a bare fingerprint: the term set is
	// authoritative as constructed (never re-derived), and there are no
	// raw points for WithExactRerank to refine against.
	fpOnly bool

	mu sync.RWMutex
	// ext is the cached extraction, with the shard partition of its terms.
	ext extraction
}

// extraction is one cached term-set derivation: the terms (distinct,
// ascending), the configuration key they were derived under, and the
// shard partition of those terms under the strategy it was last asked
// for, planStrat. A re-derivation replaces the whole value, plan
// included, so a plan never outlives the terms it was built from.
type extraction struct {
	valid     bool
	key       extractorKey
	keyed     bool
	terms     []uint32
	plan      *cluster.QueryPlan
	planStrat ShardStrategy
}

// extractorKey identifies an extraction's provenance: the index flavor
// (geodab fingerprints vs bare geohash cells) and the fingerprinting
// configuration. Extraction is a pure function of (key, points), so equal
// keys may share a cached term set even across distinct engine instances.
type extractorKey struct {
	cell bool
	cfg  Config
}

// keyOf maps an engine's extractor to its cache key. Only the two public
// index flavors are keyable; an unknown extractor type reports false and
// its extractions are not cached across engines.
func keyOf(ex index.Extractor) (extractorKey, bool) {
	switch e := ex.(type) {
	case index.GeodabExtractor:
		return extractorKey{cfg: e.Config()}, true
	case index.CellExtractor:
		return extractorKey{cell: true, cfg: e.Config()}, true
	}
	return extractorKey{}, false
}

// NewQuery prepares a lazy query over a raw point sequence. The slice
// header is shared, not copied; extraction runs on the first search (or
// analysis) and is cached inside the value. Use Fingerprinter.Prepare to
// pay the extraction eagerly instead, off the search path.
func NewQuery(points []Point) *Query {
	return &Query{points: points}
}

// QueryFromFingerprint prepares a query from a bare fingerprint, for
// clients that never hold the raw GPS trace — an edge device can winnow
// locally and ship the compact fingerprint instead of its points. The
// fingerprint must have been produced under the target engine's
// configuration; its set is shared with the query, not copied.
//
// A fingerprint-only query carries no raw points, so WithExactRerank
// fails against it with a pointed error; every fingerprint-ranked search
// works unchanged.
func QueryFromFingerprint(fp *Fingerprint) *Query {
	return &Query{fpOnly: true, ext: extraction{valid: true, terms: core.TermsOf(fp.Set)}}
}

// Points returns the query's raw point sequence, or nil for a
// fingerprint-only query.
func (q *Query) Points() []Point { return q.points }

// FingerprintOnly reports whether the query was built from a bare
// fingerprint (QueryFromFingerprint) and therefore cannot take part in
// exact re-ranking.
func (q *Query) FingerprintOnly() bool { return q.fpOnly }

// bind installs an eager extraction at construction time
// (Fingerprinter.Prepare); no locking — the value has not escaped yet.
func (q *Query) bind(key extractorKey, terms []uint32) {
	q.ext = extraction{valid: true, key: key, keyed: true, terms: terms}
}

// termSet returns the query's terms under the given extractor, deriving
// and caching them on first use. A fingerprint-only query always returns
// its construction-time terms; a lazy or prepared query returns the cached
// extraction when its configuration key matches and re-derives (replacing
// the cache, shard plan included) otherwise. Racing first uses may
// extract redundantly; all arrive at the same terms, so correctness is
// unaffected.
func (q *Query) termSet(ex index.Extractor) []uint32 {
	key, keyable := keyOf(ex)
	q.mu.RLock()
	if q.ext.valid && (q.fpOnly || (keyable && q.ext.keyed && q.ext.key == key)) {
		terms := q.ext.terms
		q.mu.RUnlock()
		return terms
	}
	q.mu.RUnlock()

	terms := ex.Extract(q.points)
	if !keyable {
		// Unknown extractor flavor: usable, but never cached — a later use
		// under a keyable engine must not inherit terms of unknown
		// provenance.
		return terms
	}
	q.mu.Lock()
	q.ext = extraction{valid: true, key: key, keyed: true, terms: terms}
	q.mu.Unlock()
	return terms
}

// clusterPlan returns the shard partition of the query's terms under the
// coordinator's extractor and strategy, building and caching it on first
// use. The cache is one slot, like the extraction's: it holds the plan of
// the most recent strategy, so a query alternating between clusters of
// different strategies plans again on every switch, as one alternating
// between extractors re-extracts. The plan is kept with the extraction it
// was built from, and used or kept only while that extraction is still
// the cached one, so a re-derived term set (a lazy query crossing
// configurations) never reuses a stale partition; equal strategies share
// one plan even across distinct Cluster values.
func (q *Query) clusterPlan(coord *cluster.Coordinator) *cluster.QueryPlan {
	terms := q.termSet(coord.Extractor())
	strat := coord.Strategy()
	q.mu.RLock()
	p, hit := q.ext.plan, q.ext.planStrat == strat && sameTerms(q.ext.terms, terms)
	q.mu.RUnlock()
	if p != nil && hit {
		return p
	}
	p = coord.Plan(terms)
	q.mu.Lock()
	if sameTerms(q.ext.terms, terms) {
		q.ext.plan, q.ext.planStrat = p, strat
	}
	q.mu.Unlock()
	return p
}

// sameTerms reports whether a and b are the same slice: the same length
// over the same first element. Two extractions never share storage, so
// this tells a cached extraction from one that replaced it.
func sameTerms(a, b []uint32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}
