// Package geodabs implements trajectory indexing by fingerprinting, a Go
// reproduction of Chapuis & Garbinato, "Geodabs: Trajectory Indexing Meets
// Fingerprinting at Scale" (ICDCS 2018).
//
// A geodab is a 32-bit fingerprint of a k-gram of trajectory points whose
// prefix is a geohash (spatial locality: sharding, few shards per query)
// and whose suffix is an order-sensitive hash (discrimination: path and
// direction). Trajectories are normalized onto a geohash grid, fingerprinted
// with the winnowing algorithm, and indexed in an inverted index whose
// posting lists are roaring bitmaps; queries are ranked by Jaccard
// distance.
//
// # Quick start
//
// Retrieval goes through the Searcher interface, implemented by both the
// local *Index and the distributed *Cluster — one query model, identical
// results (§IV):
//
//	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
//	if err != nil { ... }
//	idx.Add(&geodabs.Trajectory{ID: 1, Points: points})
//	res, err := idx.Search(ctx, &geodabs.Trajectory{Points: query},
//		geodabs.WithMaxDistance(0.9), // range semantics: Jaccard distance ≤ 0.9
//		geodabs.WithKNN(10))          // the 10 nearest; no cap without it
//	if err != nil { ... }
//	for _, hit := range res.Hits { ... }
//
// Search honors ctx cancellation and deadlines (a cluster scatter-gather
// aborts promptly), reports execution statistics in res.Stats, and can
// refine the fingerprint ranking with an exact distance
// (geodabs.WithExactRerank(geodabs.DTW), the paper's §VI-C step — the
// engine must be constructed with geodabs.WithPointRetention).
//
// # Prepared queries
//
// Query preparation — fingerprint extraction, and sharding on a Cluster —
// dominates per-query cost. A first-class *Query value pays it once per
// query lifetime instead of once per call:
//
//	q := geodabs.NewQuery(points) // lazy; or Fingerprinter.Prepare(points) eagerly
//	for range ticker.C {          // every repeat reuses the cached extraction
//		res, err := idx.SearchQuery(ctx, q, geodabs.WithKNN(10))
//		...
//	}
//
// SearchQueryBatch runs a prepared batch over a worker pool, and
// Cluster.AnalyzeQuery reports a prepared query's fan-out; on a Cluster,
// the query also caches its per-shard term partition, so repeated
// scatter-gathers skip re-sharding too. Clients that never hold raw GPS
// traces can ship compact fingerprints instead and search with
// geodabs.QueryFromFingerprint(fp) — fingerprint-only queries support
// everything except WithExactRerank, which needs the raw points and
// fails with a pointed error. Search(ctx, t, ...) is exactly
// SearchQuery(ctx, NewQuery(t.Points), ...): both paths return
// byte-identical results.
//
// Writes go through the Mutator interface, the mutation-side mirror of
// Searcher, implemented by both engines: Upsert replaces a trajectory in
// place, Delete and DeleteAll reclaim postings, and every mutation is
// atomic with respect to searches — on a Cluster, reads are
// snapshot-isolated by mutation epochs, so a search never observes a
// half-applied write. For repeated fingerprinting outside an index,
// construct one Fingerprinter and reuse it. Indexes persist with
// Index.WriteTo and load with ReadIndex.
//
// The subpackages under internal implement the substrates (geohash,
// roaring bitmaps, road networks, map matching, the synthetic dataset
// generator, the distributed index); this package is the stable public
// surface.
package geodabs

import (
	"context"
	"io"

	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/gen"
	"geodabs/internal/geo"
	"geodabs/internal/index"
	"geodabs/internal/motif"
	"geodabs/internal/normalize"
	"geodabs/internal/roadnet"
	"geodabs/internal/trajectory"
)

// Core model types, aliased from the internal packages so their methods
// are available on the public names.
type (
	// Point is a latitude/longitude position in degrees. Callers must pass
	// finite coordinates: nothing in the library checks them, and a NaN
	// or infinite one makes every exact distance against its trajectory
	// NaN, which no ranking can order. The geodabsd front door refuses
	// such points with BAD_REQUEST.
	Point = geo.Point
	// Trajectory is a sequence of points with its identifiers.
	Trajectory = trajectory.Trajectory
	// ID identifies a trajectory within a dataset.
	ID = trajectory.ID
	// Dataset is an ordered collection of trajectories.
	Dataset = trajectory.Dataset
	// Direction tells which way a trajectory travels along its route.
	Direction = trajectory.Direction
	// Config parameterizes fingerprinting (k, t, grid depth, prefix bits).
	Config = core.Config
	// Fingerprint is the winnowed geodab sequence and set of a trajectory.
	Fingerprint = core.Fingerprint
	// Result is one ranked retrieval hit.
	Result = index.Result
	// MotifMatch is a discovered pair of similar sub-trajectories.
	MotifMatch = motif.Match
	// RoadNetwork is a routable road graph (the map-matching substrate).
	RoadNetwork = roadnet.Graph
)

// Directions of travel along a route.
const (
	Forward = trajectory.Forward
	Reverse = trajectory.Reverse
)

// DefaultConfig returns the configuration the paper's evaluation settled
// on: 36-bit normalization grid, k = 6, t = 12, 16-bit shard prefixes.
func DefaultConfig() Config { return core.DefaultConfig() }

// Index is an inverted trajectory index with Jaccard-ranked retrieval
// and in-place mutation (see Mutator). Create one with NewIndex (geodab
// fingerprints, the paper's method) or NewGeohashIndex (bare geohash
// cells, the baseline of Figs 12-14). Index is safe for concurrent use:
// mutations and searches interleave without a search ever observing a
// half-applied write.
//
// When constructed with WithPointRetention, Add, AddAll and Upsert also
// retain each trajectory's raw point slice (a header sharing the
// caller's backing array, not a copy) so searches can refine candidates
// with WithExactRerank. Retention is off by default — rerank-free
// workloads no longer pay the pinned point memory.
//
// An Index is one posting map behind one lock, not partitioned in
// process: a search counts each query term's posting list once. To spread
// a corpus over several machines along the geohash curve, use a Cluster.
type Index struct {
	eng *index.Inverted
}

// NewIndex returns an empty geodab index.
func NewIndex(cfg Config, opts ...Option) (*Index, error) {
	f, err := core.NewFingerprinter(cfg)
	if err != nil {
		return nil, err
	}
	return newIndex(index.GeodabExtractor{Fingerprinter: f}, opts)
}

// NewGeohashIndex returns an empty baseline index whose terms are the
// geohash cells a trajectory traverses, with no ordering information.
func NewGeohashIndex(cfg Config, opts ...Option) (*Index, error) {
	ex, err := index.NewCellExtractor(cfg)
	if err != nil {
		return nil, err
	}
	return newIndex(ex, opts)
}

// newIndex resolves construction options around an extractor.
func newIndex(ex index.Extractor, opts []Option) (*Index, error) {
	o, err := newEngineOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := o.localOnly(); err != nil {
		return nil, err
	}
	return &Index{eng: index.New(ex, o.RetainPoints)}, nil
}

// Add fingerprints and indexes a trajectory. IDs must be unique; use
// Upsert to replace an indexed trajectory in place.
func (ix *Index) Add(t *Trajectory) error { return ix.eng.Add(t) }

// AddAll indexes a whole dataset: it fingerprints on the given number of
// parallel workers, then inserts every trajectory under one write lock,
// held a few µs a trajectory. An ID already indexed or repeated in
// the dataset fails it before any fingerprinting. It is all-or-nothing
// with nothing to roll back: searches see all of the dataset or none, and
// the same dataset can be retried after fixing the cause.
func (ix *Index) AddAll(d *Dataset, workers int) error {
	return ix.eng.AddAll(context.Background(), d, workers)
}

// AddAllContext is AddAll honoring cancellation and deadlines while it
// fingerprints: a ctx done by then fails it with ctx's error and nothing
// inserted. The insert under the lock is not cut short.
func (ix *Index) AddAllContext(ctx context.Context, d *Dataset, workers int) error {
	return ix.eng.AddAll(ctx, d, workers)
}

// Len returns the number of indexed trajectories.
func (ix *Index) Len() int { return ix.eng.Len() }

// Stats summarizes the index composition.
func (ix *Index) Stats() index.Stats { return ix.eng.Stats() }

// WriteTo snapshots the index's fingerprint sets (raw points are not part
// of the snapshot). It implements io.WriterTo. Load snapshots with
// ReadIndex (or ReadFrom on an index built with the same configuration).
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.eng.WriteTo(w) }

// ReadFrom loads a snapshot written by WriteTo into the receiver,
// replacing its contents. The receiver must have been constructed with
// the same configuration (and index flavor) that built the snapshot —
// the snapshot stores fingerprints, not the fingerprinting parameters.
// It implements io.ReaderFrom.
func (ix *Index) ReadFrom(r io.Reader) (int64, error) { return ix.eng.ReadFrom(r) }

// ReadIndex loads a geodab index snapshot written by Index.WriteTo. The
// configuration must be the one the snapshot was built with. A loaded
// index serves fingerprint-ranked searches but cannot exactly re-rank
// (WithExactRerank), since raw points are not part of the snapshot.
func ReadIndex(cfg Config, r io.Reader) (*Index, error) {
	ix, err := NewIndex(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := ix.ReadFrom(r); err != nil {
		return nil, err
	}
	return ix, nil
}

// Fingerprinter is a reusable handle on the geodab pipeline:
// normalization, k-grams, geodab construction and winnowing. Construct
// one with NewFingerprinter and reuse it — it is immutable and safe for
// concurrent use, and reuse avoids rebuilding the pipeline per call.
type Fingerprinter struct {
	core *core.Fingerprinter
}

// NewFingerprinter validates cfg and returns a reusable Fingerprinter.
func NewFingerprinter(cfg Config) (*Fingerprinter, error) {
	f, err := core.NewFingerprinter(cfg)
	if err != nil {
		return nil, err
	}
	return &Fingerprinter{core: f}, nil
}

// Config returns the configuration the fingerprinter was built with.
func (f *Fingerprinter) Config() Config { return f.core.Config() }

// Fingerprint runs the geodab pipeline on a point sequence.
func (f *Fingerprinter) Fingerprint(points []Point) *Fingerprint {
	return f.core.Fingerprint(points)
}

// Prepare eagerly builds a reusable *Query from a point sequence: the
// geodab term set is extracted now, under this Fingerprinter's
// configuration, so the first search against an engine sharing that
// configuration already skips extraction — unlike NewQuery, which defers
// it to first use. Preparation uses the set-only fast path (no positional
// metadata is computed), making this the cheapest way to stage a query
// batch off the search path.
func (f *Fingerprinter) Prepare(points []Point) *Query {
	q := NewQuery(points)
	// The key is derived through keyOf on the same extractor type the
	// engines wrap, so an eagerly prepared query always matches the
	// engine-side cache key.
	key, _ := keyOf(index.GeodabExtractor{Fingerprinter: f.core})
	q.bind(key, f.core.FingerprintSet(points))
	return q
}

// Motif discovers the most similar pair of sub-trajectories of the given
// ground length (meters) between a and b using geodab fingerprints
// (approximate, near-linear cost) — the paper's second problem (§II-B2).
func (f *Fingerprinter) Motif(a, b []Point, lengthMeters float64) (MotifMatch, error) {
	return motif.FindGeodab(f.core, a, b, lengthMeters)
}

// Distances between trajectories (paper §VI-B). DTW and DFD are the
// polynomial-cost measures geodabs replace; JaccardDistance is the
// fingerprint-set distance used for ranking.
var (
	// DTW is the dynamic time-warping distance in meters.
	DTW = distance.DTW
	// DFD is the discrete Fréchet distance in meters.
	DFD = distance.DFD
	// Haversine is the great-circle ground distance in meters.
	Haversine = geo.Haversine
)

// JaccardDistance returns dJ = 1 − |F∩G| / |F∪G| between two fingerprint
// sets, in one merge over their ascending terms. Two empty sets are at
// distance 0.
func JaccardDistance(a, b *Fingerprint) float64 {
	return distance.JaccardSorted(core.TermsOf(a.Set), core.TermsOf(b.Set))
}

// FindMotifExact discovers the minimum discrete-Fréchet pair of length-l
// (points) sub-trajectories, the BTM-style exact baseline with O(n²·l²)
// worst-case cost.
func FindMotifExact(a, b []Point, l int) (MotifMatch, error) {
	return motif.FindBTM(a, b, l)
}

// GenerateCity builds a synthetic city road network comparable to the
// paper's London extract. See roadnet.CityConfig for parameters.
var GenerateCity = roadnet.GenerateCity

// CityConfig parameterizes GenerateCity.
type CityConfig = roadnet.CityConfig

// GenerateDataset builds the paper's synthetic dense trajectory dataset on
// a road network: routes × trajectories per direction, 1 Hz samples,
// Gaussian noise, held-out queries with ground truth.
var GenerateDataset = gen.Generate

// DatasetConfig parameterizes GenerateDataset.
type DatasetConfig = gen.Config

// DatasetOutput is what GenerateDataset returns: the dataset, the held-out
// queries and the ground truth relevance sets.
type DatasetOutput = gen.Output

// DefaultDatasetConfig is a laptop-scale dataset: 500 routes × 20
// trajectories.
func DefaultDatasetConfig() DatasetConfig { return gen.DefaultConfig() }

// Resample re-samples a trajectory's path at a constant spacing in meters,
// normalizing away differing recorder rates before fingerprinting.
var Resample = trajectory.Resample

// WriteGeoJSON and ReadGeoJSON convert datasets to/from a GeoJSON
// FeatureCollection of LineStrings (RFC 7946), for GIS interop.
var (
	WriteGeoJSON = trajectory.WriteGeoJSON
	ReadGeoJSON  = trajectory.ReadGeoJSON
)

// MapMatch normalizes a trajectory onto a road network with an HMM decoded
// by Viterbi (Newson & Krumm), the paper's §V-B normalization. It returns
// the matched node positions.
func MapMatch(g *RoadNetwork, points []Point) ([]Point, error) {
	return normalize.NewMapMatcher(g).Normalize(points)
}

// GridNormalize snaps a trajectory to geohash cell centers at the given
// depth, the paper's §V-A normalization (0 uses the default 36 bits).
func GridNormalize(depth uint8, points []Point) ([]Point, error) {
	return normalize.Grid{Depth: depth}.Normalize(points)
}
