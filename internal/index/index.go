// Package index implements the paper's inverted trajectory index (§IV-A):
// terms are fingerprints (geodabs, or bare geohash cells for the baseline),
// posting lists are roaring bitmaps of trajectory identifiers, and queries
// are ranked by Jaccard distance between fingerprint sets (§III-A2). A
// fingerprint set, a document's or a query's, is one form throughout: its
// distinct terms as an ascending []uint32.
//
// Ranked retrieval runs as a term-at-a-time counting merge (search.go):
// each query term's posting list streams once into a pooled chunked
// counter, so the shared count |F ∩ G| falls out of the merge directly —
// no candidate-union bitmap, no per-candidate intersection — and cached
// document cardinalities close the Jaccard formula in O(1) per candidate.
// Total cost is O(Σ|postings| + |candidates|) versus the document-at-a-
// time O(Σ|postings| + |candidates|·(|F|+|G|)). Threshold pruning (a
// cardinality window and a shared-count bar derived from the distance
// cutoff, tightened by the rising top-k heap bar under a result cap)
// skips candidates that provably cannot qualify; candidates are walked
// highest shared count first, and the walk stops at the first count that
// cannot place, never reading the rest's cardinalities. Conservative
// slack plus an exact final comparison keep rankings byte-identical to
// the full-sort contract: distance ascending, ID tiebreak. The same
// Ranker drives the cluster coordinator, so local and distributed
// rankings cannot drift.
//
// The posting lists live in one store, Postings (postings.go): the only
// code that puts a document on a list, withdraws it, or streams lists
// into the counter. A cluster node holds one too, beside its own
// per-document bookkeeping, and one pooled Scratch — counter, drained
// counts, ranker — serves the searches of the local engine, a node and
// the cluster's coordinator.
//
// # One engine
//
// The local engine is one Inverted: one posting map behind one lock, so
// a search counts each query term once and a mutation swaps a whole
// document under the write lock, atomic with respect to searches. The
// index is not partitioned in process. The paper shards along the geohash
// space-filling curve, and internal/shard and internal/cluster do that
// across nodes; a second, in-process partition by ID hash would only add
// a fan-out and a merge to keep byte-identical with this one.
package index

import (
	"context"
	"fmt"
	"sync"

	"slices"

	"geodabs/internal/core"
	"geodabs/internal/fanout"
	"geodabs/internal/geo"
	"geodabs/internal/geohash"
	"geodabs/internal/trajectory"
)

// Extractor turns a raw point sequence into a fingerprint set. Extractors
// must be safe for concurrent use.
type Extractor interface {
	// Extract returns the term set of a trajectory: its distinct terms,
	// ascending, in a slice the caller owns.
	Extract(points []geo.Point) []uint32
}

// GeodabExtractor adapts a core.Fingerprinter to the Extractor interface.
// This is the paper's method.
type GeodabExtractor struct {
	*core.Fingerprinter
}

// Extract implements Extractor via the set-only fingerprint fast path:
// ranked retrieval needs no positional metadata, so the pooled
// FingerprintSet pipeline is used instead of the full Fingerprint.
func (e GeodabExtractor) Extract(points []geo.Point) []uint32 {
	return e.FingerprintSet(points)
}

// CellExtractor is the baseline the paper compares against (Figs 12–14):
// the term set of a trajectory is the set of geohash cells it traverses,
// with no ordering information. Cells are hashed to 32 bits so both
// methods share the index machinery; collisions are negligible at the
// dataset sizes involved.
type CellExtractor struct {
	*core.Fingerprinter
}

// NewCellExtractor builds a cell extractor with the same normalization as
// cfg (depth, smoothing, debouncing).
func NewCellExtractor(cfg core.Config) (CellExtractor, error) {
	f, err := core.NewFingerprinter(cfg)
	if err != nil {
		return CellExtractor{}, err
	}
	return CellExtractor{f}, nil
}

// Extract implements Extractor.
func (e CellExtractor) Extract(points []geo.Point) []uint32 {
	cells := e.Normalize(points)
	terms := make([]uint32, len(cells))
	for i, c := range cells {
		terms[i] = hashCell(c.Hash)
	}
	slices.Sort(terms)
	return slices.Compact(terms)
}

// hashCell maps a geohash cell to a 32-bit term with FNV-1a over its bits
// and depth.
func hashCell(h geohash.Hash) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	v := uint32(offset32)
	for shift := 56; shift >= 0; shift -= 8 {
		v ^= uint32(h.Bits >> uint(shift) & 0xff)
		v *= prime32
	}
	v ^= uint32(h.Depth)
	v *= prime32
	return v
}

// Result is one ranked retrieval hit.
type Result struct {
	ID trajectory.ID
	// Distance is the Jaccard distance dJ between the query's and the
	// trajectory's fingerprint sets (paper Eq. 1).
	Distance float64
	// Shared is the number of common fingerprints |F ∩ G|.
	Shared int
}

// Inverted is the local index engine: an in-memory inverted structure
// over the fingerprint sets its Extractor derives from raw points. It is
// safe for concurrent use: mutations take the write lock, queries the read
// lock, so every search observes the index at a single mutation epoch — a
// trajectory is either fully visible or not at all, and a snapshot load
// swaps the whole corpus at once.
type Inverted struct {
	ex Extractor
	// retain records whether insertions keep the raw point sequences for
	// exact re-ranking (opt-in at construction, see New).
	retain bool

	mu       sync.RWMutex
	postings Postings
	// docs holds each document's terms behind a pointer: an 8-byte map
	// value keeps the map's slots half the size a slice header would.
	docs map[trajectory.ID]*[]uint32
	// cards caches each document's fingerprint cardinality |G| beside docs,
	// so ranking computes the Jaccard union |F|+|G|−|F∩G| in O(1) from the
	// card table's one slice rather than from a map lookup per candidate.
	cards CardTable
	// points retains the raw point sequences of inserted trajectories
	// (slice headers only, sharing the caller's backing arrays), so searches
	// can re-rank candidates with an exact distance. Entries are absent
	// when retention is off and for snapshot loads.
	points map[trajectory.ID][]geo.Point
	// epoch counts mutations (inserts, deletes, upserts). It is persisted
	// by WriteTo/ReadFrom so snapshot lineages stay ordered.
	epoch uint64
}

// New returns an empty index that fingerprints with ex. With
// retainPoints, insertions keep each trajectory's raw point slice (a
// header sharing the caller's backing array, not a copy) so searches can
// re-rank candidates with an exact distance; without it, workloads that
// never re-rank do not pay the pinned point memory.
func New(ex Extractor, retainPoints bool) *Inverted {
	return &Inverted{
		ex:       ex,
		retain:   retainPoints,
		postings: make(Postings),
		docs:     make(map[trajectory.ID]*[]uint32),
		points:   make(map[trajectory.ID][]geo.Point),
	}
}

// Extractor returns the index's term extractor (immutable after
// construction), so callers can prepare query term sets once and reuse
// them across searches.
func (ix *Inverted) Extractor() Extractor { return ix.ex }

// Add fingerprints the trajectory and inserts it. Re-adding an ID fails;
// use Upsert to replace in place.
func (ix *Inverted) Add(t *trajectory.Trajectory) error {
	return ix.insert(t.ID, ix.ex.Extract(t.Points), t.Points)
}

// insert adds an extracted trajectory, keeping its terms (ascending, owned
// by the index from now on). Re-adding an ID fails; Upsert replaces an
// indexed trajectory in place.
func (ix *Inverted) insert(id trajectory.ID, terms []uint32, pts []geo.Point) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if _, dup := ix.docs[id]; dup {
		return duplicate(id)
	}
	ix.insertLocked(id, terms, pts)
	return nil
}

// duplicate is the error of inserting an already indexed id.
func duplicate(id trajectory.ID) error {
	return fmt.Errorf("index: trajectory %d already indexed", id)
}

// insertLocked applies an insertion under an already-held write lock. It
// keeps &terms of its own parameter, so AddAll's batch slice is freed.
func (ix *Inverted) insertLocked(id trajectory.ID, terms []uint32, pts []geo.Point) {
	ix.docs[id] = &terms
	ix.cards.Set(uint32(id), len(terms))
	if ix.retain && pts != nil {
		ix.points[id] = pts
	}
	ix.postings.Add(uint32(id), terms)
	ix.epoch++
}

// AddAll indexes a dataset all-or-nothing. A done ctx is reported first,
// and a duplicate ID, indexed or repeated in d, fails it before any
// extraction. Every trajectory is then fingerprinted on workers
// fanout.Workers goroutines (minimum 1) with no lock held, and ctx is
// honoured only there. The write lock is then taken once: an ID a racing
// Add indexed meanwhile fails the call, else the whole dataset goes in,
// so a search sees all of it or none and there is nothing to roll back.
// The hold is a few µs a trajectory (110–170 ms for 30,000 dense ones on
// 2 vCPUs); every caller in this module builds before it searches.
func (ix *Inverted) AddAll(ctx context.Context, d *trajectory.Dataset, workers int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ix.checkNew(d); err != nil {
		return err
	}
	sets := make([][]uint32, len(d.Trajectories))
	err := fanout.Workers(ctx, len(sets), workers, func(_ context.Context, i int) error {
		sets[i] = ix.ex.Extract(d.Trajectories[i].Points)
		return nil
	})
	if err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, t := range d.Trajectories {
		if _, dup := ix.docs[t.ID]; dup {
			return duplicate(t.ID)
		}
	}
	for i, t := range d.Trajectories {
		ix.insertLocked(t.ID, sets[i], t.Points)
	}
	return nil
}

// checkNew fails, with insert's error, on the first ID of d that is
// already indexed or that d repeats.
func (ix *Inverted) checkNew(d *trajectory.Dataset) error {
	seen := make(map[trajectory.ID]struct{}, len(d.Trajectories))
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for _, t := range d.Trajectories {
		_, indexed := ix.docs[t.ID]
		if _, repeated := seen[t.ID]; indexed || repeated {
			return duplicate(t.ID)
		}
		seen[t.ID] = struct{}{}
	}
	return nil
}

// Delete removes a trajectory and reclaims its postings: the document
// and point entries are deleted, the trajectory is withdrawn from every
// posting list, and posting lists left empty are compacted away. It
// reports whether the trajectory was indexed. Deletion is applied
// eagerly under the write lock — no tombstones linger, so Stats and
// snapshots immediately reflect the shrunken index.
func (ix *Inverted) Delete(id trajectory.ID) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.deleteLocked(id)
}

// deleteLocked applies a deletion under an already-held write lock.
func (ix *Inverted) deleteLocked(id trajectory.ID) bool {
	terms, ok := ix.docs[id]
	if !ok {
		return false
	}
	delete(ix.docs, id)
	ix.cards.Delete(uint32(id))
	delete(ix.points, id)
	ix.postings.Remove(uint32(id), *terms)
	ix.epoch++
	return true
}

// Upsert fingerprints the trajectory and replaces any previously indexed
// trajectory with the same ID. The swap is atomic under the write lock: a
// concurrent search observes either the old or the new version in full,
// never a mixture.
func (ix *Inverted) Upsert(t *trajectory.Trajectory) {
	terms := ix.ex.Extract(t.Points)
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.deleteLocked(t.ID)
	ix.insertLocked(t.ID, terms, t.Points)
}

// DeleteAll deletes a batch of IDs under a single write-lock acquisition
// (re-locking per ID would pay the lock's contended fast path once per
// deletion and let readers interleave partial batches), honoring ctx
// cancellation every 256 deletions. It returns how many of the IDs were
// actually indexed; unknown IDs are skipped, so the call is idempotent.
func (ix *Inverted) DeleteAll(ctx context.Context, ids []trajectory.ID) (int, error) {
	deleted := 0
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, id := range ids {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return deleted, err
			}
		}
		if ix.deleteLocked(id) {
			deleted++
		}
	}
	return deleted, ctx.Err()
}

// Epoch returns the index's mutation epoch: a monotone counter bumped by
// every insert, delete and upsert, persisted in snapshots so lineages of
// a mutated index stay ordered.
func (ix *Inverted) Epoch() uint64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.epoch
}

// Len returns the number of indexed trajectories.
func (ix *Inverted) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// PointsOf returns the retained raw point sequence of a trajectory, or
// nil when the points are unavailable (retention off, snapshot load,
// unknown ID).
func (ix *Inverted) PointsOf(id trajectory.ID) []geo.Point {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.points[id]
}

// ScanDocs visits every indexed trajectory with its ascending terms and
// cached cardinality, under the read lock, until f returns false. The
// visit order is unspecified. The terms must not be modified; brute-force
// baselines and diagnostics use this to walk the corpus without copying
// it.
func (ix *Inverted) ScanDocs(f func(id trajectory.ID, terms []uint32, card int) bool) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	for id, terms := range ix.docs {
		card, _ := ix.cards.Get(uint32(id))
		if !f(id, *terms, card) {
			return
		}
	}
}

// Stats summarizes the index composition.
type Stats struct {
	Trajectories int
	Terms        int
	// Postings is the total number of (term, trajectory) pairs.
	Postings int
	// BitmapBytes estimates the payload bytes of the posting bitmaps plus
	// the documents' terms, 4 bytes a term.
	BitmapBytes int
}

// Stats computes summary statistics; it is linear in the index size.
func (ix *Inverted) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	s := Stats{Trajectories: len(ix.docs), Terms: len(ix.postings)}
	s.Postings, s.BitmapBytes = ix.postings.Size()
	for _, terms := range ix.docs {
		s.BitmapBytes += 4 * len(*terms)
	}
	return s
}
