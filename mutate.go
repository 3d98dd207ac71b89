package geodabs

import (
	"context"
	"errors"

	"geodabs/internal/cluster"
)

// ErrNotFound reports a mutation aimed at a trajectory the index does
// not hold. Delete returns it (test with errors.Is); DeleteAll skips
// unknown IDs instead.
var ErrNotFound = errors.New("geodabs: trajectory not found")

// Mutator is the write surface shared by the local *Index and the
// distributed *Cluster, the mutation-side mirror of Searcher: one
// lifecycle model, one visibility guarantee. Every mutation is atomic
// with respect to searches — a concurrent search observes a trajectory
// either fully or not at all, never a half-applied write (on a Cluster,
// reads are snapshot-isolated by mutation epochs). Delete reclaims the
// trajectory's postings on both engines. Failure atomicity differs: a
// local Upsert cannot fail partway, while a cluster Upsert that errors
// part-way leaves the ID withdrawn from results until retried (see
// Cluster.Upsert).
type Mutator interface {
	// Upsert indexes the trajectory, replacing any previously indexed
	// trajectory with the same ID.
	Upsert(ctx context.Context, t *Trajectory) error
	// Delete removes a trajectory and reclaims its postings. It returns
	// ErrNotFound when the ID is not indexed.
	Delete(ctx context.Context, id ID) error
	// DeleteAll deletes a batch of IDs on the given number of parallel
	// workers and reports how many were actually indexed; unknown IDs are
	// skipped, so the call is idempotent.
	DeleteAll(ctx context.Context, ids []ID, workers int) (int, error)
}

// Compile-time proof that both engines present the one mutation surface.
var (
	_ Mutator = (*Index)(nil)
	_ Mutator = (*Cluster)(nil)
)

// Delete removes a trajectory from the index and reclaims its postings:
// the trajectory is withdrawn from every posting list and lists left
// empty are compacted away, under the same write lock searches read
// under — a concurrent search sees the index before or after the
// deletion, never in between. Returns ErrNotFound for an unknown ID.
func (ix *Index) Delete(ctx context.Context, id ID) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ix.eng.Delete(id) {
		return ErrNotFound
	}
	return nil
}

// Upsert fingerprints and indexes the trajectory, replacing any
// previously indexed trajectory with the same ID. The swap is atomic: a
// concurrent search observes the old version or the new one in full,
// never a mixture.
func (ix *Index) Upsert(ctx context.Context, t *Trajectory) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ix.eng.Upsert(t)
	return nil
}

// DeleteAll deletes a batch of IDs and reports how many were actually
// indexed; unknown IDs are skipped. Local deletions serialize on the
// index's write lock, so workers buys no parallelism here — the
// parameter exists for signature parity with Cluster.DeleteAll.
func (ix *Index) DeleteAll(ctx context.Context, ids []ID, workers int) (int, error) {
	_ = workers
	return ix.eng.DeleteAll(ctx, ids)
}

// Epoch returns the index's mutation epoch: a monotone counter bumped by
// every insert, delete and upsert, persisted by WriteTo/ReadFrom so
// snapshot lineages of a mutated index stay ordered.
func (ix *Index) Epoch() uint64 { return ix.eng.Epoch() }

// Delete withdraws a trajectory from the cluster and reclaims its
// postings on the shard nodes that hold them, honoring ctx cancellation
// while waiting on them. The trajectory vanishes from ranking atomically;
// node-side deletion is idempotent, so a Delete that failed against a
// wedged node can be retried until the postings are reclaimed. Returns
// ErrNotFound for an unknown ID.
func (c *Cluster) Delete(ctx context.Context, id ID) error {
	return translateClusterErr(c.coord.Delete(ctx, id))
}

// Upsert replaces a trajectory across the cluster in one round under a
// fresh mutation epoch: the nodes of the new version receive it, and the
// nodes that held only the old version delete it. Concurrent searches
// observe the old version, nothing, or the new version — never a mixture
// of the two. An Upsert of an unknown ID is an Add.
//
// Unlike Index.Upsert, the replacement is a distributed mutation that can
// fail part-way: Upsert then returns the error with the ID withdrawn from
// results and still reserved (Add refuses it), whichever version each node
// holds. Retrying the Upsert completes the replacement; a Delete removes
// both versions.
func (c *Cluster) Upsert(ctx context.Context, t *Trajectory) error {
	return translateClusterErr(c.coord.Upsert(ctx, t))
}

// DeleteAll deletes a batch of IDs on the given number of parallel
// workers and reports how many were actually indexed; unknown IDs are
// skipped. The first hard error cancels the remaining work.
func (c *Cluster) DeleteAll(ctx context.Context, ids []ID, workers int) (int, error) {
	n, err := c.coord.DeleteAll(ctx, ids, workers)
	return n, translateClusterErr(err)
}

// translateClusterErr maps the internal cluster sentinels onto the
// public ones so errors.Is(err, ErrNotFound) and errors.Is(err,
// ErrClosed) work across both engines.
func translateClusterErr(err error) error {
	switch {
	case errors.Is(err, cluster.ErrNotFound):
		return ErrNotFound
	case errors.Is(err, cluster.ErrClosed):
		return ErrClosed
	default:
		return err
	}
}
