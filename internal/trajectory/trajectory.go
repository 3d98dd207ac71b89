// Package trajectory defines the trajectory model of the paper (§II-A):
// a trajectory is a finite sequence of latitude/longitude points sampled
// from a moving object's continuous position function, together with
// identifiers used by the index, the generator and the ground truth.
package trajectory

import (
	"fmt"

	"geodabs/internal/geo"
)

// ID identifies a trajectory within a dataset. IDs are dense small
// integers so that posting lists compress well in roaring bitmaps.
type ID uint32

// Direction tells which way a generated trajectory travels along its
// source route. Real-world datasets leave it DirectionUnknown.
type Direction uint8

// Directions of travel along a route.
const (
	DirectionUnknown Direction = iota
	Forward
	Reverse
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Forward:
		return "forward"
	case Reverse:
		return "reverse"
	default:
		return "unknown"
	}
}

// Trajectory is a sequence of points S = ⟨s1, …, sn⟩ sampled at a constant
// rate (the generator uses 1 Hz). Route and Dir carry generator provenance:
// two trajectories are "relevant" to each other, in the ground-truth sense,
// when they share both.
type Trajectory struct {
	ID     ID
	Route  uint32
	Dir    Direction
	Points []geo.Point
}

// Len returns the number of points, the length(S) of the paper.
func (t *Trajectory) Len() int { return len(t.Points) }

// Bounds returns the bounding box of all points.
func (t *Trajectory) Bounds() geo.Box {
	return geo.NewBox(t.Points...)
}

// Clone returns a deep copy.
func (t *Trajectory) Clone() *Trajectory {
	out := *t
	out.Points = append([]geo.Point(nil), t.Points...)
	return &out
}

// String implements fmt.Stringer.
func (t *Trajectory) String() string {
	return fmt.Sprintf("trajectory %d (route %d, %s, %d points)", t.ID, t.Route, t.Dir, len(t.Points))
}

// Dataset is an ordered collection of trajectories, D = {S1, …, Sn}.
type Dataset struct {
	Trajectories []*Trajectory
}

// Len returns the number of trajectories.
func (d *Dataset) Len() int { return len(d.Trajectories) }

// Add appends a trajectory.
func (d *Dataset) Add(t *Trajectory) { d.Trajectories = append(d.Trajectories, t) }

// ByID returns the trajectory with the given ID, or nil. IDs assigned by
// the generator are positional, making this O(1); otherwise it scans.
func (d *Dataset) ByID(id ID) *Trajectory {
	if i := int(id); i < len(d.Trajectories) && d.Trajectories[i] != nil && d.Trajectories[i].ID == id {
		return d.Trajectories[i]
	}
	for _, t := range d.Trajectories {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// TotalPoints returns the number of points across all trajectories.
func (d *Dataset) TotalPoints() int {
	n := 0
	for _, t := range d.Trajectories {
		n += len(t.Points)
	}
	return n
}
