// Package normalize implements the paper's trajectory normalization
// function N(S) (§V): mapping raw GPS sequences onto equivalence classes so
// that similar trajectories converge toward identical point sequences.
//
// Two normalizers are provided, matching §V-A and §V-B:
//
//   - Grid snaps points to geohash cell centers at a constant depth, after
//     optional smoothing and boundary debouncing.
//   - MapMatcher snaps trajectories to a road network with a hidden Markov
//     model decoded by the Viterbi algorithm (Newson & Krumm, 2009).
package normalize

import (
	"errors"
	"fmt"
	"math"

	"geodabs/internal/core"
	"geodabs/internal/geo"
	"geodabs/internal/roadnet"
)

// Normalizer maps a raw point sequence to its normalized form.
type Normalizer interface {
	Normalize(points []geo.Point) ([]geo.Point, error)
}

// Grid normalizes by snapping points to the geohash grid, the lightweight
// technique of §V-A. The zero value uses the paper's 36-bit grid with the
// fingerprinter's default smoothing and debouncing.
type Grid struct {
	// Depth is the geohash depth in bits (default 36).
	Depth uint8
	// SmoothWindow and MinCellPoints mirror core.Config (defaults 5, 2).
	// Set to -1 to disable explicitly.
	SmoothWindow  int
	MinCellPoints int
}

var _ Normalizer = Grid{}

// Normalize returns the deduplicated sequence of cell centers.
func (g Grid) Normalize(points []geo.Point) ([]geo.Point, error) {
	cfg := core.DefaultConfig()
	if g.Depth != 0 {
		cfg.NormDepth = g.Depth
	}
	// The grid never derives geodabs, so a grid shallower than the prefix
	// only needs the prefix to fit.
	cfg.PrefixBits = min(cfg.PrefixBits, cfg.NormDepth)
	switch {
	case g.SmoothWindow < 0:
		cfg.SmoothWindow = 0
	case g.SmoothWindow > 0:
		cfg.SmoothWindow = g.SmoothWindow
	}
	switch {
	case g.MinCellPoints < 0:
		cfg.MinCellPoints = 0
	case g.MinCellPoints > 0:
		cfg.MinCellPoints = g.MinCellPoints
	}
	f, err := core.NewFingerprinter(cfg)
	if err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}
	cells := f.Normalize(points)
	out := make([]geo.Point, len(cells))
	for i, c := range cells {
		out[i] = c.Center
	}
	return out, nil
}

// ErrNoMatch is returned when map matching finds no road candidates for
// any usable point of the trajectory.
var ErrNoMatch = errors.New("normalize: no road candidates for trajectory")

// MapMatcher normalizes trajectories onto a road network (§V-B) with the
// HMM formulation of Newson & Krumm: candidate nodes within Radius of each
// (downsampled) observation are HMM states, emissions score GPS distance
// and transitions score the agreement between route distance and
// great-circle distance. Viterbi decodes the most probable node path.
type MapMatcher struct {
	// Graph is the road network; it must be frozen.
	Graph *roadnet.Graph
	// Radius bounds the candidate search around each point (default 80 m).
	Radius float64
	// SigmaGPS is the GPS noise standard deviation for emissions
	// (default 20 m, the generator's noise level).
	SigmaGPS float64
	// Beta scales the transition penalty per meter of disagreement
	// between route and great-circle distance (default 30 m).
	Beta float64
	// Stride matches every n-th point (default 5): at 1 Hz, GPS points
	// are far denser than road nodes, and matching all of them wastes
	// O(n · candidates²) Dijkstra probes.
	Stride int
	// ExpandPath, when set, stitches matched nodes with the road path
	// between them so the output follows the network node-by-node
	// (default true via NewMapMatcher).
	ExpandPath bool
}

// NewMapMatcher returns a matcher with the documented defaults.
func NewMapMatcher(g *roadnet.Graph) *MapMatcher {
	return &MapMatcher{Graph: g, Radius: 80, SigmaGPS: 20, Beta: 30, Stride: 5, ExpandPath: true}
}

var _ Normalizer = (*MapMatcher)(nil)

// Normalize implements Normalizer: it returns the matched node positions.
func (m *MapMatcher) Normalize(points []geo.Point) ([]geo.Point, error) {
	nodes, err := m.Match(points)
	if err != nil {
		return nil, err
	}
	out := make([]geo.Point, len(nodes))
	for i, id := range nodes {
		out[i] = m.Graph.Point(id)
	}
	return out, nil
}

// Match returns the most probable node path for the trajectory. Points
// with no candidates within Radius are skipped; if none remain, ErrNoMatch
// is returned.
func (m *MapMatcher) Match(points []geo.Point) ([]roadnet.NodeID, error) {
	if m.Graph == nil {
		return nil, errors.New("normalize: MapMatcher has no graph")
	}
	radius := m.Radius
	if radius <= 0 {
		radius = 80
	}
	sigma := m.SigmaGPS
	if sigma <= 0 {
		sigma = 20
	}
	beta := m.Beta
	if beta <= 0 {
		beta = 30
	}
	stride := m.Stride
	if stride <= 0 {
		stride = 5
	}

	// Collect observations: every stride-th point with its candidates.
	type observation struct {
		point      geo.Point
		candidates []roadnet.NodeID
	}
	var obs []observation
	for i := 0; i < len(points); i += stride {
		cands := m.Graph.NodesWithin(points[i], radius)
		if len(cands) == 0 {
			continue // outage or off-network point
		}
		obs = append(obs, observation{point: points[i], candidates: cands})
	}
	if len(obs) == 0 {
		return nil, ErrNoMatch
	}

	// Viterbi in log space. prob[j] is the best log-probability of any
	// state path ending at candidate j of the current observation.
	emission := func(p geo.Point, id roadnet.NodeID) float64 {
		d := geo.Haversine(p, m.Graph.Point(id))
		return -d * d / (2 * sigma * sigma)
	}
	prob := make([]float64, len(obs[0].candidates))
	for j, id := range obs[0].candidates {
		prob[j] = emission(obs[0].point, id)
	}
	// back[i][j] is the index of the predecessor candidate chosen for
	// candidate j of observation i.
	back := make([][]int, len(obs))
	for i := 1; i < len(obs); i++ {
		prevObs, curObs := obs[i-1], obs[i]
		straight := geo.Haversine(prevObs.point, curObs.point)
		// One bounded Dijkstra per predecessor candidate covers all
		// transitions out of it.
		budget := straight*3 + 2*radius + 100
		routeDist := make([]map[roadnet.NodeID]float64, len(prevObs.candidates))
		for u, id := range prevObs.candidates {
			routeDist[u] = m.Graph.DistancesWithin(id, budget)
		}
		next := make([]float64, len(curObs.candidates))
		back[i] = make([]int, len(curObs.candidates))
		for j, vid := range curObs.candidates {
			bestU, bestP := -1, math.Inf(-1)
			for u := range prevObs.candidates {
				rd, reachable := routeDist[u][vid]
				if !reachable {
					continue
				}
				p := prob[u] - math.Abs(rd-straight)/beta
				if p > bestP {
					bestU, bestP = u, p
				}
			}
			if bestU < 0 {
				// Unreachable within budget: heavily penalized restart
				// keeps the chain alive across outages.
				bestU, bestP = 0, prob[0]-budget/beta
			}
			next[j] = bestP + emission(curObs.point, vid)
			back[i][j] = bestU
		}
		prob = next
	}

	// Backtrack the best final state.
	bestJ := 0
	for j := range prob {
		if prob[j] > prob[bestJ] {
			bestJ = j
		}
	}
	path := make([]roadnet.NodeID, len(obs))
	for i := len(obs) - 1; i >= 0; i-- {
		path[i] = obs[i].candidates[bestJ]
		if i > 0 {
			bestJ = back[i][bestJ]
		}
	}

	// Deduplicate consecutive repeats.
	matched := path[:1]
	for _, id := range path[1:] {
		if id != matched[len(matched)-1] {
			matched = append(matched, id)
		}
	}
	if !m.ExpandPath {
		return matched, nil
	}
	return m.expand(matched)
}

// expand stitches consecutive matched nodes with the road path between
// them, yielding a node sequence that follows the network.
func (m *MapMatcher) expand(matched []roadnet.NodeID) ([]roadnet.NodeID, error) {
	out := []roadnet.NodeID{matched[0]}
	for i := 1; i < len(matched); i++ {
		route, err := m.Graph.AStar(matched[i-1], matched[i])
		if err != nil {
			// Disconnected fragments: jump directly, keeping the match.
			out = append(out, matched[i])
			continue
		}
		out = append(out, route.Nodes[1:]...)
	}
	return out, nil
}
