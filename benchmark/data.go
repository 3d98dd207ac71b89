package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"geodabs"
)

// structureSeed fixes the road network, the routes and each trace's speed:
// the workload's map. The -seed argument draws only the GPS noise on top
// of it, so two seeds give different inputs (different cells crossed,
// different fingerprints) over the same routes. A seed that also redrew
// the routes would move every timing by the luck of how many routes share
// a street — several percent, more than the bounds this benchmark gates
// on — and the spread between seeds is part of the contract.
const structureSeed = 1

// noiseMeters is the generator's default RMS radial GPS error; the
// benchmark generates noise-free traces and applies it itself, per seed.
const noiseMeters = 20

// content is one point sequence a corpus trajectory can hold, with the
// fingerprint the oracle ranks it by.
type content struct {
	points []geodabs.Point
	fp     *geodabs.Fingerprint
}

// workloadData is everything generated for one run: the corpus, the query
// pool, the write sequence and the oracle's view of the corpus.
type workloadData struct {
	spec  spec
	cfg   geodabs.Config
	fpr   *geodabs.Fingerprinter
	genS  float64
	byID  []*geodabs.Trajectory // initial corpus; ID i at index i
	pool  []*geodabs.Trajectory // held-out queries; searches cycle the first poolSize
	poolF []*geodabs.Fingerprint
	// relevant[i] is the corpus IDs sharing pool[i]'s route and direction.
	relevant [][]geodabs.ID

	// contents[c] for c < len(byID) is trajectory c's original points;
	// the rest are held-out write samples. alt[id] is the content a victim
	// toggles to; state[id] is the content it holds now. Both engines and
	// the oracle see every acknowledged upsert, so state is the oracle's
	// corpus.
	contents []content
	alt      []int
	state    []int
	// victims is the fixed order in which write phases visit the corpus;
	// upserts[id][k] is the prebuilt trajectory putting id in its original
	// (k=0) or alternate (k=1) content.
	victims []geodabs.ID
	upserts [][2]*geodabs.Trajectory
}

func generate(s spec, seed int64) (*workloadData, error) {
	start := time.Now()
	city, err := geodabs.GenerateCity(geodabs.CityConfig{Seed: structureSeed, RadiusMeters: s.cityRadius})
	if err != nil {
		return nil, fmt.Errorf("generate city: %w", err)
	}
	// Per route and direction the generator must hold out one write sample
	// plus enough query samples to fill the pool; it alternates directions,
	// hence the factor two.
	perDirQueries := (poolSize + 2*s.routes - 1) / (2 * s.routes)
	dc := geodabs.DefaultDatasetConfig()
	dc.Routes, dc.TrajectoriesPerDirection = s.routes, s.perDirection
	dc.QueriesPerRoute = 2 * (1 + perDirQueries)
	dc.NoiseMeters = 0
	dc.Seed = structureSeed
	if s.minRoute > 0 {
		dc.MinRouteMeters = s.minRoute
	}
	out, err := geodabs.GenerateDataset(city, dc)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	cfg := geodabs.DefaultConfig()
	fpr, err := geodabs.NewFingerprinter(cfg)
	if err != nil {
		return nil, err
	}
	d := &workloadData{spec: s, cfg: cfg, fpr: fpr, byID: out.Dataset.Trajectories}
	n := len(d.byID)
	for i, t := range d.byID {
		if int(t.ID) != i {
			return nil, fmt.Errorf("generator IDs are not positional: %d at %d", t.ID, i)
		}
	}

	// Split the held-out samples: the first of each route and direction is
	// its write sample, the others are query candidates. The write sample
	// closes the ring of its route and direction: each corpus trajectory's
	// alternate content is the original content of the next trajectory of
	// that route and direction, the last one's is the write sample. A write
	// toggles its victim between the two, so every upsert changes what is
	// indexed while the corpus keeps the same routes at the same density
	// round after round.
	type routeDir struct {
		route uint32
		dir   geodabs.Direction
	}
	d.contents = make([]content, n, n+2*s.routes)
	d.alt = make([]int, n)
	d.state = make([]int, n)
	for i, t := range d.byID {
		d.contents[i].points = t.Points
		d.state[i] = i
	}
	seen := make(map[routeDir]bool)
	var candidates []*geodabs.Trajectory
	for _, q := range out.Queries {
		key := routeDir{q.Route, q.Dir}
		if seen[key] {
			candidates = append(candidates, q)
			continue
		}
		seen[key] = true
		ring := out.Relevant[q.ID]
		for k, id := range ring[:len(ring)-1] {
			d.alt[id] = int(ring[k+1])
		}
		d.alt[ring[len(ring)-1]] = len(d.contents)
		d.contents = append(d.contents, content{points: q.Points})
	}
	if len(candidates) < poolSize {
		return nil, fmt.Errorf("only %d query candidates for a pool of %d", len(candidates), poolSize)
	}
	// The pool's first poolSize queries are spread evenly over the routes;
	// the remaining candidates follow, for r_precision to average over.
	picked := make([]bool, len(candidates))
	for i := 0; i < poolSize; i++ {
		k := i * len(candidates) / poolSize
		picked[k] = true
		d.pool = append(d.pool, candidates[k])
	}
	for k, q := range candidates {
		if !picked[k] {
			d.pool = append(d.pool, q)
		}
	}
	for _, q := range d.pool {
		d.relevant = append(d.relevant, out.Relevant[q.ID])
	}

	applyNoise(d, seed)
	d.genS = time.Since(start).Seconds()

	d.upserts = make([][2]*geodabs.Trajectory, n)
	for id := range d.upserts {
		d.upserts[id] = [2]*geodabs.Trajectory{
			{ID: geodabs.ID(id), Points: d.contents[id].points},
			{ID: geodabs.ID(id), Points: d.contents[d.alt[id]].points},
		}
	}
	// Victims stride through the corpus so consecutive writes land on
	// different routes; the stride is coprime with n, so all n are visited
	// before any repeats.
	stride := n/2 + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	d.victims = make([]geodabs.ID, n)
	for j := range d.victims {
		d.victims[j] = geodabs.ID(j * stride % n)
	}

	parallel(len(d.contents), func(i int) { d.contents[i].fp = fpr.Fingerprint(d.contents[i].points) })
	d.poolF = make([]*geodabs.Fingerprint, len(d.pool))
	parallel(len(d.pool), func(i int) { d.poolF[i] = fpr.Fingerprint(d.pool[i].Points) })
	return d, nil
}

// applyNoise adds the seed's Gaussian GPS error to every generated point.
// Each trajectory draws from its own generator keyed by the seed and its
// position, so the result does not depend on how the work is scheduled.
func applyNoise(d *workloadData, seed int64) {
	sigma := noiseMeters / math.Sqrt2
	const metersPerDegree = 111_320.0
	noise := func(key int, pts []geodabs.Point) {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(key)))
		for i := range pts {
			pts[i].Lat += rng.NormFloat64() * sigma / metersPerDegree
			pts[i].Lon += rng.NormFloat64() * sigma / (metersPerDegree * math.Cos(pts[i].Lat*math.Pi/180))
		}
	}
	parallel(len(d.contents), func(i int) { noise(i, d.contents[i].points) })
	parallel(len(d.pool), func(i int) { noise(len(d.contents)+i, d.pool[i].Points) })
}

// writeOps returns the next phase's upserts — the first count victims,
// each toggled to the content it does not hold — and records them in the
// oracle's state. The caller issues every one of them before the oracle
// is consulted again.
func (d *workloadData) writeOps(count int) []*geodabs.Trajectory {
	ops := make([]*geodabs.Trajectory, count)
	for j := range ops {
		id := d.victims[j%len(d.victims)]
		if d.state[id] == int(id) {
			d.state[id] = d.alt[id]
			ops[j] = d.upserts[id][1]
		} else {
			d.state[id] = int(id)
			ops[j] = d.upserts[id][0]
		}
	}
	return ops
}

// parallel runs f(0..n) on GOMAXPROCS goroutines and waits for them.
func parallel(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				f(i)
			}
		}(w)
	}
	wg.Wait()
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
