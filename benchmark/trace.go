package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"geodabs"
	"geodabs/internal/bitmap"
	"geodabs/internal/core"
	"geodabs/internal/geohash"
	"geodabs/internal/wal"
	"geodabs/internal/winnow"
	"geodabs/internal/wire"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the index of the span that caused it (-1 for a
// root) and Op the operation both belong to; times are nanoseconds since
// the trace began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

// timed records f as a child span and returns how long it took.
func (t *tracer) timed(name string, parent, op int, f func()) time.Duration {
	id := t.begin(name, parent, op)
	f()
	return t.end(id)
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() map[string]int64 {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i, s := range t.spans {
		self[s.Name] += s.End - s.Start - children[i]
	}
	return self
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Workload string           `json:"workload"`
		SelfNS   map[string]int64 `json:"self_ns"`
		Spans    []span           `json:"spans"`
	}{workload, t.selfTimes(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), body, 0o644)
}

// samples collects durations per name and reports their medians.
type samples map[string][]time.Duration

func (s samples) add(name string, d time.Duration) { s[name] = append(s[name], d) }

func (s samples) p50us(name string) float64 { return micros(percentile(s[name], 0.5)) }

// runTraced is the separate traced run: it sets the workload up once,
// checks it against the oracle, then times calls into each layer's public
// functions on a sample of the workload's own inputs, recording a span
// around every call. End-to-end numbers never come from here.
func runTraced(ctx context.Context, rc runConfig, d *workloadData) (*result, error) {
	s := d.spec
	var gcBefore runtime.MemStats
	runtime.ReadMemStats(&gcBefore)
	sys, err := setup(ctx, d, rc.workDir)
	if err != nil {
		return nil, err
	}
	defer func() { sys.discard() }()
	res := &result{}
	res.Attempted, res.Failed = verify(ctx, d, sys, "after set-up")

	tr := &tracer{t0: time.Now()}
	// Per-layer times are as the clock read them; machine_speed is the
	// yardstick's verdict on the machine at the start of the probes, for
	// setting them beside the end-to-end run's reference-speed figures.
	values := map[string]float64{
		"gen.generate_s":        d.genS,
		"runtime.machine_speed": float64(yardstickNominal) / float64(yardstick()),
	}
	for _, m := range perLayer {
		if _, ok := values[m.name]; !ok {
			values[m.name] = 0 // layers off this workload's path stay 0
		}
	}
	ix, err := geodabs.NewIndex(d.cfg)
	if err != nil {
		return nil, err
	}
	if err := ix.AddAll(&geodabs.Dataset{Trajectories: d.byID}, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}
	if err := traceLocalLayers(ctx, tr, d, ix, values); err != nil {
		return nil, err
	}
	traceBitmap(tr, d, values)
	if err := traceWire(ctx, tr, d, ix, values); err != nil {
		return nil, err
	}
	traceDistance(ctx, tr, d, ix, values)
	var cs *clusterSystem
	switch sys := sys.(type) {
	case *servedSystem:
		cs = sys.clusterSystem
	case *clusterSystem:
		cs = sys
	}
	if cs != nil {
		if err := traceCluster(ctx, tr, d, cs, values); err != nil {
			return nil, err
		}
		values["cluster.scatter_overhead_us"] = values["cluster.search_us"] - values["index.count_rank_us"]
	}
	if served, ok := sys.(*servedSystem); ok {
		if err := traceServer(ctx, tr, d, served, values); err != nil {
			return nil, err
		}
	}
	if err := traceEndToEnd(ctx, tr, d, sys, values); err != nil {
		return nil, err
	}
	if cs != nil && cs.walDir != "" {
		if err := traceWAL(ctx, tr, d, cs, rc.workDir, values); err != nil {
			return nil, err
		}
		a, f := verify(ctx, d, sys, "after crash recovery")
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
	}

	var gcAfter runtime.MemStats
	runtime.ReadMemStats(&gcAfter)
	values["runtime.gc_cycles"] = float64(gcAfter.NumGC - gcBefore.NumGC)
	values["runtime.gc_pause_ms"] = float64(gcAfter.PauseTotalNs-gcBefore.PauseTotalNs) / 1e6
	if err := tr.write(rc.outDir, s.name); err != nil {
		return nil, err
	}
	logf("%d spans written to %s", len(tr.spans), rc.outDir)
	res.Correct = res.Failed == 0
	res.Metrics, err = report(perLayer, values)
	return res, err
}

// traceLocalLayers decomposes one cold local search — extract (normalize,
// geohash, k-gram hashing, winnow), then count and rank — and one local
// upsert, on a local index of the workload's corpus.
func traceLocalLayers(ctx context.Context, tr *tracer, d *workloadData, ix *geodabs.Index, values map[string]float64) error {
	cf, err := core.NewFingerprinter(d.cfg)
	if err != nil {
		return err
	}
	stats := ix.Stats()
	values["index.terms"] = float64(stats.Terms)
	values["index.postings"] = float64(stats.Postings)

	// One pass over the sample per probe, so every probe meets the caches
	// the way a loop of nothing but that call would; the op number ties an
	// operation's spans together across passes.
	opt := geodabs.WithKNN(knn)
	sm := samples{}
	n := d.spec.layerSample
	pass := func(name string, op func(i int, q *geodabs.Trajectory) error) error {
		root := tr.begin("pass."+name, -1, -1)
		defer tr.end(root)
		for i := 0; i < n; i++ {
			var err error
			sm.add(name, tr.timed(name, root, i, func() { err = op(i, d.pool[i%poolSize]) }))
			if err != nil {
				return err
			}
		}
		return nil
	}
	prepared := make([]*geodabs.Query, poolSize)
	var points, terms, candidates, pruned, kgrams, kept int
	err = pass("index.search", func(_ int, q *geodabs.Trajectory) error {
		_, err := ix.Search(ctx, q, opt)
		return err
	})
	if err == nil {
		err = pass("core.extract", func(i int, q *geodabs.Trajectory) error {
			prepared[i%poolSize] = d.fpr.Prepare(q.Points)
			return nil
		})
	}
	if err == nil {
		err = pass("index.count_rank", func(i int, _ *geodabs.Trajectory) error {
			hit, err := ix.SearchQuery(ctx, prepared[i%poolSize], opt)
			if err == nil {
				candidates += hit.Stats.Candidates
				pruned += hit.Stats.Pruned
			}
			return err
		})
	}
	if err != nil {
		return err
	}
	// The full pipeline's stages, each fed the previous one's output. They
	// are the exported, allocating forms; extraction's hot path fuses them
	// over pooled buffers, so they need not sum to core.extract_us.
	var cells []core.Cell
	var seq []uint32
	var positions []int
	for i := 0; i < n; i++ {
		q := d.pool[i%poolSize]
		root := tr.begin("op.extract_stages", -1, i)
		sm.add("core.normalize", tr.timed("core.normalize", root, i, func() { cells = cf.Normalize(q.Points) }))
		sm.add("core.geodab", tr.timed("core.geodab", root, i, func() { seq = cf.GeodabSequence(cells) }))
		sm.add("winnow.select", tr.timed("winnow.select", root, i, func() {
			positions = winnow.SelectInto(positions[:0], seq, d.cfg.Window())
		}))
		enc := geohash.NewEncoder(d.cfg.NormDepth)
		sm.add("geohash.encode", tr.timed("geohash.encode", root, i, func() {
			for _, p := range q.Points {
				enc.Encode(p)
			}
		}))
		tr.end(root)
		points += len(q.Points)
		terms += d.poolF[i%poolSize].Set.Cardinality()
		kgrams += len(seq)
		kept += len(positions)
	}
	residual := make([]time.Duration, n)
	var encode time.Duration
	for i := range residual {
		residual[i] = sm["index.search"][i] - sm["core.extract"][i] - sm["index.count_rank"][i]
		encode += sm["geohash.encode"][i]
	}
	values["index.search_us"] = sm.p50us("index.search")
	values["core.extract_us"] = sm.p50us("core.extract")
	values["index.count_rank_us"] = sm.p50us("index.count_rank")
	values["index.search_residual_us"] = micros(percentile(residual, 0.5))
	values["core.normalize_us"] = sm.p50us("core.normalize")
	values["core.geodab_us"] = sm.p50us("core.geodab")
	values["winnow.select_us"] = sm.p50us("winnow.select")
	values["geohash.encode_ns_pt"] = float64(encode.Nanoseconds()) / float64(points)
	values["core.points_per_query"] = float64(points) / float64(n)
	values["core.terms_per_query"] = float64(terms) / float64(n)
	values["winnow.kept_ratio"] = float64(kept) / float64(kgrams)
	values["index.candidates_per_query"] = float64(candidates) / float64(n)
	if candidates > 0 {
		values["index.pruned_ratio"] = float64(pruned) / float64(candidates)
	}

	// Insertion is what an upsert costs beyond extracting its fingerprint.
	var insert []time.Duration
	for i, t := range d.writeOps(d.spec.layerSample) {
		root := tr.begin("op.write", -1, i)
		var err error
		upsert := tr.timed("index.upsert", root, i, func() { err = ix.Upsert(ctx, t) })
		if err != nil {
			return err
		}
		extract := tr.timed("core.extract", root, i, func() { d.fpr.Prepare(t.Points) })
		tr.end(root)
		insert = append(insert, upsert-extract)
	}
	values["index.insert_us"] = micros(percentile(insert, 0.5))
	// Undo the probe's writes in the oracle: they went to the probe's own
	// index, not to the system under test.
	d.writeOps(d.spec.layerSample)
	return nil
}

// traceBitmap feeds Counter.Add bitmaps the size of the pool queries'
// posting lists, rebuilt from the oracle's fingerprints.
func traceBitmap(tr *tracer, d *workloadData, values map[string]float64) {
	lists := make(map[uint32][]uint32)
	for id := range d.byID {
		for _, term := range d.contents[id].fp.Set.ToSlice() {
			lists[term] = append(lists[term], uint32(id))
		}
	}
	counter := bitmap.NewCounter()
	var ns, postings, bytes int
	for qi, fp := range d.poolF {
		var bitmaps []*bitmap.Bitmap
		for _, term := range fp.Set.ToSlice() {
			if ids := lists[term]; len(ids) > 0 {
				b := bitmap.FromSlice(ids)
				bitmaps = append(bitmaps, b)
				postings += len(ids)
				bytes += b.SizeInBytes()
			}
		}
		ns += int(tr.timed("bitmap.counter_add", -1, qi, func() {
			for _, b := range bitmaps {
				counter.Add(b)
			}
		}))
		counter.Reset()
	}
	if postings > 0 {
		values["bitmap.counter_add_ns_posting"] = float64(ns) / float64(postings)
		values["bitmap.bytes_per_posting"] = float64(bytes) / float64(postings)
	}
}

// traceWire encodes and decodes the frames served_cluster sends: a
// fingerprint search request per pool query and the response carrying its
// hits. Each span covers one pass over the pool; single calls are too
// short to time one by one.
func traceWire(ctx context.Context, tr *tracer, d *workloadData, ix *geodabs.Index, values map[string]float64) error {
	reqs := make([]*wire.Request, len(d.poolF))
	resps := make([]*wire.Response, len(d.poolF))
	for i, fp := range d.poolF {
		reqs[i] = &wire.Request{ID: uint64(i), Op: wire.OpSearchFP, MaxDistance: 1, KNN: knn, Terms: fp.Set.ToSlice()}
		res, err := ix.SearchQuery(ctx, geodabs.QueryFromFingerprint(fp), geodabs.WithKNN(knn))
		if err != nil {
			return err
		}
		// ElapsedUS is a fixed, typical value: the measured one would make
		// the frame's length differ between runs of one seed.
		resps[i] = &wire.Response{ID: uint64(i), Status: wire.StatusOK, Stats: wire.Stats{
			Candidates: uint64(res.Stats.Candidates), Pruned: uint64(res.Stats.Pruned), ElapsedUS: 200,
		}}
		for _, h := range res.Hits {
			resps[i].Hits = append(resps[i].Hits, wire.Hit{ID: uint32(h.ID), Distance: h.Distance, Shared: uint32(h.Shared)})
		}
	}
	passes := max(1, d.spec.layerSample/len(reqs))
	sm := samples{}
	reqFrames, respFrames := make([][]byte, len(reqs)), make([][]byte, len(resps))
	var decodeErr error
	for pass := 0; pass < passes; pass++ {
		sm.add("req_encode", tr.timed("wire.req_encode", -1, pass, func() {
			for i, r := range reqs {
				reqFrames[i] = wire.AppendRequest(reqFrames[i][:0], r)
			}
		}))
		sm.add("req_decode", tr.timed("wire.req_decode", -1, pass, func() {
			for _, f := range reqFrames {
				if _, err := wire.DecodeRequest(f); err != nil {
					decodeErr = err
				}
			}
		}))
		sm.add("resp_encode", tr.timed("wire.resp_encode", -1, pass, func() {
			for i, r := range resps {
				respFrames[i] = wire.AppendResponse(respFrames[i][:0], r)
			}
		}))
		sm.add("resp_decode", tr.timed("wire.resp_decode", -1, pass, func() {
			for _, f := range respFrames {
				if _, err := wire.DecodeResponse(f); err != nil {
					decodeErr = err
				}
			}
		}))
	}
	if decodeErr != nil {
		return fmt.Errorf("wire round trip: %w", decodeErr)
	}
	var reqBytes, respBytes int
	for i := range reqFrames {
		reqBytes += len(reqFrames[i])
		respBytes += len(respFrames[i])
	}
	n := float64(len(reqs))
	for _, name := range []string{"req_encode", "req_decode", "resp_encode", "resp_decode"} {
		values["wire."+name+"_ns"] = sm.p50us(name) * 1e3 / n
	}
	values["wire.req_bytes"] = float64(reqBytes) / n
	values["wire.resp_bytes"] = float64(respBytes) / n
	return nil
}

// traceDistance times geodabs.DTW on (query, shortlist candidate) pairs —
// the pairs an exact rerank would score — for half a second or a layer
// sample of pairs, whichever ends first.
func traceDistance(ctx context.Context, tr *tracer, d *workloadData, ix *geodabs.Index, values map[string]float64) {
	var pairs []time.Duration
	deadline := time.Now().Add(500 * time.Millisecond)
	for qi := 0; len(pairs) < d.spec.layerSample && (len(pairs) < 8 || time.Now().Before(deadline)); qi++ {
		q := d.pool[qi%poolSize]
		res, err := ix.SearchQuery(ctx, geodabs.QueryFromFingerprint(d.poolF[qi%poolSize]), geodabs.WithKNN(knn*rerankShortlist))
		if err != nil || len(res.Hits) == 0 {
			continue
		}
		// One candidate per query keeps the pairs spread over the pool.
		c := d.contents[d.state[res.Hits[qi%len(res.Hits)].ID]].points
		pairs = append(pairs, tr.timed("distance.dtw", -1, qi, func() { geodabs.DTW(q.Points, c) }))
	}
	values["distance.dtw_us_pair"] = micros(percentile(pairs, 0.5))
}

// traceServer measures what the network front adds: client round trips
// against traceCluster's direct calls into the cluster behind it, for the
// same queries.
func traceServer(ctx context.Context, tr *tracer, d *workloadData, sys *servedSystem, values map[string]float64) error {
	sm := samples{}
	for i := 0; i < d.spec.layerSample; i++ {
		var err error
		sm.add("rtt", tr.timed("server.round_trip", -1, i, func() { _, err = sys.search(ctx, 0, i%poolSize, knn) }))
		if err != nil {
			return err
		}
	}
	values["server.overhead_us"] = sm.p50us("rtt") - values["cluster.search_us"]
	values["server.observed_p50_us"] = sys.srv.Metrics().Quantile(wire.OpSearchFP, 0.5) * 1e6
	values["server.shed"] = float64(sys.srv.Metrics().Shed())
	return nil
}

// traceCluster times direct fingerprint searches and upserts on the
// cluster and averages the fan-out its SearchStats report. On
// durable_rerank the upserts include the log append.
func traceCluster(ctx context.Context, tr *tracer, d *workloadData, cs *clusterSystem, values map[string]float64) error {
	queries := make([]*geodabs.Query, len(d.poolF))
	for i, fp := range d.poolF {
		queries[i] = geodabs.QueryFromFingerprint(fp)
	}
	opt := geodabs.WithKNN(knn)
	sm := samples{}
	var nodesTouched, partials, nodePruned int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < d.spec.layerSample; i++ {
		var res *geodabs.SearchResult
		var err error
		sm.add("search", tr.timed("cluster.search", -1, i, func() { res, err = cs.cl.SearchQuery(ctx, queries[i%poolSize], opt) }))
		if err != nil {
			return err
		}
		nodesTouched += res.Stats.NodesTouched
		partials += res.Stats.WirePartials
		nodePruned += res.Stats.NodePruned
	}
	runtime.ReadMemStats(&after)
	n := float64(d.spec.layerSample)
	values["cluster.search_us"] = sm.p50us("search")
	values["cluster.nodes_touched"] = float64(nodesTouched) / n
	values["cluster.wire_partials"] = float64(partials) / n
	values["cluster.node_pruned"] = float64(nodePruned) / n
	// The tracer's own appends are amortized and far below one per search.
	values["cluster.allocs_search"] = float64(after.Mallocs-before.Mallocs) / n

	walBefore, err := walTotals(cs)
	if err != nil {
		return err
	}
	for i, t := range d.writeOps(d.spec.layerSample) {
		var err error
		sm.add("add", tr.timed("cluster.upsert", -1, i, func() { err = cs.cl.Upsert(ctx, t) }))
		if err != nil {
			return err
		}
	}
	values["cluster.add_us"] = sm.p50us("add")
	if cs.walDir != "" {
		walAfter, err := walTotals(cs)
		if err != nil {
			return err
		}
		values["wal.fsyncs_per_write"] = float64(walAfter.syncs-walBefore.syncs) / n
		values["wal.bytes_per_write"] = float64(walAfter.bytes-walBefore.bytes) / n
	}
	return nil
}

// nodeTotals sums the counters Cluster.Stats reports per node.
type nodeTotals struct {
	syncs, records, scored, skipped uint64
	bytes                           int64
}

func walTotals(cs *clusterSystem) (nodeTotals, error) {
	stats, err := cs.cl.Stats()
	if err != nil {
		return nodeTotals{}, err
	}
	var t nodeTotals
	for _, s := range stats {
		t.syncs += s.WALSyncs
		t.records += s.WALRecords
		t.bytes += s.WALBytes
		t.scored += s.RerankScored
		t.skipped += s.RerankSkipped
	}
	return t, nil
}

// traceEndToEnd runs the workload's own search op over the same queries
// untraced and traced, in alternating blocks so drift hits both alike;
// the ratio of the two medians is what recording spans costs. On
// durable_rerank the nodes' rerank counters over these searches give the
// pairs scored and skipped per query.
func traceEndToEnd(ctx context.Context, tr *tracer, d *workloadData, sys system, values map[string]float64) error {
	n := min(d.spec.layerSample, 2*d.spec.searches)
	const blocks = 4
	var plain, traced []time.Duration
	cs, _ := sys.(*clusterSystem)
	var before nodeTotals
	if cs != nil {
		var err error
		if before, err = walTotals(cs); err != nil {
			return err
		}
	}
	for b := 0; b < 2*blocks; b++ {
		for i := b / 2 * n / blocks; i < (b/2+1)*n/blocks; i++ {
			var err error
			if b%2 == 0 {
				t0 := time.Now()
				_, err = sys.search(ctx, 0, i%poolSize, knn)
				plain = append(plain, time.Since(t0))
			} else {
				traced = append(traced, tr.timed("search", -1, i, func() { _, err = sys.search(ctx, 0, i%poolSize, knn) }))
			}
			if err != nil {
				return err
			}
		}
	}
	values["trace.search_p50_us"] = micros(percentile(traced, 0.5))
	values["trace.overhead_ratio"] = micros(percentile(traced, 0.5)) / micros(percentile(plain, 0.5))
	if cs != nil && cs.walDir != "" {
		after, err := walTotals(cs)
		if err != nil {
			return err
		}
		scored, skipped := float64(after.scored-before.scored), float64(after.skipped-before.skipped)
		values["distance.pairs_scored_per_query"] = scored / float64(2*n)
		if scored+skipped > 0 {
			values["distance.skip_ratio"] = skipped / (scored + skipped)
		}
	}
	return nil
}

// traceWAL times the log on its own — one writer appending records shaped
// like the workload's, fsync on every append — then crashes the cluster
// and times its recovery from the logs.
func traceWAL(ctx context.Context, tr *tracer, d *workloadData, cs *clusterSystem, workDir string, values map[string]float64) error {
	dir, err := os.MkdirTemp(workDir, "wal-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	sm := samples{}
	for i, t := range d.byID[:min(len(d.byID), d.spec.layerSample)] {
		set := d.contents[i].fp.Set
		rec := wal.Record{Op: wal.OpAddPoints, Epoch: uint64(i + 1), ID: uint32(t.ID), Card: uint32(set.Cardinality()), Terms: set.ToSlice(), Points: t.Points}
		var err error
		sm.add("append", tr.timed("wal.append", -1, i, func() { err = log.Append(rec) }))
		if err != nil {
			log.Close()
			return err
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	values["wal.append_us"] = sm.p50us("append")

	var recoverErr error
	values["wal.recover_s"] = tr.timed("wal.recover", -1, 0, func() { recoverErr = cs.crashAndRecover() }).Seconds()
	if recoverErr != nil {
		return fmt.Errorf("crash and recover: %w", recoverErr)
	}
	totals, err := walTotals(cs)
	if err != nil {
		return err
	}
	values["wal.replayed_records"] = float64(totals.records)
	return nil
}
