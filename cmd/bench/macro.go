package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"geodabs/internal/core"
	"geodabs/internal/distance"
	"geodabs/internal/gen"
	"geodabs/internal/index"
	"geodabs/internal/roadnet"
	"geodabs/internal/trajectory"
)

// The macro benchmark is the scale proof the micro-benches cannot give:
// it ingests on the order of a million synthetic trajectories (chunked
// generation on one city graph, so memory holds the indexes rather than
// the raw dataset) into the in-process index, measures ingest throughput,
// closed-loop search qps and p50/p99 latency at several operating points,
// RSS, and a v3 snapshot write — and anchors everything with a
// brute-force linear-scan baseline (full-corpus Jaccard per query, whose
// rankings must equal the index's), the geo-index-rtree comparison-table
// idiom, for the speedup_vs_brute headline.

type macroSearchResult struct {
	MaxDistance float64 `json:"max_distance"`
	KNN         int     `json:"knn"`
	Workers     int     `json:"workers"`
	Requests    int     `json:"requests"`
	QPS         float64 `json:"qps"`
	P50MS       float64 `json:"p50_ms"`
	P99MS       float64 `json:"p99_ms"`
}

type macroIngestResult struct {
	Trajs      int     `json:"trajectories"`
	Seconds    float64 `json:"seconds"`
	TrajPerSec float64 `json:"traj_per_sec"`
}

type macroBruteResult struct {
	Queries int     `json:"queries"`
	AvgMS   float64 `json:"avg_ms"`
	QPS     float64 `json:"qps"`
}

type macroMemory struct {
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	SysBytes       uint64 `json:"sys_bytes"`
	VmRSSBytes     int64  `json:"vm_rss_bytes"`
}

type macroReport struct {
	Workload string `json:"workload"`

	Trajectories int   `json:"trajectories"`
	TotalPoints  int64 `json:"total_points"`
	QueryPool    int   `json:"query_pool"`

	Ingest macroIngestResult   `json:"ingest"`
	Search []macroSearchResult `json:"search"`
	Brute  macroBruteResult    `json:"brute_force"`

	// SpeedupVsBrute is the headline: single-worker qps at the widest
	// operating point over the brute-force linear scan's qps.
	SpeedupVsBrute float64 `json:"speedup_vs_brute"`

	// Memory is sampled after the index is built.
	Memory            macroMemory `json:"memory_after_ingest"`
	SnapshotV3Bytes   int64       `json:"snapshot_v3_bytes"`
	SnapshotV3Seconds float64     `json:"snapshot_v3_seconds"`
}

// macroChunk is one generated slice of the corpus: trajectory IDs are
// reassigned to a global offset so chunks cannot collide.
func macroChunk(city *roadnet.Graph, chunkIdx int, routes, perDirection, queriesPerRoute int) (*trajectory.Dataset, []*trajectory.Trajectory, error) {
	cfg := gen.DefaultConfig()
	cfg.Routes = routes
	cfg.TrajectoriesPerDirection = perDirection
	cfg.QueriesPerRoute = queriesPerRoute
	cfg.MinRouteMeters = 1000 // ~100-point trajectories: a dense urban corpus that fits 1M in memory
	cfg.Seed = int64(1000 + chunkIdx)
	out, err := gen.Generate(city, cfg)
	if err != nil {
		return nil, nil, err
	}
	return out.Dataset, out.Queries, nil
}

func runMacro(n, queryPool int, pointDur time.Duration) macroReport {
	gomax := runtime.GOMAXPROCS(0)
	ctx := context.Background()
	cf := core.MustFingerprinter(core.DefaultConfig())
	ix := index.New(index.GeodabExtractor{Fingerprinter: cf}, false)
	log.Printf("macro: target %d trajectories, GOMAXPROCS=%d", n, gomax)

	city, err := roadnet.GenerateCity(roadnet.CityConfig{Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	// Chunked generate-and-ingest: each chunk is generated once, pushed
	// through AddAll (so the ingest number includes the fingerprint
	// extraction it would pay in production), then dropped.
	const chunkRoutes, perDirection = 128, 10
	chunkSize := chunkRoutes * 2 * perDirection
	var (
		queries      []*trajectory.Trajectory
		total        int
		totalPoints  int64
		genSeconds   float64
		ingestSecs   float64
		chunkIdx     int
		logEvery     = 1
		nextLogCount = 0
	)
	for total < n {
		t0 := time.Now()
		queriesPerRoute := 0
		if chunkIdx == 0 {
			queriesPerRoute = (queryPool + chunkRoutes - 1) / chunkRoutes
		}
		chunk, held, err := macroChunk(city, chunkIdx, chunkRoutes, perDirection, queriesPerRoute)
		if err != nil {
			log.Fatal(err)
		}
		if chunkIdx == 0 {
			queries = held
			if len(queries) > queryPool {
				queries = queries[:queryPool]
			}
		}
		// Rebase IDs onto the global sequence.
		if len(chunk.Trajectories) > n-total {
			chunk.Trajectories = chunk.Trajectories[:n-total]
		}
		for i, tr := range chunk.Trajectories {
			tr.ID = trajectory.ID(total + i)
			totalPoints += int64(len(tr.Points))
		}
		genSeconds += time.Since(t0).Seconds()

		t0 = time.Now()
		if err := ix.AddAll(ctx, chunk, gomax); err != nil {
			log.Fatal(err)
		}
		ingestSecs += time.Since(t0).Seconds()
		total += len(chunk.Trajectories)
		chunkIdx++
		if total >= nextLogCount {
			log.Printf("macro: ingested %d/%d (gen %.0fs, ingest %.0fs)",
				total, n, genSeconds, ingestSecs)
			logEvery *= 2
			nextLogCount = total + chunkSize*logEvery
		}
	}
	if len(queries) == 0 {
		log.Fatal("macro: no held-out queries generated")
	}
	log.Printf("macro: corpus built — %d trajectories, %d points, %d queries", total, totalPoints, len(queries))

	// Pre-extract the query fingerprint sets once: the search loops below
	// measure the index's ranked retrieval, the prepared-query steady
	// state of a production workload.
	querySets := make([][]uint32, len(queries))
	for i, q := range queries {
		querySets[i] = cf.FingerprintSet(q.Points)
	}

	mem := sampleMemory()
	log.Printf("macro: memory heap_inuse=%dMB sys=%dMB vmrss=%dMB",
		mem.HeapInuseBytes>>20, mem.SysBytes>>20, mem.VmRSSBytes>>20)

	ingest := macroIngestResult{Trajs: total, Seconds: ingestSecs, TrajPerSec: float64(total) / ingestSecs}
	log.Printf("macro: ingest %8.0f traj/s (%.1fs)", ingest.TrajPerSec, ingest.Seconds)

	// Closed-loop search at the operating-point grid. Worker counts cover
	// the single-caller latency view and a saturating concurrent load.
	workerPoints := []int{1, gomax}
	if gomax == 1 {
		workerPoints = []int{1, 4} // still measure concurrent callers queuing on one core
	}
	var search []macroSearchResult
	for _, op := range []struct {
		d float64
		k int
	}{{1, 10}, {0.5, 10}} {
		for _, w := range workerPoints {
			r := runMacroSearch(ctx, ix, querySets, op.d, op.k, w, pointDur)
			search = append(search, r)
			log.Printf("macro: search d=%.1f k=%d w=%-2d %8.0f qps  p50=%.3fms p99=%.3fms",
				op.d, op.k, w, r.QPS, r.P50MS, r.P99MS)
		}
	}

	// Brute force: full-corpus linear scan per query, Jaccard on every
	// document's term set, ranked through the shared sort contract. This is
	// the PostGIS-table-scan analogue anchoring the speedup headline, and
	// the run dies unless its rankings equal the index's.
	bruteQueries := len(querySets)
	if bruteQueries > 8 {
		bruteQueries = 8
	}
	t0 := time.Now()
	for i := 0; i < bruteQueries; i++ {
		got := bruteForceScan(ix, querySets[i], 1, 10)
		want, _, err := ix.AppendSearchSet(ctx, nil, querySets[i], 1, 10)
		if err != nil {
			log.Fatal(err)
		}
		if len(got) != len(want) {
			log.Fatalf("macro: brute-force mismatch on query %d: %d vs %d hits", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				log.Fatalf("macro: brute-force mismatch on query %d hit %d: %+v vs %+v", i, j, got[j], want[j])
			}
		}
	}
	bruteElapsed := time.Since(t0)
	brute := macroBruteResult{
		Queries: bruteQueries,
		AvgMS:   bruteElapsed.Seconds() * 1000 / float64(bruteQueries),
		QPS:     float64(bruteQueries) / bruteElapsed.Seconds(),
	}
	log.Printf("macro: brute force %d queries, avg %.1fms (%.2f qps)", brute.Queries, brute.AvgMS, brute.QPS)

	// Snapshot the corpus (v3) to a byte-counting sink: the durability
	// cost of the scale corpus without touching disk.
	t0 = time.Now()
	snapBytes, err := ix.WriteTo(countingDiscard{})
	if err != nil {
		log.Fatal(err)
	}
	snapSecs := time.Since(t0).Seconds()
	log.Printf("macro: v3 snapshot %d bytes in %.1fs", snapBytes, snapSecs)

	rep := macroReport{
		Workload: fmt.Sprintf("synthetic city seed 7, chunked %d-route x %d/direction generation, 1km+ routes, default fingerprint config",
			chunkRoutes, perDirection),
		Trajectories:      total,
		TotalPoints:       totalPoints,
		QueryPool:         len(querySets),
		Ingest:            ingest,
		Search:            search,
		Brute:             brute,
		SpeedupVsBrute:    search[0].QPS / brute.QPS, // d=1 from one worker
		Memory:            mem,
		SnapshotV3Bytes:   snapBytes,
		SnapshotV3Seconds: snapSecs,
	}
	log.Printf("macro: speedup_vs_brute %.0fx", rep.SpeedupVsBrute)
	return rep
}

// runMacroSearch drives the index closed-loop from w workers for
// roughly dur, cycling the query pool, and reports throughput and
// latency quantiles.
func runMacroSearch(ctx context.Context, ix *index.Inverted, querySets [][]uint32, maxDistance float64, knn, w int, dur time.Duration) macroSearchResult {
	var mu sync.Mutex
	var lats []time.Duration
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			var local []time.Duration
			dst := make([]index.Result, 0, knn)
			for qi := seed; time.Now().Before(deadline); qi++ {
				t0 := time.Now()
				out, _, err := ix.AppendSearchSet(ctx, dst[:0], querySets[qi%len(querySets)], maxDistance, knn)
				if err != nil {
					log.Fatal(err)
				}
				local = append(local, time.Since(t0))
				dst = out[:0]
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	quantile := func(q float64) float64 {
		if len(lats) == 0 {
			return 0
		}
		return float64(lats[int(q*float64(len(lats)-1))].Microseconds()) / 1000
	}
	return macroSearchResult{
		MaxDistance: maxDistance,
		KNN:         knn,
		Workers:     w,
		Requests:    len(lats),
		QPS:         float64(len(lats)) / elapsed.Seconds(),
		P50MS:       quantile(0.50),
		P99MS:       quantile(0.99),
	}
}

// bruteForceScan is the baseline: walk every indexed document, compute
// the exact Jaccard distance from the cached cardinality and a full
// merge of the two term sets, rank through the shared contract. No
// postings, no counting merge, no pruning — what retrieval costs without
// the index.
func bruteForceScan(ix *index.Inverted, terms []uint32, maxDistance float64, limit int) []index.Result {
	qc := len(terms)
	var results []index.Result
	ix.ScanDocs(func(id trajectory.ID, doc []uint32, card int) bool {
		shared := distance.Shared(terms, doc)
		if shared == 0 {
			return true
		}
		union := qc + card - shared
		d := 1.0
		if union > 0 {
			d = 1 - float64(shared)/float64(union)
		}
		if d <= maxDistance {
			results = append(results, index.Result{ID: id, Distance: d, Shared: shared})
		}
		return true
	})
	index.SortResults(results)
	if limit > 0 && len(results) > limit {
		results = results[:limit]
	}
	return results
}

// sampleMemory reads the Go heap gauges and the OS-observed RSS.
func sampleMemory() macroMemory {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return macroMemory{
		HeapInuseBytes: ms.HeapInuse,
		SysBytes:       ms.Sys,
		VmRSSBytes:     readVmRSS(),
	}
}

// readVmRSS parses VmRSS from /proc/self/status; -1 when unavailable
// (non-Linux platforms).
func readVmRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return -1
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return -1
		}
		return kb << 10
	}
	return -1
}

// countingDiscard is an io.Writer sink: the snapshot benchmark measures
// serialization, not disk.
type countingDiscard struct{}

func (countingDiscard) Write(p []byte) (int, error) { return len(p), nil }

var _ io.Writer = countingDiscard{}
