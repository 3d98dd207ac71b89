package main

import "fmt"

// metric is one named, unit-carrying number of the benchmark's contract.
// bound is the share of the parent's median by which an end-to-end metric
// may worsen before a change counts as a regression; per-layer metrics
// carry none.
type metric struct {
	name   string
	unit   string
	higher bool // true when a larger value is better
	bound  float64
}

// endToEnd is what a user of the system sees, the same eleven names on
// every workload. BENCHMARK.json repeats this table; smoke_test.go pins
// the two against each other. The bounds are justified in CALIBRATION.md.
var endToEnd = []metric{
	{"setup_s", "s", false, 0.25},
	{"search_qps", "1/s", true, 0.25},
	{"search_p50_us", "us", false, 0.25},
	{"search_p90_us", "us", false, 0.25},
	{"search_cpu_us", "us", false, 0.25},
	{"search_allocs_op", "count", false, 0.20},
	{"write_ops_s", "1/s", true, 0.25},
	{"write_p50_us", "us", false, 0.25},
	{"write_p90_us", "us", false, 0.25},
	{"heap_mb", "MiB", false, 0.08},
	{"r_precision", "ratio", true, 0.20},
}

// perLayer is the traced run's output: one group per module, measured by
// timing the module's public functions from outside on a sample of the
// workload's own inputs. A layer that is not on a workload's path reports
// 0 there (README.md has the layer → workload map).
var perLayer = []metric{
	{"gen.generate_s", "s", false, 0},

	{"core.extract_us", "us", false, 0},
	{"core.normalize_us", "us", false, 0},
	{"core.geodab_us", "us", false, 0},
	{"core.points_per_query", "count", false, 0},
	{"core.terms_per_query", "count", false, 0},

	{"geohash.encode_ns_pt", "ns", false, 0},

	{"winnow.select_us", "us", false, 0},
	{"winnow.kept_ratio", "ratio", false, 0},

	{"index.count_rank_us", "us", false, 0},
	{"index.candidates_per_query", "count", false, 0},
	{"index.pruned_ratio", "ratio", true, 0},
	{"index.insert_us", "us", false, 0},
	{"index.terms", "count", false, 0},
	{"index.postings", "count", false, 0},
	{"index.search_us", "us", false, 0},
	{"index.search_residual_us", "us", false, 0},

	{"bitmap.counter_add_ns_posting", "ns", false, 0},
	{"bitmap.bytes_per_posting", "B", false, 0},

	{"wire.req_encode_ns", "ns", false, 0},
	{"wire.req_decode_ns", "ns", false, 0},
	{"wire.resp_encode_ns", "ns", false, 0},
	{"wire.resp_decode_ns", "ns", false, 0},
	{"wire.req_bytes", "B", false, 0},
	{"wire.resp_bytes", "B", false, 0},

	{"server.overhead_us", "us", false, 0},
	{"server.observed_p50_us", "us", false, 0},
	{"server.shed", "count", false, 0},

	{"cluster.search_us", "us", false, 0},
	{"cluster.scatter_overhead_us", "us", false, 0},
	{"cluster.nodes_touched", "count", false, 0},
	{"cluster.wire_partials", "count", false, 0},
	{"cluster.node_pruned", "count", true, 0},
	{"cluster.add_us", "us", false, 0},
	{"cluster.allocs_search", "count", false, 0},

	{"distance.dtw_us_pair", "us", false, 0},
	{"distance.pairs_scored_per_query", "count", false, 0},
	{"distance.skip_ratio", "ratio", true, 0},

	{"wal.append_us", "us", false, 0},
	{"wal.fsyncs_per_write", "count", false, 0},
	{"wal.bytes_per_write", "B", false, 0},
	{"wal.recover_s", "s", false, 0},
	{"wal.replayed_records", "count", false, 0},

	{"runtime.machine_speed", "ratio", true, 0},
	{"runtime.gc_cycles", "count", false, 0},
	{"runtime.gc_pause_ms", "ms", false, 0},
	{"trace.search_p50_us", "us", false, 0},
	{"trace.overhead_ratio", "ratio", false, 0},
}

// engineKind selects how a workload's system under test is assembled.
type engineKind int

const (
	localCold     engineKind = iota // geodabs.Index, raw-point Search
	localPrepared                   // geodabs.Index, SearchQuery over prepared queries
	served                          // server.Listen → geodabs.Cluster → 3 shard nodes
	durableRerank                   // geodabs.Cluster with retention → 3 WAL nodes, DTW rerank
)

// spec freezes one workload: its corpus, its engine, and the fixed op
// count of each phase of a round. The counts are sized so a phase lasts
// about a second at the seed commit's speed on the reference sandbox;
// they never adapt to the machine, so every round of every run repeats
// the same operations.
type spec struct {
	name string
	why  string
	kind engineKind

	routes, perDirection int
	// cityRadius and minRoute shape trajectory length (0 = the generator's
	// 300 km² default city and 3 km minimum). Only durable_rerank shrinks
	// them: DTW is quadratic in points, and the default city's ~700-point
	// traces would make one reranked search take seconds.
	cityRadius, minRoute float64

	searches, writes            int // operations per phase
	searchCallers, writeCallers int
	setups                      int // set-ups per run; setup_s is their median
	verifyQueries               int // pool queries checked against the oracle
	precisionQueries            int // pool queries behind r_precision
	layerSample                 int // operations per per-layer probe in the traced run
}

const (
	poolSize = 200 // held-out query trajectories a search phase cycles
	knn      = 10
	nodes    = 3
)

var fullSpecs = []spec{
	{
		name: "cold_sparse", kind: localCold,
		why:    "raw-point Search on 1,000 sparse trajectories: extraction is most of every search and write, posting lists are short",
		routes: 500, perDirection: 1,
		searches: 14000, writes: 18000, searchCallers: 1, writeCallers: 1,
		setups: 15, verifyQueries: 50, precisionQueries: 1000, layerSample: 2000,
	},
	{
		name: "prepared_dense", kind: localPrepared,
		why:    "prepared SearchQuery on 30,000 dense trajectories: extraction is bypassed, counting and ranking over long posting lists are the search",
		routes: 100, perDirection: 150,
		searches: 5000, writes: 18000, searchCallers: 1, writeCallers: 1,
		setups: 3, verifyQueries: 50, precisionQueries: 200, layerSample: 2000,
	},
	{
		name: "served_cluster", kind: served,
		why:    "fingerprint searches over loopback TCP to a served 3-node cluster: wire, admission, scatter-gather and gob RPC dominate, no WAL",
		routes: 250, perDirection: 20,
		searches: 8000, writes: 3300, searchCallers: 2, writeCallers: 2,
		setups: 3, verifyQueries: 50, precisionQueries: 500, layerSample: 2000,
	},
	{
		name: "durable_rerank", kind: durableRerank,
		why:    "DTW-reranked searches and logged upserts on a 3-node WAL cluster: exact distance owns the search phase, log append and point shipping the write phase",
		routes: 50, perDirection: 20, cityRadius: 1400, minRoute: 1000,
		searches: 14, writes: 6000, searchCallers: 1, writeCallers: 2,
		setups: 5, verifyQueries: 6, precisionQueries: 20, layerSample: 200,
	},
}

// tinySpecs is -scale tiny: the same four engines over hundreds of
// trajectories in a small city, for the smoke test. Its numbers mean
// nothing.
var tinySpecs = func() []spec {
	out := make([]spec, len(fullSpecs))
	for i, s := range fullSpecs {
		s.routes, s.perDirection = 30, 4
		s.cityRadius, s.minRoute = 1400, 1000
		s.searches, s.writes = 100, 50
		s.setups, s.verifyQueries, s.precisionQueries, s.layerSample = 1, 10, 10, 50
		if s.kind == durableRerank {
			s.routes, s.searches, s.layerSample = 12, 2, 8
			s.verifyQueries, s.precisionQueries = 2, 2
		}
		out[i] = s
	}
	return out
}()

func specsFor(scale string) ([]spec, error) {
	switch scale {
	case "full":
		return fullSpecs, nil
	case "tiny":
		return tinySpecs, nil
	}
	return nil, fmt.Errorf("unknown -scale %q (full or tiny)", scale)
}

func findSpec(specs []spec, name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown -workload %q", name)
}
