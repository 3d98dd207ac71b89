// Cluster: run the distributed geodab index — shard nodes on TCP, a
// coordinator that routes postings along the space-filling curve and
// scatter-gathers ranked queries (paper §III-A4 and §VI-E).
//
// The dataset spans six metropolitan areas on three continents: sharding
// on the geohash prefix spreads the cities over the cluster (balance)
// while each query still fans out to a single node (locality), the
// trade-off of the paper's Figure 16. The finale pushes an exact DTW
// rerank down to the shard nodes that retain the raw points.
//
// Run with:
//
//	go run ./examples/cluster
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"geodabs"
)

// metros are the six synthetic cities of the demo dataset.
var metros = []struct {
	name   string
	center geodabs.Point
}{
	{"London", geodabs.Point{Lat: 51.5074, Lon: -0.1278}},
	{"Paris", geodabs.Point{Lat: 48.8566, Lon: 2.3522}},
	{"New York", geodabs.Point{Lat: 40.7128, Lon: -74.0060}},
	{"Tokyo", geodabs.Point{Lat: 35.6762, Lon: 139.6503}},
	{"Sydney", geodabs.Point{Lat: -33.8688, Lon: 151.2093}},
	{"São Paulo", geodabs.Point{Lat: -23.5505, Lon: -46.6333}},
}

func main() {
	log.SetFlags(0)

	// Start 4 shard nodes on the loopback interface. In production these
	// would be separate machines; the protocol is plain TCP + binary frames either
	// way.
	const numNodes = 4
	var addrs []string
	for i := 0; i < numNodes; i++ {
		n, err := geodabs.StartShardNode("127.0.0.1:0")
		if err != nil {
			log.Fatalf("start node %d: %v", i, err)
		}
		defer n.Close()
		addrs = append(addrs, n.Addr())
		fmt.Printf("node %d listening on %s\n", i, n.Addr())
	}

	// The paper's strategy: 16-bit geohash prefixes → 10'000 shards →
	// modulo onto the nodes. Locality keeps a query on one node; the
	// modulo spreads the world's cities across the cluster.
	cfg := geodabs.DefaultConfig()
	strategy := geodabs.ShardStrategy{PrefixBits: cfg.PrefixBits, Shards: 10000, Nodes: numNodes}
	// Point retention spills each trajectory's raw points to one owner
	// node at ingest, enabling the exact rerank demo at the end.
	coord, err := geodabs.NewCluster(cfg, strategy, addrs, geodabs.WithPointRetention())
	if err != nil {
		log.Fatalf("new cluster: %v", err)
	}
	defer coord.Close()

	// Index trajectories from every metro through the one coordinator.
	var queries []*geodabs.Trajectory
	queryMetro := make(map[geodabs.ID]string)
	var nextID geodabs.ID
	total := 0
	for i, m := range metros {
		city, err := geodabs.GenerateCity(geodabs.CityConfig{
			Center:       m.center,
			RadiusMeters: 2500,
			Seed:         int64(100 + i),
		})
		if err != nil {
			log.Fatalf("generate %s: %v", m.name, err)
		}
		dcfg := geodabs.DefaultDatasetConfig()
		dcfg.Routes = 6
		dcfg.TrajectoriesPerDirection = 3
		dcfg.MinRouteMeters = 2000
		dcfg.Seed = int64(i)
		data, err := geodabs.GenerateDataset(city, dcfg)
		if err != nil {
			log.Fatalf("generate %s dataset: %v", m.name, err)
		}
		for _, tr := range data.Dataset.Trajectories {
			tr.ID += nextID // globally unique IDs across metros
			if err := coord.Add(tr); err != nil {
				log.Fatalf("add: %v", err)
			}
			total++
		}
		q := data.Queries[0]
		q.ID += nextID
		queries = append(queries, q)
		queryMetro[q.ID] = m.name
		nextID += geodabs.ID(data.Dataset.Len() + len(data.Queries))
	}
	fmt.Printf("\nindexed %d trajectories from %d metros\n", total, len(metros))

	// Balance: the modulo step spreads the metros over the nodes.
	stats, err := coord.Stats()
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	for _, s := range stats {
		fmt.Printf("node %d: %5d terms, %6d postings\n", s.Node, s.Terms, s.Postings)
	}

	// Locality: every query fans out to very few shards (its metro's
	// neighborhood on the space-filling curve), hence few nodes. Each
	// query is prepared once: AnalyzeQuery reports the fan-out from the
	// cached shard partition, and the search that follows reuses both the
	// extraction and the partition instead of re-deriving them. The
	// scatter-gather runs under a deadline — a wedged node cannot stall
	// the query past its budget.
	fmt.Println()
	for _, q := range queries {
		pq := geodabs.NewQuery(q.Points)
		fanout := coord.AnalyzeQuery(pq)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		res, err := coord.SearchQuery(ctx, pq, geodabs.WithMaxDistance(0.95), geodabs.WithKNN(1))
		cancel()
		if err != nil {
			log.Fatalf("search: %v", err)
		}
		top := "no match"
		if len(res.Hits) > 0 {
			top = fmt.Sprintf("top match %d at dJ=%.3f", res.Hits[0].ID, res.Hits[0].Distance)
		}
		fmt.Printf("%-9s query → %d shard(s), %d node(s), %d candidate(s) in %v; %s\n",
			queryMetro[q.ID], fanout.Shards, fanout.Nodes,
			res.Stats.Candidates, res.Stats.Elapsed.Round(time.Microsecond), top)
	}

	// Exact refinement, pushed down: the fingerprint shortlist is scored
	// with DTW on the shard nodes that retain each candidate's raw points
	// — only (ID, score) pairs cross the wire back, and the distances are
	// meters instead of Jaccard estimates.
	fmt.Println()
	q := queries[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	res, err := coord.Search(ctx, q,
		geodabs.WithKNN(3), geodabs.WithExactRerank(geodabs.DTW))
	cancel()
	if err != nil {
		log.Fatalf("rerank search: %v", err)
	}
	fmt.Printf("%s query, exact rerank on the nodes:\n", queryMetro[q.ID])
	for i, h := range res.Hits {
		fmt.Printf("  %d. trajectory %d at DTW %.0f m\n", i+1, h.ID, h.Distance)
	}
}
