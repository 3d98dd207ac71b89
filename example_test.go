package geodabs_test

import (
	"context"
	"errors"
	"fmt"

	"geodabs"
)

// ExampleIndex demonstrates the core workflow: index a dataset, run a
// ranked similarity search through the Searcher API.
func ExampleIndex() {
	city, err := geodabs.GenerateCity(geodabs.CityConfig{RadiusMeters: 3000, Seed: 5})
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := geodabs.DefaultDatasetConfig()
	cfg.Routes = 5
	cfg.TrajectoriesPerDirection = 3
	cfg.MinRouteMeters = 2000
	data, err := geodabs.GenerateDataset(city, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := idx.AddAll(data.Dataset, 4); err != nil {
		fmt.Println(err)
		return
	}
	q := data.Queries[0]
	res, err := idx.Search(context.Background(), q,
		geodabs.WithMaxDistance(0.95),
		geodabs.WithKNN(3))
	if err != nil {
		fmt.Println(err)
		return
	}
	top := data.Dataset.ByID(res.Hits[0].ID)
	fmt.Println("top result shares the query's route:", top.Route == q.Route && top.Dir == q.Dir)
	// Output:
	// top result shares the query's route: true
}

// ExampleFingerprinter shows fingerprint extraction with a reusable
// Fingerprinter and the Jaccard distance between two fingerprint sets.
func ExampleFingerprinter() {
	// A short straight drive, two noise-free recordings.
	var a, b []geodabs.Point
	start := geodabs.Point{Lat: 51.5074, Lon: -0.1278}
	for i := 0; i < 600; i++ {
		p := offsetNE(start, float64(i)*10, float64(i)*10)
		a = append(a, p)
		b = append(b, p)
	}
	fp, err := geodabs.NewFingerprinter(geodabs.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	fa := fp.Fingerprint(a)
	fb := fp.Fingerprint(b)
	fmt.Printf("distance between identical recordings: %.1f\n", geodabs.JaccardDistance(fa, fb))
	// Output:
	// distance between identical recordings: 0.0
}

// offsetNE displaces a point north and east in meters (flat-earth
// approximation good enough for an example).
func offsetNE(p geodabs.Point, north, east float64) geodabs.Point {
	const mPerDegLat = 111_195.0
	return geodabs.Point{
		Lat: p.Lat + north/mPerDegLat,
		Lon: p.Lon + east/(mPerDegLat*0.6225), // cos(51.5°)
	}
}

// ExampleIndex_SearchQuery matches a carsharing member with commuters
// whose drives overlap theirs, a scenario of the paper's introduction: a
// fingerprint kNN, refined by exact DTW. No drive along the member's
// road the other way is even a candidate, since geodabs hash the order
// of travel; geohash cells, the baseline, cannot tell the two apart.
func ExampleIndex_SearchQuery() {
	city, err := geodabs.GenerateCity(geodabs.CityConfig{RadiusMeters: 5000, Seed: 7})
	if err != nil {
		fmt.Println(err)
		return
	}
	cfg := geodabs.DefaultDatasetConfig()
	cfg.Routes = 40
	cfg.TrajectoriesPerDirection = 3
	fleet, err := geodabs.GenerateDataset(city, cfg)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Point retention keeps the raw drives for the exact rerank.
	idx, err := geodabs.NewIndex(geodabs.DefaultConfig(), geodabs.WithPointRetention())
	if err != nil {
		fmt.Println(err)
		return
	}
	cells, err := geodabs.NewGeohashIndex(geodabs.DefaultConfig())
	if err != nil {
		fmt.Println(err)
		return
	}
	if err := errors.Join(idx.AddAll(fleet.Dataset, 4), cells.AddAll(fleet.Dataset, 4)); err != nil {
		fmt.Println(err)
		return
	}
	// Prepared once, the member's drive is fingerprinted once for all
	// three searches.
	drive := fleet.Queries[2]
	member := geodabs.NewQuery(drive.Points)
	ctx := context.Background()
	report := func(name string, res *geodabs.SearchResult, err error) {
		if err != nil {
			fmt.Println(err)
			return
		}
		same, wrongWay := 0, 0
		for _, h := range res.Hits {
			switch d := fleet.Dataset.ByID(h.ID); {
			case d.Route == drive.Route && d.Dir == drive.Dir:
				same++
			case d.Route == drive.Route:
				wrongWay++
			}
		}
		fmt.Printf("%s: %d hits, %d the member's way, %d the other way\n", name, len(res.Hits), same, wrongWay)
	}
	res, err := idx.SearchQuery(ctx, member, geodabs.WithMaxDistance(0.9), geodabs.WithKNN(5))
	report("kNN", res, err)
	res, err = idx.SearchQuery(ctx, member, geodabs.WithMaxDistance(0.9), geodabs.WithKNN(5), geodabs.WithExactRerank(geodabs.DTW))
	report("DTW rerank", res, err)
	res, err = idx.SearchQuery(ctx, member)
	report("every candidate", res, err)
	res, err = cells.Search(ctx, drive)
	report("geohash cells", res, err)
	// Output:
	// kNN: 2 hits, 2 the member's way, 0 the other way
	// DTW rerank: 2 hits, 2 the member's way, 0 the other way
	// every candidate: 16 hits, 3 the member's way, 0 the other way
	// geohash cells: 78 hits, 3 the member's way, 3 the other way
}
