// Command bench is the scale proof, and nothing else: it ingests on the
// order of a million synthetic trajectories into the in-process index,
// dies unless its rankings agree with a brute-force linear scan, and
// reports ingest throughput, closed-loop search qps with p50/p99
// latency, RSS, the snapshot size and the brute-force speedup as JSON
// (see macro.go).
//
// Every other number the repository tracks comes from benchmark/
// (bash benchmark/run.sh), which repeats; this run is too long to. A
// result worth keeping goes in docs/bench-history.md, not into a
// committed JSON file:
//
//	GOMAXPROCS=2 go run ./cmd/bench -out /tmp/macro.json
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"runtime"
	"time"
)

type report struct {
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Macro      macroReport `json:"macro"`
}

func main() {
	n := flag.Int("n", 1_000_000, "number of trajectories to ingest")
	dur := flag.Duration("macro-duration", 3*time.Second, "duration of each search operating point")
	queries := flag.Int("macro-queries", 64, "held-out query pool size")
	out := flag.String("out", "", "output JSON path (default: standard output)")
	flag.Parse()

	rep := report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Macro:      runMacro(*n, *queries, *dur),
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", *out)
}
