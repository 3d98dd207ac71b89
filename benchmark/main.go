// Command benchmark is the repository's benchmark: four workloads that
// each put a different layer of the system in charge, eleven end-to-end
// metrics per workload, and a separate traced run that times every layer
// from outside. README.md has the commands and the reasoning;
// BENCHMARK.json is the contract a driver runs it by.
//
// It reaches the system only through geodabs, geodabs/client and
// internal/server.Listen for the end-to-end numbers, so the engines
// behind that surface can be rebuilt without touching it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload  = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed of the GPS noise on the generated inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "how long to measure rounds for")
		trace     = flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
		scale     = flag.String("scale", "full", "full, or tiny for a smoke run")
		workDir   = flag.String("workdir", ".bench_build/work", "directory for write-ahead logs")
		outDir    = flag.String("outdir", "benchmark/out", "directory for trace files")
		out       = flag.String("out", "", "append each run's result to this JSON-lines file, for -compare")
		compare   = flag.Bool("compare", false, "compare two -out files: benchmark -compare parent.json change.json")
		selfcheck = flag.Bool("selfcheck", false, "run two alternating sets of full runs of this binary and compare them")
		runs      = flag.Int("runs", 3, "runs per set for -selfcheck")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		verdicts, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && verdicts["worse"] > 0 {
			err = fmt.Errorf("%d metrics are worse than their bound allows", verdicts["worse"])
		}
		return err
	}
	if *selfcheck {
		return selfCheck(os.Stdout, *runs, *seed, *seconds, *workDir)
	}
	specs, err := specsFor(*scale)
	if err != nil {
		return err
	}
	if *workload != "all" {
		s, err := findSpec(specs, *workload)
		if err != nil {
			return err
		}
		specs = []spec{s}
	}
	incorrect := 0
	for _, s := range specs {
		res, err := run(context.Background(), runConfig{
			spec: s, seed: *seed, seconds: *seconds, trace: *trace != 0, workDir: *workDir, outDir: *outDir,
		})
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if len(specs) > 1 {
			fmt.Printf("# %s\n", s.name)
		}
		fmt.Printf("%s\n", line)
		if *out != "" {
			if err := appendRecord(*out, record{Workload: s.name, Seed: *seed, Trace: *trace != 0, result: *res}); err != nil {
				return err
			}
		}
		if !res.Correct {
			incorrect++
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workloads had failed operations", incorrect)
	}
	return nil
}
