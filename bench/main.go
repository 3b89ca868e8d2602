// Command bench is the repo's benchmark: four workloads, twelve bounded
// end-to-end metrics, and per-layer attribution measured from outside
// the program. README.md in this directory is the manual; BENCHMARK.json
// at the repo root is the contract a driver runs it by.
//
//	go run ./bench -workload point -seed 1 -seconds 20 -trace 0
//	go run ./bench -all -seed 1
//	go run ./bench -set bench/out/set.json -runs 10 -seed 1
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: point, adhoc, analytic or serve-rw")
		seed     = flag.Int64("seed", 1, "seed of the generated corpus, constants and op streams")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		all      = flag.Bool("all", false, "run every workload, untraced then traced")
		set      = flag.String("set", "", "run every workload -runs times untraced and write the result set to this file")
		runs     = flag.Int("runs", 10, "runs per workload of -set, seeds seed..seed+runs-1")
		compare  = flag.Bool("compare", false, "compare two result sets: bench -compare A.json B.json")
		outDir   = flag.String("out", filepath.Join("bench", "out"), "directory for result and trace files")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace != 0, *all, *set, *runs, *compare, *outDir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func run(workload string, seed int64, seconds float64, trace, all bool, set string, runs int, compare bool, outDir string, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result-set files")
		}
		return compareSets(os.Stdout, args[0], args[1])
	case set != "":
		return runSet(set, seed, seconds, runs, outDir)
	case all:
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				if _, err := runOne(os.Stdout, runConfig{Workload: w.Name, Seed: seed, Seconds: seconds, Trace: traced, Warmup: warmup, OutDir: outDir}, true); err != nil {
					return err
				}
			}
		}
		return nil
	case workload != "":
		res, err := runOne(os.Stdout, runConfig{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Warmup: warmup, OutDir: outDir}, false)
		if err != nil {
			return err
		}
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	flag.Usage()
	return fmt.Errorf("one of -workload, -all, -set or -compare is required")
}

// warmup is discarded before every measured window: caches fill and the
// pool's plans are built.
const warmup = time.Second

// runOne runs one workload once, prints its metrics, and writes
// <out>/<workload>.json (and the trace of a traced run). A run with a
// wrong answer is an error when strict.
func runOne(out io.Writer, cfg runConfig, strict bool) (*runResult, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var res *runResult
	if cfg.Trace {
		res, err = b.runTraced()
	} else {
		res, err = b.runUntraced()
	}
	if err != nil {
		return nil, err
	}
	printResult(out, res)
	name := cfg.Workload + ".json"
	if cfg.Trace {
		name = cfg.Workload + "-layers.json"
	}
	if err := writeJSON(filepath.Join(cfg.OutDir, name), res); err != nil {
		return nil, err
	}
	if strict && !res.Correct {
		return res, fmt.Errorf("%s: %d of %d operations failed: %v", cfg.Workload, res.Failed, res.Attempted, res.Failures)
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
