// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator, trace codecs and analyses through their
// public entry points, checks the outputs, and prints its metrics as one
// JSON line. See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg config
	var trace int
	var record bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: rank-scale | matrix | trace-query")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the simulated clocks and the query generator")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "how long the closed loop of timed units runs")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", ".bench_build/spans", "where a traced run writes its spans")
	flag.BoolVar(&record, "record-reference", false, "store this run's simulated statistics in "+referencePath)
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	cfg.size = fullSize
	if record {
		cfg.size.reference = false
	}
	b, err := run(cfg, os.Stdout)
	if err == nil && record {
		err = recordReference(b)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
