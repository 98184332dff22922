// Command benchmark is the repository's benchmark of record. It builds each
// workload's data from a seed, drives internal/server closed-loop over
// loopback TCP (mixed_dml runs in-process: the wire carries no DML), checks
// every result against an accelerator-free twin database, and prints every
// metric by name with its unit. See README.md for the workloads, the metric
// glossary and the layer → end-to-end interaction table, and BENCHMARK.json
// at the repository root for the contract.
//
// One run, as the driver starts it (the last line of output is one JSON
// object with the keys correct, attempted, failed and metrics):
//
//	benchmark -workload point_wire -seed 1 -seconds 20 -trace 0
//
// A set of runs — every workload, -runs untraced runs with consecutive seeds
// plus one traced pass each, every run in its own process — written to one
// JSON file:
//
//	benchmark -seed 1 -runs 10 -out benchmark/results/baseline-a.json
//
// Two sets compared against the bounds in BENCHMARK.json:
//
//	benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	workload := flag.String("workload", "all", "workload to run: point_wire, scan_repeat, tpch_join, mixed_dml, or all (a set of runs)")
	seed := flag.Int64("seed", 1, "seed of the generated data and operation streams")
	seconds := flag.Float64("seconds", 20, "length of the timed window")
	trace := flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	scale := flag.String("scale", "record", "workload sizes: record or smoke")
	runs := flag.Int("runs", 1, "with -workload all: untraced runs per workload (seeds seed..seed+runs-1)")
	out := flag.String("out", "benchmark/results/latest.json", "with -workload all: result file")
	compare := flag.Bool("compare", false, "compare two result files given as arguments; exit 1 on a regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants two result files"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), "BENCHMARK.json", os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *workload == "all" {
		if err := runSet(*seed, *runs, *seconds, *scale, *out); err != nil {
			fatal(err)
		}
		return
	}
	rep, err := run(runConfig{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Scale: *scale,
		Trace: *trace == 1, TraceDir: "benchmark/results",
	}, os.Stdout)
	if err != nil {
		fatal(err)
	}
	printReport(rep, os.Stdout)
	// Second-to-last line: the full report, for -workload all to collect.
	// Last line: the driver's contract.
	if err := printJSONLine("report ", rep); err != nil {
		fatal(err)
	}
	if err := printJSONLine("", rep.contract()); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: %d of %d operations failed: %s\n", rep.Failed, rep.Attempted, rep.FirstErr)
		os.Exit(1)
	}
}

func printJSONLine(prefix string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s%s\n", prefix, data)
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}
