// Command pcbench regenerates the paper's tables and figures.
//
// Usage:
//
//	pcbench [flags] <experiment>...
//	pcbench [flags] all
//
// Experiments: table1 table2 table3 table4 fig1-fig7 fig13-fig18
// (see DESIGN.md §3 for the experiment index).
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/predcache/predcache/internal/bench"
)

func main() {
	cfg := bench.DefaultConfig()
	fast := flag.Bool("fast", false, "run at the small test scale")
	flag.Float64Var(&cfg.TpchSF, "tpch-sf", cfg.TpchSF, "TPC-H scale factor")
	flag.Float64Var(&cfg.SSBSF, "ssb-sf", cfg.SSBSF, "SSB scale factor")
	flag.Float64Var(&cfg.TpcdsSF, "tpcds-sf", cfg.TpcdsSF, "TPC-DS scale factor")
	flag.IntVar(&cfg.Slices, "slices", cfg.Slices, "data slices per table")
	flag.IntVar(&cfg.Reps, "reps", cfg.Reps, "timing repetitions per query")
	flag.IntVar(&cfg.FleetSize, "clusters", cfg.FleetSize, "simulated fleet size")
	flag.IntVar(&cfg.WorkloadAQueries, "wa-queries", cfg.WorkloadAQueries, "workload A stream length")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	flag.IntVar(&cfg.MaxWorkers, "workers", cfg.MaxWorkers, "max workers per query, scans included (0 = GOMAXPROCS)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pcbench [flags] <experiment>...|all\nexperiments: %v\nflags:\n", bench.Experiments())
		flag.PrintDefaults()
	}
	flag.Parse()
	if *fast {
		cfg = bench.FastConfig()
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	runner := bench.NewRunner(cfg, os.Stdout)
	for _, id := range args {
		var err error
		if id == "all" {
			err = runner.All()
		} else {
			err = runner.Run(id)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pcbench: %v\n", err)
			os.Exit(1)
		}
	}
}
