// Command dsibench regenerates the paper's evaluation artifacts: every
// figure (Fig. 8-12), Table 1, the REAL-dataset comparisons, and
// ablations of the index's design parameters (frame sizing,
// reorganization factor m, index base r; see -list).
//
// Usage:
//
//	dsibench -list
//	dsibench -exp fig9 -queries 200
//	dsibench -exp all -queries 100 -verify
//
// Results are printed as aligned text tables, one row per X value and
// one column per series, with byte values in the units the paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dsi/internal/experiment"
	"dsi/internal/obs"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment to run (see -list) or 'all'")
		list     = flag.Bool("list", false, "list available experiments and exit")
		queries  = flag.Int("queries", 100, "queries averaged per data point")
		n        = flag.Int("n", 0, "dataset cardinality (0 = paper default)")
		order    = flag.Uint("order", 0, "Hilbert curve order (0 = paper default)")
		seed     = flag.Int64("seed", 1, "dataset and workload seed")
		verify   = flag.Bool("verify", true, "cross-check every query against brute force")
		csv      = flag.Bool("csv", false, "emit figures as CSV instead of text tables")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0),
			"worker bound for sharding data points and queries (results are identical at any value; 1 = sequential)")
		metrics = flag.String("metrics", "", "serve /metrics and /debug/pprof on this address (e.g. :9090; empty = off)")
	)
	flag.Parse()
	experiment.SetParallelism(*parallel)

	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		addr, err := obs.Serve(*metrics, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsibench: metrics listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("dsibench: serving /metrics and /debug/pprof on http://%s\n", addr)
	}

	if *list {
		fmt.Println("available experiments:")
		for _, name := range experiment.Names() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	params := experiment.Params{
		N:       *n,
		Order:   *order,
		Seed:    *seed,
		Queries: *queries,
		Verify:  *verify,
		Obs:     reg,
	}

	var names []string
	if *exp == "all" {
		names = experiment.Names()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := experiment.Registry[name]; !ok {
				fmt.Fprintf(os.Stderr, "dsibench: unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			names = append(names, name)
		}
	}

	for _, name := range names {
		start := time.Now()
		res := experiment.Registry[name](params)
		fmt.Printf("=== %s (queries/point=%d, seed=%d, workers=%d, %.1fs) ===\n\n",
			name, params.Queries, params.Seed, experiment.Parallelism(), time.Since(start).Seconds())
		if *csv {
			fmt.Print(res.CSV())
			for i := range res.Tables {
				fmt.Print(res.Tables[i].Format())
			}
		} else {
			fmt.Print(res.Format())
		}
	}
}
