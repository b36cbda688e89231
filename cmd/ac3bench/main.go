// Command ac3bench regenerates every table and figure of the paper's
// evaluation from the real protocol implementations running on the
// simulated blockchain networks.
//
// Usage:
//
//	ac3bench [-seed N] [-experiment id] [-diam N] [-runs N]
//
// Experiment ids: fig8, fig9, fig10, cost, witness, table1,
// atomicity, complex, scale, engine, all (default).
//
// Performance is measured by the repository's benchmark (benchmark/,
// BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	seed := flag.Uint64("seed", 42, "simulation seed (runs are deterministic per seed)")
	experiment := flag.String("experiment", "all", "which experiment to run: fig8|fig9|fig10|cost|witness|table1|atomicity|complex|scale|engine|all")
	maxDiam := flag.Int("diam", 8, "maximum graph diameter for the fig10 sweep")
	runs := flag.Int("runs", 5, "runs per scenario for the atomicity experiment")
	flag.Parse()

	var results []*bench.Result
	switch *experiment {
	case "fig8":
		results = append(results, bench.Fig8(*seed))
	case "fig9":
		results = append(results, bench.Fig9(*seed))
	case "fig10":
		results = append(results, bench.Fig10(*seed, *maxDiam))
	case "cost":
		results = append(results, bench.Cost(*seed))
	case "witness":
		results = append(results, bench.WitnessChoice(*seed))
	case "table1":
		results = append(results, bench.Table1(*seed))
	case "atomicity":
		results = append(results, bench.Atomicity(*seed, *runs))
	case "complex":
		results = append(results, bench.Complex(*seed))
	case "scale":
		results = append(results, bench.Scale(*seed))
	case "engine":
		results = append(results, bench.EngineLoad(*seed))
	case "all":
		results = bench.All(*seed)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}

	failed := false
	for _, r := range results {
		fmt.Println(r)
		fmt.Println()
		if !r.OK {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "some experiments failed their sanity assertions")
		os.Exit(1)
	}
}
