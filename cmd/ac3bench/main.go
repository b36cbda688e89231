// Command ac3bench regenerates every table and figure of the paper's
// evaluation from the real protocol implementations running on the
// simulated blockchain networks.
//
// Usage:
//
//	ac3bench [-seed N] [-experiment id]
//
// The experiment ids are bench.Experiments' (`ac3bench -h` lists them);
// the default, all, runs the table in paper order.
//
// Performance is measured by the repository's benchmark (benchmark/,
// BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
)

func main() {
	ids := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		ids[i] = e.ID
	}
	seed := flag.Uint64("seed", 42, "simulation seed (runs are deterministic per seed)")
	experiment := flag.String("experiment", "all", "which experiment to run: "+strings.Join(ids, "|")+"|all")
	flag.Parse()

	ran, failed := false, false
	for _, e := range bench.Experiments {
		if *experiment != "all" && *experiment != e.ID {
			continue
		}
		r := e.Result(*seed)
		fmt.Println(r)
		fmt.Println()
		ran = true
		failed = failed || !r.OK
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
	if failed {
		fmt.Fprintln(os.Stderr, "some experiments failed their sanity assertions")
		os.Exit(1)
	}
}
