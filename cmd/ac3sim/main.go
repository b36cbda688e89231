// Command ac3sim runs one configurable atomic cross-chain transaction
// end to end on freshly simulated blockchains and prints the
// protocol timeline and final outcome — a small laboratory for
// watching AC3WN (or the HTLC baseline) work, including under crash
// failures.
//
// Usage:
//
//	ac3sim [-protocol ac3wn|ac3tw|htlc] [-parties N] [-seed N]
//	       [-crash] [-recover]
//
// -crash takes down the protocol's critical failure point as it pushes
// the commit (the Section 1 hazard): the last participant for ac3wn and
// htlc, the trusted witness for ac3tw.
// -recover, which needs -crash, brings it back after three virtual
// hours. Watch the HTLC baseline lose assets, AC3TW block until its
// witness returns, and AC3WN recover.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/xchain"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: the timeline and outcome go to stdout,
// and the return value is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ac3sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	protocol := fs.String("protocol", "ac3wn", "protocol: ac3wn|ac3tw|htlc")
	parties := fs.Int("parties", 2, "number of participants (ring AC2T)")
	seed := fs.Uint64("seed", 7, "simulation seed")
	crash := fs.Bool("crash", false, "crash the protocol's critical failure point at the decision point")
	recoverVictim := fs.Bool("recover", false, "recover what -crash took down, three virtual hours in")
	if fs.Parse(args) != nil {
		return 2
	}
	if *parties < 2 {
		fmt.Fprintln(stderr, "need at least 2 parties")
		return 2
	}
	if *recoverVictim && !*crash {
		fmt.Fprintln(stderr, "-recover brings back what -crash took down; it needs -crash")
		return 2
	}

	ids := make([]chain.ID, *parties)
	for i := range ids {
		ids[i] = chain.ID(fmt.Sprintf("chain-%d", i))
	}
	sc := engine.ScenarioCommit
	if *crash {
		sc = engine.ScenarioCrash
	}
	var recoverAt sim.Time
	deadline := 3 * sim.Hour // every baseline timelock expires in here
	if *recoverVictim {
		recoverAt = deadline
		deadline += sim.Hour
	}
	lab, err := engine.RunOne(*seed, engine.Ring(int64(*seed), *parties, ids), engine.Protocol(*protocol), engine.AC2T{
		Witness:      "witness",
		Depth:        3,
		TrentSeed:    *seed + 1,
		TrentLatency: 100 * sim.Millisecond,
	}, sc, recoverAt, deadline)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "AC2T: %s over %d chains, protocol %s\n\n", lab.Graph, *parties, *protocol)
	if lab.Crashed != "" {
		fmt.Fprintf(stdout, "--- crashing %s ---\n", lab.Crashed)
	}
	if lab.RecoveredAt > 0 {
		fmt.Fprintf(stdout, "--- recovering %s after hours of downtime ---\n", lab.Crashed)
	}
	for _, ev := range lab.Runner.Events() {
		fmt.Fprintf(stdout, "t=%8.1fs  %s\n", float64(ev.At)/1000, label(ev.Label, ev.Edge))
	}
	report(stdout, lab.Outcome)
	return 0
}

func label(s string, edge int) string {
	if edge >= 0 {
		return fmt.Sprintf("[edge %d] %s", edge, s)
	}
	return s
}

func report(w io.Writer, out *xchain.Outcome) {
	fmt.Fprintln(w)
	fmt.Fprintf(w, "outcome: committed=%v aborted=%v ATOMICITY-VIOLATED=%v\n",
		out.Committed(), out.Aborted(), out.AtomicityViolated())
	for i, e := range out.Edges {
		fmt.Fprintf(w, "  edge %d (%d on %s): deployed=%v state=%s\n",
			i, e.Edge.Asset, e.Edge.Chain, e.Deployed, e.State)
	}
	fmt.Fprintf(w, "latency: %.1f virtual minutes, %d deploys + %d calls on-chain\n",
		float64(out.Latency())/60000, out.Deploys, out.Calls)
}
