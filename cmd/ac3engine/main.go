// Command ac3engine runs a high-throughput AC2T workload on the
// sharded orchestration engine and prints machine-readable JSON
// aggregate results to stdout.
//
// Usage:
//
//	ac3engine [-shards N] [-txs N] [-seed N] [-workers N]
//	          [-protocol ac3wn|ac3tw|htlc] [-timeout min]
//	          [-mix commit,abort,crash,race[,partition,lossy,geo]]
//	          [-batchwindow sec] [-progress] [-strict] [-execbudget N]
//	          [-prunedepth N] [-membudget MiB]
//	          [-trace file] [-tracechrome file]
//	          [-cpuprofile file] [-memprofile file]
//
// The rest of the workload (arrival rate, graph sizes, gossip loss) is
// engine.DefaultWorkload's; a sweep sets the field from Go. In-flight
// cap, chains per world, adversity windows, batching quorum and trace
// ring are constants of the engine.
//
// -trace writes the run's deterministic trace as NDJSON (one record
// per line, virtual timestamps + per-shard sequence numbers, byte-
// identical across worker counts); -tracechrome writes Chrome
// trace_event JSON loadable in chrome://tracing or https://ui.perfetto.dev
// (one process per shard, one track per transaction and per chain).
// Either flag enables recording into a per-shard ring buffer of 65536
// records (older records evict first, so memory stays flat at any
// -txs).
//
// -batchwindow enables witness-side decision batching (AC3WN only):
// instead of one witness-chain transaction per AC2T decision, each
// shard's witness quorum collects the decisions arriving within the
// window and publishes one merkle-committed, threshold-attested
// commit_batch transaction; asset contracts then unlock against
// membership proofs. Outcomes are unchanged — only the witness-chain
// traffic columns (witness_decision_txs, batches_published,
// witness_txs_per_commit, ...) move. The attestation quorum is 3 of 4.
//
// The -mix flag takes four weights (the classic scenario matrix) or
// seven, adding the network-adversity scenarios: partition splits the
// transaction's decision chain during its decision window and heals
// six minutes later, lossy drops each gossip message with probability
// 0.25 on every chain the AC2T touches, and geo skews
// the asset chains to intercontinental/WAN link classes so
// confirmation depths race. Adversity outcomes surface in the JSON
// aggregates as forks_observed, max_reorg_depth, and msgs_dropped.
//
// The run is deterministic: the same flags always produce
// byte-identical JSON aggregates, regardless of worker scheduling —
// partition windows ride the virtual clock and every loss draw comes
// from the per-shard forked RNGs, so adversity never breaks
// reproducibility.
// Wall-clock diagnostics go to stderr so stdout stays parseable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	shards := flag.Int("shards", 8, "number of independent simulation shards")
	txs := flag.Int("txs", 1000, "total AC2Ts across all shards")
	seed := flag.Uint64("seed", 42, "master seed (results are a pure function of it)")
	workers := flag.Int("workers", 0, "concurrent shard executors (0 = min(shards, GOMAXPROCS))")
	protocol := flag.String("protocol", "ac3wn", "protocol: ac3wn|ac3tw|htlc")
	timeout := flag.Float64("timeout", 45, "per-transaction grading deadline, virtual minutes")
	mix := flag.String("mix", "7,2,1,1", "scenario weights: commit,abort,crash,race[,partition,lossy,geo]")
	batchWindow := flag.Float64("batchwindow", 0, "witness decision-batching collection window, virtual seconds (0 = per-AC2T decisions; AC3WN only)")
	progress := flag.Bool("progress", false, "report live progress to stderr")
	strict := flag.Bool("strict", false, "exit non-zero unless every transaction settled (graded, none stuck) with zero atomicity violations")
	execBudget := flag.Float64("execbudget", 0, "max blocks executed per settled AC2T (0 = unchecked); guards the shared-executor N-times-to-once win")
	pruneDepth := flag.Int("prunedepth", 0, "executor state-GC horizon in blocks (0 = engine default, negative = retain every state)")
	memBudget := flag.Float64("membudget", 0, "max peak process memory in MiB via runtime sampling (0 = unchecked); guards the flat-memory-in-tx-count invariant")
	traceOut := flag.String("trace", "", "write the deterministic trace as NDJSON to this file")
	traceChrome := flag.String("tracechrome", "", "write the trace as Chrome trace_event JSON (Perfetto-loadable) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file after the run")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// Stopped explicitly after the run: the exit paths below use
		// os.Exit, which would skip a deferred stop.
	}

	wl := engine.DefaultWorkload()
	wl.Protocol = engine.Protocol(*protocol)
	wl.Txs = *txs
	wl.TxTimeout = sim.Time(*timeout * float64(sim.Minute))
	wl.BatchWindow = sim.Time(*batchWindow * float64(sim.Second))

	var err error
	if wl.Mix, err = engine.ParseMix(*mix); err != nil {
		fatal(err)
	}

	eng, err := engine.New(engine.Config{
		Seed:       *seed,
		Shards:     *shards,
		Workers:    *workers,
		Workload:   wl,
		PruneDepth: *pruneDepth,
		Trace:      *traceOut != "" || *traceChrome != "",
	})
	if err != nil {
		fatal(err)
	}

	stop := make(chan struct{})
	if *progress {
		go func() {
			t := time.NewTicker(time.Second)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					g, total := eng.Progress()
					fmt.Fprintf(os.Stderr, "graded %d/%d\n", g, total)
				}
			}
		}()
	}

	mem := startMemSampler()
	start := time.Now()
	agg, err := eng.Run()
	wall := time.Since(start)
	mem.Stop()
	close(stop)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fatal(ferr)
		}
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fatal(werr)
		}
		f.Close()
	}
	if err != nil {
		fatal(err)
	}

	out, err := json.MarshalIndent(agg, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if *traceOut != "" {
		if err := writeTrace(*traceOut, agg, trace.WriteNDJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "trace: %d records (%d evicted) -> %s\n",
			len(agg.Trace.Records), agg.Trace.Dropped, *traceOut)
	}
	if *traceChrome != "" {
		if err := writeTrace(*traceChrome, agg, trace.WriteChrome); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chrome trace -> %s (open in chrome://tracing or ui.perfetto.dev)\n", *traceChrome)
	}
	fmt.Fprintf(os.Stderr, "wall: %s (%.1f tx/s real time), virtual makespan: %s, %.1f sim events/tx, %.1f drives per graded AC2T (%d wake-ups skipped)\n",
		wall.Round(time.Millisecond),
		float64(agg.Graded)/wall.Seconds(),
		(time.Duration(agg.MakespanVirtualMs) * time.Millisecond).Round(time.Second),
		agg.SimEventsPerTx,
		float64(agg.Drives)/float64(max(agg.Graded, 1)), agg.WakeupsSkipped)
	work := agg.Work
	fmt.Fprintf(os.Stderr, "blocks: %d mined, %d executed (%.1f per settled AC2T), exec cache hit rate %.1f%%, %d of %d candidate applications rejected, %d parked offers skipped (%d parked at most), %d signatures (%d graph multisig, %d deploy, %d call)\n",
		agg.BlocksMined, agg.BlocksExecuted, agg.BlocksExecutedPerTx, 100*agg.ExecHitRate,
		work.Rejected, work.Candidates, work.ParkedSkips, work.ParkedHigh,
		work.GraphSigs+work.DeploySigs+work.CallSigs,
		work.GraphSigs, work.DeploySigs, work.CallSigs)
	fmt.Fprintf(os.Stderr, "adversity: %d forks observed, max reorg depth %d, %d msgs dropped, %d sync requests sent (%d retries), %d answered with %d blocks, orphan buffer high-water %d (%d evicted), mempool high-water %d\n",
		agg.ForksObserved, agg.MaxReorgDepth, agg.MsgsDropped,
		work.SyncSent, work.SyncRetries, work.SyncAnswered, work.BlocksServed,
		work.OrphansHigh, work.OrphansEvicted, work.MempoolHigh)
	fmt.Fprintf(os.Stderr, "sigcheck: %d ahead of need, %d inline, %d never read (transactions); %d ahead, %d inline (graph); %d ready, %d inline (multisig); %d waited, %d checkers\n",
		work.SigAhead, work.SigInline, work.DeploySigs+work.CallSigs-work.SigAhead-work.SigInline,
		work.GraphAhead, work.GraphInline, work.MultisigReady, work.MultisigInline, work.SigWaited, work.SigCheckers)
	if wl.Protocol == engine.ProtoAC3WN {
		fmt.Fprintf(os.Stderr, "witness: %d per-AC2T decision txs, %d batches (%d decisions, %d republishes), %.3f txs / %.1f bytes per committed AC2T\n",
			agg.WitnessDecisionTxs, agg.BatchesPublished, agg.BatchDecisions,
			agg.BatchRepublishes, agg.WitnessTxsPerCommit, agg.WitnessBytesPerCommit)
	}
	// Memory numbers are machine/GC-schedule dependent, so they live
	// here on stderr with the other wall-clock diagnostics — never in
	// the byte-compared JSON aggregates above.
	graded := float64(max(agg.Graded, 1))
	fmt.Fprintf(os.Stderr, "memory: peak heap %.1f MiB, peak sys %.1f MiB, %.0f allocs per graded AC2T, %.1f KiB allocated per graded AC2T, states: %d pruned, %d live, %d replayed, %d blocks retired\n",
		float64(mem.PeakHeapBytes)/(1<<20), float64(mem.PeakSysBytes)/(1<<20),
		float64(mem.Mallocs)/graded, float64(mem.AllocBytes)/graded/(1<<10),
		agg.StatesPruned, agg.StatesLive, agg.StateReplays, agg.BlocksRetired)
	// Violations always fail AC3WN runs (the protocol's core claim);
	// for the baselines they only fail under -strict, since producing
	// them is often the point of the experiment.
	if agg.Violations > 0 && (*strict || wl.Protocol == engine.ProtoAC3WN) {
		fmt.Fprintf(os.Stderr, "ATOMICITY VIOLATIONS: %d\n", agg.Violations)
		os.Exit(1)
	}
	if *strict {
		switch {
		case agg.Graded != wl.Txs:
			fmt.Fprintf(os.Stderr, "STRICT: graded %d/%d transactions\n", agg.Graded, wl.Txs)
			os.Exit(1)
		case agg.Stuck != 0:
			fmt.Fprintf(os.Stderr, "STRICT: %d transactions failed to settle\n", agg.Stuck)
			os.Exit(1)
		}
	}
	if *execBudget > 0 && agg.BlocksExecutedPerTx > *execBudget {
		fmt.Fprintf(os.Stderr, "EXEC BUDGET: %.2f blocks executed per settled AC2T exceeds budget %.2f\n",
			agg.BlocksExecutedPerTx, *execBudget)
		os.Exit(1)
	}
	if *memBudget > 0 && float64(mem.PeakSysBytes)/(1<<20) > *memBudget {
		fmt.Fprintf(os.Stderr, "MEM BUDGET: peak sys %.1f MiB exceeds budget %.1f MiB\n",
			float64(mem.PeakSysBytes)/(1<<20), *memBudget)
		os.Exit(1)
	}
}

// writeTrace exports the run's trace through the given writer.
func writeTrace(path string, agg *engine.Aggregate, write func(io.Writer, *trace.Trace) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, agg.Trace); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
