package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"

	"repro/internal/engine"
)

// layerRepPairs is how many (untraced, profiled) repetition pairs the
// traced run makes. It is fixed — the traced run ignores -seconds: two
// untraced repetitions give the baseline the overheads are measured
// against, two profiled ones give the profile enough samples for
// shares of a few percent.
const layerRepPairs = 2

// runLayers is the traced run: aggregate counts [A] from untraced
// repetitions, an in-situ CPU profile [P], one repetition each with two
// workers and with the engine's own tracing on [H], and the layer
// replay [R]. It writes <out>/<workload>.layers.json and
// <out>/<workload>.spans.ndjson.
func runLayers(w workload, seed uint64, p plan, out string) (result, error) {
	spans := newSpanLog()
	root := spans.begin("workload:"+w.Name, 0)
	timed := func(name string, cfg engine.Config) (rep, error) {
		id := spans.begin(name, root)
		r, err := runRep(cfg)
		spans.end(id)
		if err == nil {
			logf("%s: %s: wall %.3fs", w.Name, name, r.WallNs/1e9)
		}
		return r, err
	}

	id := spans.begin("warmup", root)
	err := warmup(w, seed, p.warmupTxs)
	spans.end(id)
	if err != nil {
		return result{}, err
	}

	// Untraced and profiled repetitions alternate, so that drift in the
	// machine's speed over the run does not read as profiling overhead.
	cfg := w.config(seed, p.txs)
	var plain, profiled []rep
	var samples []stackSample
	for i := 0; i < layerRepPairs; i++ {
		r, err := timed("engine.run", cfg)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, r)

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, err
		}
		r, err = timed("engine.run profiled", cfg)
		pprof.StopCPUProfile()
		if err != nil {
			return result{}, err
		}
		profiled = append(profiled, r)
		s, err := readProfile(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s...)
	}
	plainWall := median(column(plain, func(r rep) float64 { return r.WallNs }))
	metrics, total := attribute(samples)
	logf("%s: profile: %d samples", w.Name, total)

	cfg2 := cfg
	cfg2.Workers = 2
	twoWorkers, err := timed("engine.run workers=2", cfg2)
	if err != nil {
		return result{}, err
	}
	cfgTrace := cfg
	cfgTrace.Trace = true
	traced, err := timed("engine.run trace=on", cfgTrace)
	if err != nil {
		return result{}, err
	}

	pct := func(wallNs float64) float64 { return 100 * (wallNs - plainWall) / plainWall }
	metrics["harness.rep_spread_pct"] = spreadPct(column(plain, func(r rep) float64 { return r.WallNs }))
	metrics["harness.profile_overhead_pct"] = pct(median(column(profiled, func(r rep) float64 { return r.WallNs })))
	metrics["engine.parallel_speedup_w2"] = plainWall / twoWorkers.WallNs
	metrics["trace.engine_overhead_pct"] = pct(traced.WallNs)
	graded := float64(plain[0].Agg.Graded)
	metrics["runtime.gc_cycles_per_kac2t"] = 1000 * median(column(plain, func(r rep) float64 { return r.GCCycles })) / graded
	metrics["runtime.gc_pause_ms"] = median(column(plain, func(r rep) float64 { return r.GCPauseNs })) / 1e6
	aggregateCounts(plain[0].Agg, metrics)

	correct := true
	// Neither profiling, the worker count nor tracing may change what
	// the simulator computes.
	all := slices.Concat(plain, profiled, []rep{twoWorkers, traced})
	if err := checkReps(all, p.txs); err != nil {
		logf("%s: HARD CHECK FAILED: %v", w.Name, err)
		correct = false
	}

	id = spans.begin("replay", root)
	err = replayLayers(w, seed, p.txs/w.Shards, spans, id, metrics)
	spans.end(id)
	if err != nil {
		logf("%s: HARD CHECK FAILED: layer replay: %v", w.Name, err)
		correct = false
	}
	spans.end(root)

	res := result{Correct: correct, Attempted: p.txs * len(all), Metrics: make(map[string]metricValue, len(perLayer))}
	for _, r := range all {
		res.Failed += p.txs - r.Agg.Graded
	}
	for _, d := range perLayer {
		v, ok := metrics[d.Name]
		if !ok && correct {
			return result{}, fmt.Errorf("%s: per-layer metric %s was not measured", w.Name, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit, Kind: d.Kind}
	}
	if err := writeLayerFiles(out, w.Name, res, spans); err != nil {
		return result{}, err
	}
	return res, nil
}

// aggregateCounts fills the [A] metrics: exact counts from the
// aggregate of an untraced repetition.
func aggregateCounts(a *engine.Aggregate, m map[string]float64) {
	per := func(n float64) float64 { return n / float64(a.Graded) }
	m["sim.events_per_ac2t"] = a.SimEventsPerTx
	m["chain.blocks_mined_per_ac2t"] = per(float64(a.BlocksMined))
	m["chain.blocks_executed_per_ac2t"] = a.BlocksExecutedPerTx
	m["chain.exec_cache_hit_rate"] = a.ExecHitRate
	m["chain.state_replays_per_ac2t"] = per(float64(a.StateReplays))
	m["chain.states_pruned_per_ac2t"] = per(float64(a.StatesPruned))
	m["chain.blocks_retired_per_ac2t"] = per(float64(a.BlocksRetired))
	m["chain.deploys_per_ac2t"] = per(float64(a.Deploys))
	m["chain.calls_per_ac2t"] = per(float64(a.Calls))
	m["p2p.msgs_dropped_per_ac2t"] = per(float64(a.MsgsDropped))
	m["miner.forks_per_ac2t"] = per(float64(a.ForksObserved))
	m["miner.max_reorg_depth"] = float64(a.MaxReorgDepth)
	m["core.witness_txs_per_commit"] = a.WitnessTxsPerCommit
	m["core.witness_bytes_per_commit"] = a.WitnessBytesPerCommit
	m["batch.batches_published"] = float64(a.BatchesPublished)
	m["batch.decisions_per_batch"] = float64(a.BatchDecisions) / float64(max(a.BatchesPublished, 1))
	m["batch.republishes"] = float64(a.BatchRepublishes)
	m["xchain.stuck"] = float64(a.Stuck)
	m["xchain.atomicity_violations"] = float64(a.Violations)
}

// writeLayerFiles writes the traced run's two artefacts.
func writeLayerFiles(dir, name string, res result, spans *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	enc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".layers.json"), append(enc, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".spans.ndjson"))
	if err != nil {
		return err
	}
	if err := spans.writeNDJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
