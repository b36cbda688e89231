package bench

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// engineLoad measures AC2T throughput under sustained concurrent load
// — the workload regime the single-transaction experiments of Section
// 6 cannot reach. A mixed stream (commits, declines, crash-recovery,
// decision races) runs on the sharded orchestration engine at 1, 2
// and 4 shards with the same per-shard offered load; because shards
// are independent worlds executing in parallel, aggregate virtual
// throughput must scale near-linearly while atomicity violations stay
// at zero — the Section 5.2 horizontal-scalability argument measured
// under heavy traffic instead of a 24-swap batch.
func engineLoad(seed uint64) (string, bool, error) {
	const perShardTxs = 20
	t := metrics.NewTable("Engine — AC2T throughput under sustained mixed load (AC3WN)",
		"shards", "AC2Ts", "committed", "aborted", "stuck", "violations",
		"p50 latency (min)", "makespan (min)", "throughput (AC2T/hour)", "events/AC2T", "blocks-exec/AC2T",
		"states-pruned")
	ok := true
	var tps1 float64
	for _, shards := range []int{1, 2, 4} {
		txs := perShardTxs * shards
		agg, row, err := loadRow(seed, shards, "hazard", engine.ProtoAC3WN, txs, shards)
		if err != nil {
			return "", false, err
		}
		t.AddRow(append(row,
			fmt.Sprintf("%.1f", float64(agg.LatencyP50Ms)/float64(sim.Minute)),
			fmt.Sprintf("%.1f", float64(agg.MakespanVirtualMs)/float64(sim.Minute)),
			fmt.Sprintf("%.0f", agg.ThroughputTPSVirtual*3600),
			fmt.Sprintf("%.0f", agg.SimEventsPerTx),
			fmt.Sprintf("%.1f", agg.BlocksExecutedPerTx),
			agg.StatesPruned)...)
		// The claims under test: everything settles, atomicity holds
		// under every scenario, and shards add throughput.
		if agg.Graded != txs || agg.Stuck != 0 || agg.Violations != 0 {
			ok = false
		}
		if shards == 1 {
			tps1 = agg.ThroughputTPSVirtual
		}
		if shards == 4 && agg.ThroughputTPSVirtual < 2.5*tps1 {
			ok = false // parallel worlds must scale well past 2x
		}
	}
	t.Note("mixed scenario stream: commits, declines, crash-recovery victims, adversarial decision races")
	t.Note("per-shard offered load held constant; shards are independent worlds, so throughput adds")
	t.Note("events/AC2T: simulator events per settled transaction — the notification bus's cost metric")
	t.Note("blocks-exec/AC2T: ApplyBlock runs per settled transaction — the shared executor's cost metric (≈ blocks mined, not N× for N-node networks)")

	out := t.String()
	for _, table := range []func(uint64) (string, bool, error){hazardTable, adversityTable, witnessTable} {
		s, tableOK, err := table(seed)
		if err != nil {
			return "", false, err
		}
		out += "\n" + s
		ok = ok && tableOK
	}
	return out, ok, nil
}

// loadRow runs txs AC2Ts of the named workload under proto on the
// engine and opens a table row with label and the outcome columns every
// engine table shares; the caller appends its own.
func loadRow(seed uint64, shards int, name string, proto engine.Protocol, txs int, label any) (*engine.Aggregate, []any, error) {
	wl, err := engine.Named(name)
	if err != nil {
		return nil, nil, err
	}
	wl.Protocol, wl.Txs = proto, txs
	e, err := engine.New(engine.Config{Seed: seed, Shards: shards, Workload: wl})
	if err != nil {
		return nil, nil, err
	}
	agg, err := e.Run()
	if err != nil {
		return nil, nil, err
	}
	return agg, []any{label, agg.Graded, agg.Commits, agg.Aborts, agg.Stuck, agg.Violations}, nil
}

// witnessTable is the decision-batching before/after: the identical
// 1,000-AC2T default workload on 8 shards, once with per-AC2T SCw
// decision transactions (the paper's Algorithm 2/3 as written) and
// once with the witness quorum collecting decisions for a 3-minute
// window and publishing one merkle-committed, threshold-attested
// commit_batch transaction per window. Outcomes must not move —
// identical commit/abort counts, nothing stuck, zero violations —
// while witness-chain traffic per committed AC2T collapses: batching
// must cut witness transactions per commit at least 4× and bytes per
// commit measurably. This is the perf claim of record; CI gates on the
// same numbers via ac3engine -workload batched.
func witnessTable(seed uint64) (string, bool, error) {
	const txs = 1000
	t := metrics.NewTable("Engine — witness-chain decision batching: per-AC2T decisions vs one commit_batch per window (1,000 AC2Ts, 8 shards)",
		"batching", "AC2Ts", "committed", "aborted", "stuck", "violations",
		"witness decision txs", "batches", "republishes",
		"witness txs/commit", "witness bytes/commit")
	ok := true
	var aggs [2]*engine.Aggregate
	for i, mode := range []struct{ label, workload string }{
		{"off (per-AC2T)", "default"}, {"on (3 min window)", "batched"},
	} {
		agg, row, err := loadRow(seed, 8, mode.workload, engine.ProtoAC3WN, txs, mode.label)
		if err != nil {
			return "", false, err
		}
		aggs[i] = agg
		t.AddRow(append(row,
			agg.WitnessDecisionTxs, agg.BatchesPublished, agg.BatchRepublishes,
			fmt.Sprintf("%.3f", agg.WitnessTxsPerCommit),
			fmt.Sprintf("%.1f", agg.WitnessBytesPerCommit))...)
		if agg.Graded != txs || agg.Stuck != 0 || agg.Violations != 0 {
			ok = false
		}
	}
	offAgg, onAgg := aggs[0], aggs[1]
	// Batching must be outcome-invisible: the same AC2Ts settle the
	// same way, only the witness-chain traffic shape changes.
	if onAgg.Commits != offAgg.Commits || onAgg.Aborts != offAgg.Aborts {
		ok = false
	}
	// Traffic actually moved columns: unbatched pays one decision tx
	// per AC2T and publishes no batches; batched pays none per-AC2T.
	if offAgg.WitnessDecisionTxs == 0 || offAgg.BatchesPublished != 0 {
		ok = false
	}
	if onAgg.WitnessDecisionTxs != 0 || onAgg.BatchesPublished == 0 {
		ok = false
	}
	// The headline: >= 4x fewer witness txs per committed AC2T, and
	// fewer bytes, with the batch column folded into both ratios.
	if onAgg.WitnessTxsPerCommit*4 > offAgg.WitnessTxsPerCommit {
		ok = false
	}
	if onAgg.WitnessBytesPerCommit >= offAgg.WitnessBytesPerCommit {
		ok = false
	}
	drop := 0.0
	if onAgg.WitnessTxsPerCommit > 0 {
		drop = offAgg.WitnessTxsPerCommit / onAgg.WitnessTxsPerCommit
	}
	t.Note("witness txs per committed AC2T drop: %.1fx (gate: >= 4x); commit/abort counts identical across modes", drop)
	t.Note("witness txs/commit = (per-AC2T decision txs + commit_batch txs) / commits; bytes/commit is the byte analog")
	t.Note("batched decisions settle via merkle membership proofs against the committed root — per-AC2T work leaves the witness chain")
	t.Note("republishes: batch commitments reorged off the canonical witness chain and re-multicast before StableDepth")
	return t.String(), ok, nil
}

// adversityTable runs an identical hostile-network workload —
// decision-window partitions, sustained gossip loss, geo-skewed links
// — against all three protocols and reports how each one's guarantees
// survive. This is the regime the paper's Section 1 motivates
// (Robinson 2020 and Wang et al. 2020 both show cross-chain results
// hinge on propagation delay and partition behavior): AC3WN must stay
// atomic through every adversity class, AC3TW stays atomic but slows
// (its blocking tendency as data), and HTLC's fixed timelocks lose
// assets when the network stops cooperating. The forks/reorg-depth/
// drops columns prove the runs actually left the friendly-network
// regime.
func adversityTable(seed uint64) (string, bool, error) {
	t := metrics.NewTable("Engine — network adversity: partitions, gossip loss, geo links (identical workload)",
		"protocol", "AC2Ts", "committed", "aborted", "stuck", "violations",
		"partition viol", "lossy viol", "geo viol", "forks", "max reorg depth", "msgs dropped")
	const txs = 40
	ok := true
	for _, proto := range []engine.Protocol{engine.ProtoAC3WN, engine.ProtoAC3TW, engine.ProtoHTLC} {
		agg, row, err := loadRow(seed+2, 2, "adversity", proto, txs, string(proto))
		if err != nil {
			return "", false, err
		}
		part := agg.ByScenario[engine.ScenarioPartition]
		lossy := agg.ByScenario[engine.ScenarioLossy]
		geo := agg.ByScenario[engine.ScenarioGeo]
		t.AddRow(append(row, part.Violations, lossy.Violations, geo.Violations,
			agg.ForksObserved, agg.MaxReorgDepth, agg.MsgsDropped)...)
		if agg.Graded != txs {
			ok = false
		}
		if agg.MsgsDropped == 0 || agg.ForksObserved == 0 {
			ok = false // the adversity never bit: the table proves nothing
		}
		switch proto {
		case engine.ProtoAC3WN, engine.ProtoAC3TW:
			if agg.Violations != 0 {
				ok = false // both witness schemes must stay atomic
			}
		case engine.ProtoHTLC:
			if agg.Violations == 0 {
				ok = false // fixed timelocks must lose assets under adversity
			}
		}
	}
	t.Note("identical mixed workload: commits, declines, decision-window partitions, sustained gossip loss, geo-skewed links")
	t.Note("partitions split one miner from the rest of a decision chain for 6 virtual minutes; loss drops 25%% of gossip; geo degrades asset chains to intercontinental links")
	t.Note("forks / max reorg depth / msgs dropped: proof the runs left the friendly-network regime")
	return t.String(), ok, nil
}

// hazardTable runs the identical mixed workload against all three
// protocols and reports each one's hazard profile — the Section 7
// comparison reproduced from one table. The crash scenario targets
// each protocol's critical failure point at decision time: AC3WN's
// victim participant resumes and redeems (no hazard), AC3TW's
// centralized witness stays down and the AC2T blocks (stuck), and
// HTLC's victim recovers after its timelocks expired (asset loss).
func hazardTable(seed uint64) (string, bool, error) {
	t := metrics.NewTable("Engine — per-protocol hazards under the identical crash+race mixed workload",
		"protocol", "AC2Ts", "committed", "aborted", "stuck", "violations",
		"crash stuck", "crash violations", "downgraded draws")
	const txs = 40
	ok := true
	for _, proto := range []engine.Protocol{engine.ProtoAC3WN, engine.ProtoAC3TW, engine.ProtoHTLC} {
		agg, row, err := loadRow(seed+1, 2, "hazard", proto, txs, string(proto))
		if err != nil {
			return "", false, err
		}
		crash := agg.ByScenario[engine.ScenarioCrash]
		t.AddRow(append(row, crash.Stuck, crash.Violations, agg.ScenariosDowngraded)...)
		// The paper's claims, checked hard per protocol.
		switch proto {
		case engine.ProtoAC3WN:
			if agg.Violations != 0 || agg.Stuck != 0 {
				ok = false // all-or-nothing and non-blocking, every scenario
			}
		case engine.ProtoAC3TW:
			if agg.Violations != 0 || crash.Stuck == 0 {
				ok = false // atomic, but must block under witness crash
			}
		case engine.ProtoHTLC:
			if crash.Violations == 0 {
				ok = false // the baseline must lose assets under crash
			}
		}
		if agg.Graded != txs {
			ok = false
		}
	}
	t.Note("crash stuck / crash violations: hazard counts within the crash scenario — AC3TW blocking and HTLC asset loss as data")
	t.Note("downgraded draws: scenario draws the protocol cannot express, run as commit (HTLC race only)")
	return t.String(), ok, nil
}
