package engine

import (
	"encoding/json"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// batchedWorkload is testWorkload with witness-side decision batching
// on: a 2-minute collection window against 15s arrivals guarantees
// concurrent decisions share batches.
func batchedWorkload(txs int) Workload {
	wl := testWorkload(txs)
	wl.BatchWindow = 2 * sim.Minute
	return wl
}

// outcomesOnly strips an aggregate down to its outcome accounting:
// protocol identity, commit/abort/stuck/violation counts, and the
// scenario table. Everything timing- or cost-shaped is zeroed —
// batching legitimately moves time (decisions wait out the collection
// window) and cost (per-AC2T decision calls disappear, and a slower
// abort decision lets lagging participants finish deploying first), so
// the invisibility claim is about *outcomes*: every AC2T settles the
// same way with batching on as off.
func outcomesOnly(a *Aggregate) *Aggregate {
	c := *a
	c.LatencyMs = metrics.HistSnapshot{}
	c.LatencyP50Ms, c.LatencyP95Ms, c.LatencyP99Ms, c.LatencyP999Ms = 0, 0, 0, 0
	c.PhaseLatency = nil
	c.MakespanVirtualMs = 0
	c.ThroughputTPSVirtual = 0
	c.SimEvents, c.SimEventsPerTx = 0, 0
	c.BlocksMined, c.BlocksExecuted, c.BlockExecHits = 0, 0, 0
	c.ExecHitRate, c.BlocksExecutedPerTx = 0, 0
	c.StatesPruned, c.StatesLive, c.StateReplays, c.BlocksRetired = 0, 0, 0, 0
	c.ForksObserved, c.MaxReorgDepth, c.MsgsDropped = 0, 0, 0
	c.Deploys, c.Calls = 0, 0
	c.WitnessDecisionTxs, c.WitnessDecisionBytes = 0, 0
	c.BatchesPublished, c.BatchDecisions, c.BatchRepublishes, c.BatchBytesPublished = 0, 0, 0, 0
	c.WitnessTxsPerCommit, c.WitnessBytesPerCommit = 0, 0
	c.PerShard = nil
	c.Trace = nil
	return &c
}

// TestBatchingSmoke runs the mixed scenario matrix with batching on
// and checks the batched decision path end to end: everything settles
// with zero violations, no per-AC2T decision transactions reach the
// witness chain, every decision rides a published batch, and batches
// actually amortize (fewer commit_batch transactions than decisions).
func TestBatchingSmoke(t *testing.T) {
	agg := run(t, Config{Seed: 5, Shards: 2, Workload: batchedWorkload(16)})
	if agg.Graded != 16 {
		t.Fatalf("graded %d/16", agg.Graded)
	}
	if agg.Violations != 0 || agg.Stuck != 0 {
		t.Fatalf("batched run: %d violations, %d stuck", agg.Violations, agg.Stuck)
	}
	if agg.WitnessDecisionTxs != 0 || agg.WitnessDecisionBytes != 0 {
		t.Fatalf("batched mode posted %d per-AC2T decision txs (%d bytes) — batching leaked",
			agg.WitnessDecisionTxs, agg.WitnessDecisionBytes)
	}
	if agg.BatchesPublished == 0 || agg.BatchBytesPublished == 0 {
		t.Fatalf("no batches published: %+v", agg)
	}
	// Every AC2T contributes exactly one decision (RD or RF; the race
	// scenario's conflicting submission is dropped first-wins).
	if agg.BatchDecisions != agg.Graded {
		t.Fatalf("batches carried %d decisions, want %d (one per AC2T)",
			agg.BatchDecisions, agg.Graded)
	}
	if agg.BatchesPublished >= agg.BatchDecisions {
		t.Fatalf("%d batches for %d decisions: batching never amortized",
			agg.BatchesPublished, agg.BatchDecisions)
	}
	if agg.WitnessTxsPerCommit <= 0 || agg.WitnessTxsPerCommit >= 1 {
		t.Fatalf("witness txs per commit = %g, want in (0,1) with batching on",
			agg.WitnessTxsPerCommit)
	}
}

// TestBatchingDeterminism extends the byte-identical guarantee to the
// batched regime: the coordinator lives on the shard's virtual clock
// and seeds its quorum from the shard seed, so worker scheduling still
// cannot leak into the aggregates.
func TestBatchingDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Shards: 4, Workload: batchedWorkload(24)}
	a := run(t, cfg)
	cfg.Workers = 1
	b := run(t, cfg)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("batched aggregates differ across worker counts:\n%s\n----\n%s", aj, bj)
	}
	if a.BatchesPublished == 0 || a.BatchDecisions == 0 {
		t.Fatalf("batch counters empty: %+v", a)
	}
}

// TestBatchingOutcomeInvisibility is the A/B contract: the same seed
// and workload settle every AC2T identically whether decisions ride
// per-AC2T SCw transactions or merkle-committed batches. Outcome
// accounting (commits/aborts/stuck/violations, per-scenario) must be
// byte-identical; the witness-traffic counters must flip from the
// per-AC2T column to the batch column.
func TestBatchingOutcomeInvisibility(t *testing.T) {
	off := run(t, Config{Seed: 42, Shards: 4, Workload: testWorkload(24)})
	on := run(t, Config{Seed: 42, Shards: 4, Workload: batchedWorkload(24)})

	oj, _ := json.Marshal(outcomesOnly(off))
	nj, _ := json.Marshal(outcomesOnly(on))
	if string(oj) != string(nj) {
		t.Fatalf("outcomes differ with batching on vs off:\n%s\n----\n%s", oj, nj)
	}
	// Traffic moved columns: unbatched pays ~one decision tx per AC2T,
	// batched pays none per-AC2T and amortizes via commit_batch.
	if off.WitnessDecisionTxs == 0 || off.BatchesPublished != 0 {
		t.Fatalf("unbatched traffic accounting wrong: %d decision txs, %d batches",
			off.WitnessDecisionTxs, off.BatchesPublished)
	}
	if on.WitnessDecisionTxs != 0 || on.BatchesPublished == 0 {
		t.Fatalf("batched traffic accounting wrong: %d decision txs, %d batches",
			on.WitnessDecisionTxs, on.BatchesPublished)
	}
	if off.WitnessTxsPerCommit < 1 {
		t.Fatalf("unbatched witness txs per commit = %g, want >= 1", off.WitnessTxsPerCommit)
	}
	if on.WitnessTxsPerCommit*2 >= off.WitnessTxsPerCommit {
		t.Fatalf("batching saved too little: %g -> %g witness txs per commit",
			off.WitnessTxsPerCommit, on.WitnessTxsPerCommit)
	}
}

// TestBatchingConfigValidation exercises the batching knobs' rejection
// paths.
func TestBatchingConfigValidation(t *testing.T) {
	var bad []Config
	wl1 := DefaultWorkload()
	wl1.BatchWindow = -sim.Second
	bad = append(bad, Config{Seed: 1, Shards: 1, Workload: wl1})
	wl2 := DefaultWorkload()
	wl2.Protocol = ProtoHTLC
	wl2.Mix = Mix{Commit: 1}
	wl2.BatchWindow = sim.Minute
	bad = append(bad, Config{Seed: 1, Shards: 1, Workload: wl2}) // batching is AC3WN-only
	wl3 := DefaultWorkload()
	wl3.BatchWindow = wl3.TxTimeout // window swallows the grading deadline
	bad = append(bad, Config{Seed: 1, Shards: 1, Workload: wl3})
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}
