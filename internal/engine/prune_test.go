package engine

import (
	"encoding/json"
	"testing"
)

// stripGC zeroes the executor-GC observability fields — the only
// aggregate fields allowed to differ between a pruning and a
// non-pruning run (they count GC work, not protocol outcomes).
func stripGC(a *Aggregate) {
	a.StatesPruned, a.StatesLive, a.StateReplays, a.BlocksRetired = 0, 0, 0, 0
	for i := range a.PerShard {
		r := &a.PerShard[i]
		r.StatesPruned, r.StatesLive, r.StateReplays, r.BlocksRetired = 0, 0, 0, 0
	}
}

// TestPruningInvisibleInAggregates pins the tentpole's correctness
// contract at the engine layer: executor state pruning and history
// retirement must be invisible in every protocol outcome. The same
// seeded workload runs with GC disabled (PruneDepth -1) and at the
// engine default, and the aggregates — outcome counts, latency
// percentiles, phase attribution, per-shard results — must be
// byte-identical once the four GC work counters are zeroed. The second
// workload is the small hostile world whose GC re-executes blocks
// (TestSmallHostileWorldsPinned), so the replayed states are held to
// the same contract.
func TestPruningInvisibleInAggregates(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 42, Shards: 4, Workload: testWorkload(24)},
		smallHostileWorld(t, 20),
	} {
		cfg.PruneDepth = -1 // disabled: every state and block retained
		full := run(t, cfg)
		cfg.PruneDepth = 0 // engine default horizon + retirement
		pruned := run(t, cfg)

		if pruned.StatesPruned == 0 {
			t.Fatalf("seed %d: default config pruned nothing; the comparison proves nothing", cfg.Seed)
		}
		if full.StatesPruned != 0 || full.StateReplays != 0 || full.BlocksRetired != 0 {
			t.Fatalf("seed %d: disabled GC still did GC work: %d pruned, %d replays, %d retired",
				cfg.Seed, full.StatesPruned, full.StateReplays, full.BlocksRetired)
		}

		stripGC(full)
		stripGC(pruned)
		fj, err := json.Marshal(full)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := json.Marshal(pruned)
		if err != nil {
			t.Fatal(err)
		}
		if string(fj) != string(pj) {
			t.Fatalf("seed %d: pruning changed protocol outcomes:\n%s\n----\n%s", cfg.Seed, fj, pj)
		}
	}
}
