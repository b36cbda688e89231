package engine

import "testing"

// smallHostileWorld is `ac3engine -shards 1 -txs 60 -workload hostile
// -seed seed -workers 1`.
func smallHostileWorld(t *testing.T, seed uint64) Config {
	return Config{Seed: seed, Shards: 1, Workers: 1, Workload: named(t, "hostile", 60)}
}

// TestSmallHostileWorldsPinned pins the two smallest worlds that broke
// atomicity while a node caught up one parent per round trip (ADR-022):
// at -shards 1 -txs 60 on the hostile mix, seed 4 violated in its race
// row at reorg depth 39 and seed 15 in its crash row at 87, both past
// the stable depth of 30. With locator sync they reorg inside it, and
// neither violates. Seed 3 graded a commit-row AC2T stuck after it
// settled at the tip while the shard graded 20 s after the tip settle;
// graded at burial depth d it has none (TestDroppedSettleCallIsRelanded
// reads its re-landed redeem). Seed 278 is the engine-level exerciser
// of the executor's re-execution fallback: a fork whose deltas were
// dropped while it looked dead comes back, and 7 of its states are
// replayed (seed 20 was, before grading waited for burial; of seeds
// 1–500, 232, 278, 280, 292, 364 and 455 replay states now). Seed 32's
// race row is the refusal's fixture (seed 186's before): a witness
// reorg deeper than d flips the decision after an edge went the other
// way, and an AC3WN participant has no secret for a decision an edge
// already went against, so the AC2T is graded stuck, not violated.
func TestSmallHostileWorldsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed, replays            uint64
		stuck, violations, reorg int
	}{
		{seed: 3, stuck: 0, violations: 0, reorg: 25, replays: 0},
		{seed: 4, stuck: 0, violations: 0, reorg: 18, replays: 0},
		{seed: 15, stuck: 0, violations: 0, reorg: 28, replays: 0},
		{seed: 32, stuck: 1, violations: 0, reorg: 18, replays: 0},
		{seed: 278, stuck: 0, violations: 0, reorg: 20, replays: 7},
	} {
		agg := run(t, smallHostileWorld(t, tc.seed))
		if agg.Stuck != tc.stuck || agg.Violations != tc.violations || agg.MaxReorgDepth != tc.reorg || agg.StateReplays != tc.replays {
			t.Errorf("seed %d: %d stuck, %d violations, max reorg %d, %d state replays; want %d, %d, %d, %d",
				tc.seed, agg.Stuck, agg.Violations, agg.MaxReorgDepth, agg.StateReplays, tc.stuck, tc.violations, tc.reorg, tc.replays)
		}
	}
}
