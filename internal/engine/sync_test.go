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
// the stable depth of 30. With locator sync they reorg 21 and 28 blocks
// deep, inside it, and neither violates. Seed 16 is the engine-level
// exerciser of the executor's re-execution fallback: a fork whose deltas
// were dropped while it looked dead comes back, and 10 of its states are
// replayed. Seed 20 keeps one AC2T graded stuck after it settled at the
// tip (ROADMAP item 1's fixture). Since settle calls are signed once and
// kept alive, fewer transactions exist, so every world's blocks differ:
// seed 15's lossy-row AC2T no longer grades stuck, and seed 20, which
// replayed 16 states, replays none. Seed 10's race row violated: a
// witness reorg deeper than d flipped the refund decision after edge 1
// was refunded, and edge 0's recipient redeemed on the flip. An AC3WN
// participant now has no secret for a decision an edge already went
// against, so the AC2T is graded stuck, not violated.
func TestSmallHostileWorldsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed, replays            uint64
		stuck, violations, reorg int
	}{
		{seed: 4, stuck: 0, violations: 0, reorg: 21, replays: 0},
		{seed: 10, stuck: 1, violations: 0, reorg: 13, replays: 0},
		{seed: 15, stuck: 0, violations: 0, reorg: 28, replays: 0},
		{seed: 16, stuck: 0, violations: 0, reorg: 32, replays: 10},
		{seed: 20, stuck: 1, violations: 0, reorg: 30, replays: 0},
	} {
		agg := run(t, smallHostileWorld(t, tc.seed))
		if agg.Stuck != tc.stuck || agg.Violations != tc.violations || agg.MaxReorgDepth != tc.reorg || agg.StateReplays != tc.replays {
			t.Errorf("seed %d: %d stuck, %d violations, max reorg %d, %d state replays; want %d, %d, %d, %d",
				tc.seed, agg.Stuck, agg.Violations, agg.MaxReorgDepth, agg.StateReplays, tc.stuck, tc.violations, tc.reorg, tc.replays)
		}
	}
}
