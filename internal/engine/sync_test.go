package engine

import "testing"

// smallHostileWorld is `ac3engine -shards 1 -txs 60 -mix 4,1,1,1,2,2,2
// -seed seed -workers 1`.
func smallHostileWorld(seed uint64) Config {
	wl := DefaultWorkload()
	wl.Txs = 60
	wl.Mix = Mix{Commit: 4, Abort: 1, Crash: 1, Race: 1, Partition: 2, Lossy: 2, Geo: 2}
	return Config{Seed: seed, Shards: 1, Workers: 1, Workload: wl}
}

// TestSmallHostileWorldsPinned pins the two smallest worlds that broke
// atomicity while a node caught up one parent per round trip (ADR-022):
// at -shards 1 -txs 60 on the hostile mix, seed 4 violated in its race
// row at reorg depth 39 and seed 15 in its crash row at 87, both past
// the stable depth of 30. With locator sync they reorg 21 and 28 blocks
// deep, inside it, and neither violates; seed 15 keeps one stuck AC2T in
// its lossy row. Seed 20 is the engine-level exerciser of the executor's
// re-execution fallback: a fork whose deltas were dropped while it
// looked dead comes back, and 16 of its states are replayed.
func TestSmallHostileWorldsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed, replays            uint64
		stuck, violations, reorg int
	}{
		{seed: 4, stuck: 0, violations: 0, reorg: 21, replays: 0},
		{seed: 15, stuck: 1, violations: 0, reorg: 28, replays: 0},
		{seed: 20, stuck: 1, violations: 0, reorg: 29, replays: 16},
	} {
		agg := run(t, smallHostileWorld(tc.seed))
		if agg.Stuck != tc.stuck || agg.Violations != tc.violations || agg.MaxReorgDepth != tc.reorg || agg.StateReplays != tc.replays {
			t.Errorf("seed %d: %d stuck, %d violations, max reorg %d, %d state replays; want %d, %d, %d, %d",
				tc.seed, agg.Stuck, agg.Violations, agg.MaxReorgDepth, agg.StateReplays, tc.stuck, tc.violations, tc.reorg, tc.replays)
		}
	}
}
