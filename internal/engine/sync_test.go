package engine

import "testing"

// TestSmallHostileWorldsPinned pins the two smallest worlds that broke
// atomicity while a node caught up one parent per round trip (ADR-022):
// at -shards 1 -txs 60 on the hostile mix, seed 4 violated in its race
// row at reorg depth 39 and seed 15 in its crash row at 87, both past
// the stable depth of 30. With locator sync they reorg 21 and 28 blocks
// deep, inside it, and neither violates; seed 15 keeps one stuck AC2T in
// its lossy row.
func TestSmallHostileWorldsPinned(t *testing.T) {
	hostile := Mix{Commit: 4, Abort: 1, Crash: 1, Race: 1, Partition: 2, Lossy: 2, Geo: 2}
	for _, tc := range []struct {
		seed                     uint64
		stuck, violations, reorg int
	}{
		{seed: 4, stuck: 0, violations: 0, reorg: 21},
		{seed: 15, stuck: 1, violations: 0, reorg: 28},
	} {
		wl := DefaultWorkload()
		wl.Txs = 60
		wl.Mix = hostile
		agg := run(t, Config{Seed: tc.seed, Shards: 1, Workers: 1, Workload: wl})
		if agg.Stuck != tc.stuck || agg.Violations != tc.violations || agg.MaxReorgDepth != tc.reorg {
			t.Errorf("seed %d: %d stuck, %d violations, max reorg %d; want %d, %d, %d",
				tc.seed, agg.Stuck, agg.Violations, agg.MaxReorgDepth, tc.stuck, tc.violations, tc.reorg)
		}
	}
}
