package engine

import (
	"testing"

	"repro/internal/sim"
)

// TestOneSignaturePerSettleCall: a redeem or refund is signed once and
// kept alive, never signed again while the contract still reads P, so on
// the HTLC digest shape — where redeem and refund are the only calls —
// the calls the clients signed are the calls that landed. The one
// exception is seed 7's crash row, shard 2, tx 3: the deploy of its edge
// 1 confirmed after that contract's timelock had passed, so the leader's
// redeem there can never land and the sender's refund settles the edge.
// (Re-signing every Δ/4 while P, the clients signed 164, 197 and 150
// calls for the 139, 143 and 131 that landed.)
func TestOneSignaturePerSettleCall(t *testing.T) {
	for _, tc := range []struct {
		seed     uint64
		unlanded uint64
	}{{42, 0}, {7, 1}, {43, 0}} {
		wl := DefaultWorkload()
		wl.Txs = 60
		wl.Protocol, wl.Mix, wl.TxTimeout = ProtoHTLC, Mix{Commit: 5, Abort: 2, Crash: 2, Race: 1}, 30*sim.Minute
		agg := run(t, Config{Seed: tc.seed, Shards: 4, Workload: wl})
		if signed := agg.Work.CallSigs; signed != uint64(agg.Calls)+tc.unlanded {
			t.Errorf("seed %d: %d calls signed, %d landed; want %d that did not land", tc.seed, signed, agg.Calls, tc.unlanded)
		}
	}
}
