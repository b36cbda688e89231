package miner

import (
	"testing"

	"repro/internal/p2p"
	"repro/internal/sim"
)

// TestLossyGossipSelfHealsThroughOrphanRequests is the end-to-end
// regression for block sync under the loss model: with a sustained loss
// overlay on the miner gossip links, MsgBlock broadcasts vanish in
// flight, nodes fall behind and buffer orphans, and the way back is a
// locator request per orphan (MsgGetBlocks, itself lossy, retried at the
// next peer when its round trip has passed). After the overlay lifts the
// network must reconverge on one canonical chain, and the requests stay
// fewer than the messages the loss model dropped: one round trip heals
// a gap of any depth.
func TestLossyGossipSelfHealsThroughOrphanRequests(t *testing.T) {
	s, net, _ := testNet(t, 77, 3, p2p.LatencyModel{Base: 100, Jitter: 200})
	net.Start()

	// A clean warm-up, then five lossy minutes: at 40% loss a three-
	// node network drops most of its block floods at least once.
	s.RunUntil(2 * sim.Minute)
	ov := net.P2P.PushOverlay(p2p.LatencyModel{Loss: 0.4})
	s.RunUntil(7 * sim.Minute)
	ov.Remove()

	if net.P2P.Dropped == 0 {
		t.Fatal("loss overlay dropped nothing — the test exercised no adversity")
	}

	// Clean catch-up: every gap is healed by the next block's sync
	// request. Then stop mining and drain in-flight gossip.
	s.RunUntil(12 * sim.Minute)
	for _, n := range net.Nodes {
		n.StopMining()
	}
	s.RunUntil(s.Now() + sim.Minute)

	if !net.Converged() {
		heights := make([]uint64, len(net.Nodes))
		for i, n := range net.Nodes {
			heights[i] = n.Chain.Height()
		}
		t.Fatalf("network did not reconverge after lossy window (heights %v, %d msgs dropped)",
			heights, net.P2P.Dropped)
	}
	// The shared executor proves no block ran twice even though gossip
	// had to be re-requested: hits+executed accounting still balances.
	st := net.Executor().Stats()
	if st.Executed == 0 || st.Hits == 0 {
		t.Fatalf("executor stats degenerate under loss: %+v", st)
	}
	if net.MsgsDropped() != net.P2P.Dropped {
		t.Fatal("Network.MsgsDropped disagrees with the p2p counter")
	}
	var requests uint64
	for _, n := range net.Nodes {
		requests += n.SyncSent
	}
	if requests == 0 || requests > net.P2P.Dropped {
		t.Fatalf("%d sync requests for %d dropped messages, want between 1 and the drops", requests, net.P2P.Dropped)
	}
}

// TestLossyDeterminism runs the same lossy scenario twice and demands
// identical outcomes — chain height, drop counts, reorg counts — the
// per-network forked-RNG guarantee the engine's byte-identical
// aggregates rest on.
func TestLossyDeterminism(t *testing.T) {
	run := func() (uint64, uint64, int, int) {
		s, net, _ := testNet(t, 78, 3, p2p.LatencyModel{Base: 100, Jitter: 200})
		net.Start()
		ov := net.P2P.PushOverlay(p2p.LatencyModel{Loss: 0.3})
		s.RunUntil(5 * sim.Minute)
		ov.Remove()
		s.RunUntil(8 * sim.Minute)
		return net.Height(), net.P2P.Dropped, net.TotalReorgs(), net.MaxReorgDepth()
	}
	h1, d1, r1, m1 := run()
	h2, d2, r2, m2 := run()
	if h1 != h2 || d1 != d2 || r1 != r2 || m1 != m2 {
		t.Fatalf("lossy runs diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			h1, d1, r1, m1, h2, d2, r2, m2)
	}
	if d1 == 0 {
		t.Fatal("no drops — loss model inert")
	}
}
