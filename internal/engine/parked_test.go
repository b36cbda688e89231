package engine

import (
	"testing"

	"repro/internal/miner"
	"repro/internal/sim"
)

// TestParkedRecordsNeverOutliveTheirMempoolEntry runs one hostile shard
// the way runShard does and looks at every miner of every chain every
// five virtual seconds: a view holds a parked record (ADR-020) only for
// a transaction in its node's mempool, so there are never more records
// than pending transactions, none once a mempool has drained and none
// after a crash took the mempool away.
func TestParkedRecordsNeverOutliveTheirMempoolEntry(t *testing.T) {
	const txCount = 48
	wl := named(t, "hostile", txCount)
	s := sim.New(0)
	s.Reset(43)
	e := &shardExec{
		seed: 43, wl: wl, proto: protocolOf(wl.Protocol), prune: Config{}.pruneDepth(),
		graded: func() {}, s: s, txs: make([]txState, txCount), res: newShardResult(0, 43, txCount),
	}
	if err := e.buildWorld(txCount, nil); err != nil {
		t.Fatal(err)
	}
	e.scheduleArrivals()
	var nodes []*miner.Node
	for _, id := range e.w.Chains() {
		nodes = append(nodes, e.w.Net(id).Nodes...)
	}
	parkedSeen, drained := 0, 0
	check := func() {
		for _, n := range nodes {
			parked, pending := n.Chain.Parked(), n.MempoolSize()
			if parked > pending {
				t.Fatalf("t=%d node %d: %d parked records for %d pending transactions", s.Now(), n.ID, parked, pending)
			}
			parkedSeen = max(parkedSeen, parked)
			if pending == 0 {
				drained++
			}
		}
	}
	s.Poll(5*sim.Second, func() bool { check(); return false })
	// Take one miner of every chain down while its view holds records.
	crashed := 0
	s.Poll(5*sim.Second, func() bool {
		for _, id := range e.w.Chains() {
			if n := e.w.Net(id).Node(1); n.Alive() && n.Chain.Parked() > 0 {
				n.Crash()
				if n.Chain.Parked() != 0 {
					t.Fatalf("node %d of %s holds %d records after its crash", n.ID, id, n.Chain.Parked())
				}
				crashed++
				s.After(sim.Minute, n.Recover)
			}
		}
		return crashed >= 3
	})
	if !s.RunUntilDone(func() bool { return e.res.Graded == txCount }, quiesceCheckEvery, 12*sim.Hour) {
		t.Fatalf("graded %d of %d", e.res.Graded, txCount)
	}
	check()
	if parkedSeen == 0 || drained == 0 || crashed == 0 {
		t.Fatalf("vacuous run: at most %d parked, %d drained-mempool samples, %d crashes", parkedSeen, drained, crashed)
	}
}
