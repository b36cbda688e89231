package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// testShard builds one shard the way runShard does, with no signature
// checker, and schedules its arrivals; the caller runs its Sim.
func testShard(t *testing.T, seed uint64, wl Workload, proto *protocolDef) *shardExec {
	t.Helper()
	s := sim.New(0)
	s.Reset(seed)
	e := &shardExec{
		seed: seed, wl: wl, proto: proto, prune: Config{}.pruneDepth(), graded: func() {},
		s: s, txs: make([]txState, wl.Txs), res: newShardResult(0, seed, wl.Txs),
	}
	if err := e.buildWorld(wl.Txs, nil); err != nil {
		t.Fatal(err)
	}
	e.actWaiter = sim.NewWaiter(e)
	e.scheduleArrivals()
	return e
}

// tipWatch is a core.Runner that, each time the shard asks whether its
// settlement holds at depth d, also reads the tip: the first read that
// finds it unsettled there is a settle call a reorg dropped.
type tipWatch struct {
	core.Runner
	s                *sim.Sim
	dropAt, gradedAt sim.Time
	out              *xchain.Outcome
}

func (r *tipWatch) SettledAt(depth int) bool {
	if depth > 0 && r.dropAt == 0 && !r.Runner.Settled() {
		r.dropAt = r.s.Now()
	}
	return r.Runner.SettledAt(depth)
}

func (r *tipWatch) Grade() *xchain.Outcome {
	r.out, r.gradedAt = r.Runner.Grade(), r.s.Now()
	return r.out
}

// TestDroppedSettleCallIsRelanded runs the seed-3 small hostile world
// (smallHostileWorld, its one shard), whose tx 15 the 20 s settle grace
// graded stuck after it settled at the tip (the fixture of the grace's
// deletion). Under grading at burial depth d the world's admissions
// shift, and the AC2T a reorg strikes after its tip settle is tx 10, a
// geo row: its redeem drops out of the tip, and its participants, still
// live, re-land it, so it is graded committed once the redeem holds d
// deep. The arrivals queued behind it start at its tip settle, not at
// its grading.
func TestDroppedSettleCallIsRelanded(t *testing.T) {
	const seed, victim = 3, 10
	wl := smallHostileWorld(t, seed).Workload
	proto := *protocolOf(wl.Protocol)
	watched := make(map[int]*tipWatch)
	var e *shardExec
	proto.newRunner = func(w *xchain.World, a AC2T) (core.Runner, error) {
		r, err := protocolOf(wl.Protocol).newRunner(w, a)
		if err != nil {
			return nil, err
		}
		tw := &tipWatch{Runner: r, s: w.Sim}
		for i := range e.txs {
			if e.txs[i].g == a.Graph {
				watched[i] = tw
			}
		}
		return tw, nil
	}
	e = testShard(t, sim.NewRNG(seed).Uint64(), wl, &proto) // the run's one shard seed, derived as Run derives it
	if !e.s.RunUntilDone(func() bool { return e.res.Graded == wl.Txs }, quiesceCheckEvery, 12*sim.Hour) {
		t.Fatalf("graded %d of %d", e.res.Graded, wl.Txs)
	}

	for i, tw := range watched {
		if tw.dropAt != 0 && i != victim {
			t.Errorf("tx %d: settle call dropped at t=%d; only tx %d's is pinned", i, tw.dropAt, victim)
		}
	}
	st, tw := &e.txs[victim], watched[victim]
	startedAtSettle := 0
	for i := victim + 1; i < wl.Txs; i++ {
		if e.specs[i].arrival < st.settledAt && e.txs[i].startedAt == st.settledAt {
			startedAtSettle++
		}
	}
	if startedAtSettle == 0 {
		t.Errorf("no queued arrival started at tx %d's tip settle (t=%d)", victim, st.settledAt)
	}
	if tw == nil || st.settledAt == 0 || tw.dropAt <= st.settledAt || tw.gradedAt <= tw.dropAt {
		t.Fatalf("tx %d: want a tip settle, then a drop, then grading; %+v", victim, tw)
	}
	if !tw.out.Committed() || tw.out.AtomicityViolated() {
		t.Fatalf("tx %d: settled at t=%d, redeem dropped at t=%d, graded at t=%d not committed: %+v",
			victim, st.settledAt, tw.dropAt, tw.gradedAt, tw.out.Edges)
	}
}
