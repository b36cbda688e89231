package engine

import (
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestMatrixResolves walks every (protocol, scenario) cell of the two
// tables: a draw of that scenario alone must resolve to a scenario
// table row — itself, or the one explicit downgrade, HTLC race →
// commit, which must come back flagged so the aggregates count it.
func TestMatrixResolves(t *testing.T) {
	if len(protocols) != 3 || len(scenarios) != 7 {
		t.Fatalf("matrix is %d protocols x %d scenarios; update this test's expectations with the tables", len(protocols), len(scenarios))
	}
	for _, proto := range protocols {
		if proto.newRunner == nil {
			t.Errorf("%s: no constructor", proto.name)
		}
		for _, def := range scenarios {
			wl := DefaultWorkload()
			wl.Protocol = proto.name
			wl.Mix = Mix{}
			*def.weight(&wl.Mix) = 3
			if err := wl.validate(); err != nil {
				t.Errorf("%s/%s: %v", proto.name, def.name, err)
				continue
			}
			if got := wl.Mix.total(); got != 3 {
				t.Errorf("%s: weight accessor and Mix.total disagree: total %d, want 3", def.name, got)
			}
			got, downgraded := wl.drawScenario(sim.NewRNG(1))
			row := scenarioOf(got)
			if row == nil {
				t.Errorf("%s/%s: drew %q, which has no table row", proto.name, def.name, got)
				continue
			}
			if (row.arm == nil) != (got == ScenarioCommit) {
				t.Errorf("%s: only the well-behaved commit may install no fault", got)
			}
			wantDowngrade := proto.name == ProtoHTLC && def.name == ScenarioRace
			switch {
			case downgraded != wantDowngrade:
				t.Errorf("%s/%s: downgraded = %v, want %v", proto.name, def.name, downgraded, wantDowngrade)
			case wantDowngrade && got != ScenarioCommit:
				t.Errorf("%s/%s: downgraded to %q, want commit", proto.name, def.name, got)
			case !wantDowngrade && got != def.name:
				t.Errorf("%s/%s: drew %q", proto.name, def.name, got)
			}
		}
	}

	// The downgrade is counted, not silent, end to end.
	wl := DefaultWorkload()
	wl.Protocol, wl.Txs, wl.Mix = ProtoHTLC, 4, Mix{Race: 1}
	agg := run(t, Config{Seed: 3, Shards: 1, Workload: wl})
	if agg.ScenariosDrawn != 4 || agg.ScenariosDowngraded != 4 || agg.ByScenario[ScenarioCommit].Txs != 4 {
		t.Fatalf("HTLC race draws: drawn %d, downgraded %d, by scenario %+v; want 4 draws, all counted and run as commit",
			agg.ScenariosDrawn, agg.ScenariosDowngraded, agg.ByScenario)
	}
}

// TestNamedWorkloads: an unknown name is refused with the list of the
// valid ones, and every name on that list is a workload New accepts.
func TestNamedWorkloads(t *testing.T) {
	_, err := Named("nope")
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	_, list, ok := strings.Cut(err.Error(), "want one of: ")
	if !ok {
		t.Fatalf("error names no valid workloads: %v", err)
	}
	names := strings.Split(strings.TrimSuffix(list, ")"), ", ")
	if len(names) != 7 {
		t.Fatalf("%d names listed (%q); update this test's expectations with Named", len(names), names)
	}
	for _, name := range names {
		wl, err := Named(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if _, err := New(Config{Seed: 1, Shards: 1, Workload: wl}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// fakeRunner is a core.Runner with no protocol behind it: scripted
// predicates, recorded actions.
type fakeRunner struct {
	open, pushed, decided bool
	decisionChain         chain.ID
	comesBack             bool
	raceReady             bool

	crashes, recovers int
	raced             []*xchain.Participant
}

func (f *fakeRunner) Start()                     {}
func (f *fakeRunner) Settled() bool              { return false }
func (f *fakeRunner) Stop()                      {}
func (f *fakeRunner) Grade() *xchain.Outcome     { return &xchain.Outcome{} }
func (f *fakeRunner) Events() []protocol.Event   { return nil }
func (f *fakeRunner) Marks() []protocol.Mark     { return nil }
func (f *fakeRunner) Resume(*xchain.Participant) {}
func (f *fakeRunner) DecisionOpen() bool         { return f.open }
func (f *fakeRunner) CommitPushed() bool         { return f.pushed }
func (f *fakeRunner) Decided() bool              { return f.decided }
func (f *fakeRunner) DecisionChain() chain.ID    { return f.decisionChain }
func (f *fakeRunner) Recover()                   { f.recovers++ }
func (f *fakeRunner) Crash() (string, bool) {
	f.crashes++
	return "fake", f.comesBack
}
func (f *fakeRunner) RaceRefund(rogue *xchain.Participant) bool {
	f.raced = append(f.raced, rogue)
	return f.raceReady
}

// TestScenariosNeedOnlyTheRunnerInterface arms every scenario's fault on
// a runner that is nothing but the interface: the engine must drive
// crash, race and partition off the typed predicates and actions alone,
// and aim the network faults at the chains the runner and the
// transaction's own edges name. The crash subtest drives the watch
// through the shard's checkTx, which owns the shard's recovery rule.
func TestScenariosNeedOnlyTheRunnerInterface(t *testing.T) {
	setup := func(t *testing.T) (*shardExec, *txState, *fakeRunner) {
		wl := DefaultWorkload()
		wl.Sizes = []SizeWeight{{Size: 3, Weight: 1}}
		e := &shardExec{
			seed: 9, wl: wl, proto: protocolOf(wl.Protocol), prune: enginePruneDepth,
			s: sim.New(9), txs: make([]txState, 1),
			res: &ShardResult{ByScenario: make(map[Scenario]ScenarioStats)},
		}
		if err := e.buildWorld(1, nil); err != nil {
			t.Fatal(err)
		}
		f := &fakeRunner{decisionChain: e.witness}
		st := &e.txs[0]
		st.w, st.runner, st.deadline = e.w, f, wl.TxTimeout
		return e, st, f
	}
	arm := func(st *txState, sc Scenario) { scenarioOf(sc).arm(&st.fault) }
	last := func(st *txState) *xchain.Participant { return st.parts[len(st.parts)-1] }

	t.Run("abort", func(t *testing.T) {
		_, st, _ := setup(t)
		arm(st, ScenarioAbort)
		if !last(st).Crashed() || st.parts[0].Crashed() || st.watch != nil {
			t.Fatal("abort must take down exactly the last participant, at once")
		}
	})
	t.Run("crash", func(t *testing.T) {
		for _, comesBack := range []bool{true, false} {
			e, st, f := setup(t)
			f.comesBack = comesBack
			arm(st, ScenarioCrash)
			if e.checkTx(0); st.watch == nil || f.crashes != 0 {
				t.Fatal("crashed before the commit was pushed")
			}
			f.pushed = true
			if e.checkTx(0); st.watch != nil || f.crashes != 1 || st.victim != "fake" || st.comesBack != comesBack {
				t.Fatalf("commit pushed: watch left %v, %d crashes, victim %q (comes back %v); want one crash of fake, recorded",
					st.watch != nil, f.crashes, st.victim, st.comesBack)
			}
			e.s.RunUntil(crashDownFor + sim.Second)
			if want := map[bool]int{true: 1, false: 0}[comesBack]; f.recovers != want {
				t.Fatalf("comesBack=%v: %d recoveries, want %d", comesBack, f.recovers, want)
			}
		}
		// A refund decision leaves nothing to crash.
		_, st, f := setup(t)
		arm(st, ScenarioCrash)
		f.decided = true
		if !st.watch() || f.crashes != 0 || st.victim != "" {
			t.Fatal("decided without a commit push: the watch must detach without crashing")
		}
	})
	t.Run("race", func(t *testing.T) {
		_, st, f := setup(t)
		arm(st, ScenarioRace)
		if st.watch() {
			t.Fatal("race reported placed before the runner accepted it")
		}
		f.raceReady = true
		if !st.watch() || len(f.raced) != 2 || f.raced[1] != last(st) {
			t.Fatalf("race: rogue must be the last participant, retried until placed (calls: %d)", len(f.raced))
		}
	})
	t.Run("partition", func(t *testing.T) {
		e, st, f := setup(t)
		arm(st, ScenarioPartition)
		if st.watch() {
			t.Fatal("partitioned before the decision window opened")
		}
		f.open = true
		if !st.watch() {
			t.Fatal("decision window open: watch must fire")
		}
		e.s.RunUntil(sim.Second)
		for _, id := range e.w.Chains() {
			if got, want := e.w.Net(id).P2P.Partitioned(), id == f.decisionChain; got != want {
				t.Errorf("chain %s partitioned = %v, want %v (only the runner's decision chain splits)", id, got, want)
			}
		}
		e.s.RunUntil(partitionFor + 2*sim.Second)
		if e.w.Net(f.decisionChain).P2P.Partitioned() {
			t.Error("split never healed")
		}
	})
	t.Run("lossy and geo", func(t *testing.T) {
		e, st, _ := setup(t)
		arm(st, ScenarioLossy)
		// A 3-ring starting at tx 0 touches asset-0 and asset-1, plus
		// the runner's decision chain.
		for _, id := range e.w.Chains() {
			if e.w.Net(id).P2P.Effective().Loss != lossyLoss {
				t.Errorf("lossy: chain %s carries no loss overlay", id)
			}
		}
		if len(st.lift) != 3 {
			t.Fatalf("lossy registered %d lifts, want 3", len(st.lift))
		}
		for _, lift := range st.lift {
			lift()
		}
		st.lift = nil
		arm(st, ScenarioGeo)
		// Edge order, not sorted order: tx 0's first edge is on asset-0.
		if got := e.w.Net("asset-0").P2P.Effective().Base; got != 800 {
			t.Errorf("geo: first asset chain base latency %d, want the intercontinental 800", got)
		}
		if got := e.w.Net("asset-1").P2P.Effective().Base; got != 150 {
			t.Errorf("geo: second asset chain base latency %d, want the WAN 150", got)
		}
		if got := e.w.Net(e.witness).P2P.Effective().Loss; got != 0 {
			t.Errorf("lossy overlay survived its lift: loss %g", got)
		}
	})
}
