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

// fakeRunner is a core.Runner with no protocol behind it: the armed
// row is recorded, for the test to fire.
type fakeRunner struct {
	decisionChain chain.ID

	at       protocol.FaultPoint
	fire     func(protocol.Protocol) // the armed row
	recovers int
}

func (f *fakeRunner) Start()                   {}
func (f *fakeRunner) Settled() bool            { return false }
func (f *fakeRunner) SettledAt(int) bool       { return false }
func (f *fakeRunner) Stop()                    {}
func (f *fakeRunner) Grade() *xchain.Outcome   { return &xchain.Outcome{} }
func (f *fakeRunner) Events() []protocol.Event { return nil }
func (f *fakeRunner) Marks() []protocol.Mark   { return nil }
func (f *fakeRunner) DecisionChain() chain.ID  { return f.decisionChain }
func (f *fakeRunner) Recover()                 { f.recovers++ }
func (f *fakeRunner) Arm(at protocol.FaultPoint, fire func(protocol.Protocol)) {
	f.at, f.fire = at, fire
}

// fakeHooks answers the fault hooks a row calls, and nothing else.
type fakeHooks struct {
	protocol.Protocol
	who       string
	comesBack bool
	races     int
}

func (h *fakeHooks) Crash() (string, bool) { return h.who, h.comesBack }
func (h *fakeHooks) Race()                 { h.races++ }

// TestScenariosNeedOnlyTheRunnerInterface arms every scenario's fault on
// a runner that is nothing but the interface: the engine must arm
// crash, race and partition at their protocol points through Arm alone,
// and aim the network faults at the chains the runner and the
// transaction's own edges name. Each subtest fires the armed row itself
// where the protocol would; the crash subtest checks the shard's
// recovery rule, downFor.
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
		st.w, st.runner, st.deadline, st.downFor = e.w, f, wl.TxTimeout, crashDownFor
		return e, st, f
	}
	arm := func(st *txState, sc Scenario) { scenarioOf(sc).arm(&st.fault) }
	last := func(st *txState) *xchain.Participant { return st.parts[len(st.parts)-1] }

	t.Run("abort", func(t *testing.T) {
		_, st, f := setup(t)
		arm(st, ScenarioAbort)
		if !last(st).Crashed() || st.parts[0].Crashed() || f.fire != nil {
			t.Fatal("abort must take down exactly the last participant, at once, and arm nothing")
		}
	})
	t.Run("crash", func(t *testing.T) {
		for _, comesBack := range []bool{true, false} {
			e, st, f := setup(t)
			arm(st, ScenarioCrash)
			if f.fire == nil || f.at != protocol.AtCommitPush || st.victim != "" {
				t.Fatal("the crash row must arm the runner at the commit push, and crash nobody yet")
			}
			e.s.RunUntil(sim.Minute)
			f.fire(&fakeHooks{who: "fake", comesBack: comesBack}) // the protocol's push
			if st.victim != "fake" || st.crashedAt != sim.Minute || st.comesBack != comesBack {
				t.Fatalf("crash not recorded: victim %q at %d (comes back %v)", st.victim, st.crashedAt, st.comesBack)
			}
			e.s.RunUntil(sim.Minute + crashDownFor - 1)
			if f.recovers != 0 {
				t.Fatal("recovered before crashDownFor elapsed")
			}
			e.s.RunUntil(sim.Minute + crashDownFor)
			if want := map[bool]int{true: 1, false: 0}[comesBack]; f.recovers != want {
				t.Fatalf("comesBack=%v: %d recoveries, want %d", comesBack, f.recovers, want)
			}
		}
		// An AC2T graded while its victim is down keeps it down.
		e, st, f := setup(t)
		arm(st, ScenarioCrash)
		f.fire(&fakeHooks{who: "fake", comesBack: true})
		st.runner = nil // as finish leaves it
		e.s.RunUntil(crashDownFor + sim.Second)
		if f.recovers != 0 {
			t.Fatal("recovered the victim of a graded AC2T")
		}
	})
	t.Run("race", func(t *testing.T) {
		_, st, f := setup(t)
		arm(st, ScenarioRace)
		if f.fire == nil || f.at != protocol.AtDecisionWindow {
			t.Fatal("the race row must arm the runner at the decision window")
		}
		hooks := &fakeHooks{}
		f.fire(hooks)
		if hooks.races != 1 || last(st).Crashed() {
			t.Fatalf("race: the row must call the protocol's Race once and touch no participant (calls: %d)", hooks.races)
		}
	})
	t.Run("partition", func(t *testing.T) {
		e, st, f := setup(t)
		arm(st, ScenarioPartition)
		if f.fire == nil || f.at != protocol.AtDecisionWindow {
			t.Fatal("the partition row must arm the runner at the decision window")
		}
		e.s.RunUntil(sim.Second)
		for _, id := range e.w.Chains() {
			if e.w.Net(id).P2P.Partitioned() {
				t.Fatalf("chain %s partitioned before the decision window opened", id)
			}
		}
		f.fire(&fakeHooks{}) // the window opens
		e.s.RunUntil(2 * sim.Second)
		for _, id := range e.w.Chains() {
			if got, want := e.w.Net(id).P2P.Partitioned(), id == f.decisionChain; got != want {
				t.Errorf("chain %s partitioned = %v, want %v (only the runner's decision chain splits)", id, got, want)
			}
		}
		e.s.RunUntil(sim.Second + partitionFor + 2*sim.Second)
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
