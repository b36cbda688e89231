package engine

import (
	"fmt"
	"slices"

	"repro/internal/batch"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/xchain"
)

// The engine's protocol × hazard matrix is two tables. protocols maps a
// name to a constructor returning a core.Runner; scenarios is the
// ordered list of behavioral templates, each a Mix weight plus a fault
// installed through the Runner's typed fault surface — the one fault
// vocabulary, armed by the shard executor and by RunOne. Nothing below
// inspects a runner's concrete type or its timeline: adding a protocol
// is one protocols entry (plus the Runner implementation), adding a
// scenario is one scenarios entry (plus its Mix field).

// AC2T is what it takes to stand one transaction up on a world. Every
// driver — the shard executor, ac3sim, the ac3bench experiments — fills
// one in and calls NewRunner (ADR-015); what a protocol does not use, it
// ignores.
type AC2T struct {
	Graph *graph.Graph
	// Participants[0] initiates (AC3WN, AC3TW) or leads (HTLC).
	Participants []*xchain.Participant
	// Witness is the chain AC3WN decides on.
	Witness chain.ID
	// Depth is the confirmation depth d, on every chain the AC2T touches.
	// HTLC's Δ follows from it: publish and confirm at depth d plus two
	// blocks of slack, (d+3) block intervals.
	Depth int
	// AbortAfter (>0) has the participants push the abort decision if
	// the AC2T has not committed by then. HTLC has no decision to push;
	// its timelocks are its deadline.
	AbortAfter sim.Time
	// Batcher, when set, carries AC3WN's decisions in shared batches.
	Batcher *batch.Coordinator
	// TrentSeed and TrentLatency give AC3TW's trusted witness his key
	// and his request/response one-way delay.
	TrentSeed    uint64
	TrentLatency sim.Time
}

// protocolDef is one row of the protocol table.
type protocolDef struct {
	name Protocol
	// batches: the protocol decides on a witness chain, so a shard-wide
	// batching coordinator can carry its decisions (BatchWindow > 0).
	batches bool
	// signsGraph: the runner puts ms(D) on the graph at Start, so the
	// shard presigns every AC2T's graph when it builds the world.
	signsGraph bool
	// downgrade maps a scenario the protocol cannot express to the one
	// that runs in its place. Downgraded draws are counted in the
	// aggregates, never silent.
	downgrade map[Scenario]Scenario
	// newRunner is the one place the protocol is constructed.
	newRunner func(w *xchain.World, t AC2T) (core.Runner, error)
}

//ac3:globalstate the protocol table; written once here, read-only
var protocols = []protocolDef{
	{name: ProtoAC3WN, batches: true, signsGraph: true, newRunner: newAC3WN},
	{name: ProtoAC3TW, signsGraph: true, newRunner: newAC3TW},
	// Hashlock contracts have no decision to race.
	{name: ProtoHTLC, newRunner: newHTLC, downgrade: map[Scenario]Scenario{ScenarioRace: ScenarioCommit}},
}

// protocolOf finds a protocol's table row (nil if unknown).
func protocolOf(name Protocol) *protocolDef {
	for i := range protocols {
		if protocols[i].name == name {
			return &protocols[i]
		}
	}
	return nil
}

// NewRunner stands t up on w under the named protocol; the caller
// Starts it.
func NewRunner(w *xchain.World, name Protocol, t AC2T) (core.Runner, error) {
	def := protocolOf(name)
	if def == nil {
		return nil, fmt.Errorf("engine: unknown protocol %q", name)
	}
	return def.newRunner(w, t)
}

func newAC3WN(w *xchain.World, t AC2T) (core.Runner, error) {
	cfg := core.Config{
		Graph:        t.Graph,
		Participants: t.Participants,
		Initiator:    t.Participants[0],
		WitnessChain: t.Witness,
		WitnessDepth: t.Depth,
		AssetDepth:   t.Depth,
		AbortAfter:   t.AbortAfter,
	}
	// Guarded assignment: a typed-nil *batch.Coordinator in the
	// DecisionSink interface would read as "batching on".
	if t.Batcher != nil {
		cfg.Batcher = t.Batcher
		cfg.BatchAddr = t.Batcher.Addr()
	}
	return core.New(w, cfg)
}

// ownTrent is an AC3TW run with a witness of its own, closed when the
// run is retired. Each AC2T trusts its own Trent — the AC3TW analog of
// AC3WN's per-transaction witness-chain choice — so a witness crash is
// contained to its own transaction.
type ownTrent struct {
	*core.TWRun
	trent *core.Trent
}

func (r ownTrent) Stop() {
	r.TWRun.Stop()
	r.trent.Close()
}

func newAC3TW(w *xchain.World, t AC2T) (core.Runner, error) {
	trent := core.NewTrent(w, t.TrentSeed, t.TrentLatency, t.Depth)
	r, err := core.NewTW(w, core.TWConfig{
		Graph:        t.Graph,
		Participants: t.Participants,
		Initiator:    t.Participants[0],
		Trent:        trent,
		AbortAfter:   t.AbortAfter,
	})
	if err != nil {
		return nil, err
	}
	return ownTrent{r, trent}, nil
}

func newHTLC(w *xchain.World, t AC2T) (core.Runner, error) {
	return swap.New(w, swap.Config{
		Graph:        t.Graph,
		Participants: t.Participants,
		Leader:       t.Participants[0],
		Delta:        sim.Time(t.Depth+3) * w.Net(t.Graph.Edges[0].Chain).Params.BlockInterval,
		ConfirmDepth: t.Depth,
	})
}

// fault is one AC2T as a scenario row arms it. A driver — the shard
// per AC2T, RunOne for its one — fills in the first six fields. A row
// that waits for a protocol moment sets watch, which the driver
// evaluates until it reports done (the shard on its activity feed,
// RunOne on a poll); a row that degrades the network appends lift
// funcs, which the shard runs once the AC2T grades (RunOne's world ends
// with its AC2T). The crash row records its victim; when the victim
// comes back is the driver's rule.
type fault struct {
	w         *xchain.World
	runner    core.Runner
	parts     []*xchain.Participant
	g         *graph.Graph
	i         int      // the AC2T's index: a partition isolates a miner by it
	deadline  sim.Time // the absolute grading deadline
	watch     func() bool
	lift      []func()
	victim    string // "" if nobody crashed
	crashedAt sim.Time
	comesBack bool
}

// scenarioDef is one row of the scenario table.
type scenarioDef struct {
	name Scenario
	// weight selects the scenario's Mix field.
	weight func(*Mix) *int
	// abortAfter is the AC2T's abort deadline (0 = the driver's own).
	abortAfter sim.Time
	// arm installs the fault on the started AC2T; nil for the
	// well-behaved commit.
	arm func(f *fault)
}

// scenarios is the scenario table, in the order Mix lists weights,
// draws walk the cumulative distribution, and the phase table emits
// rows.
//
//ac3:globalstate the scenario table; written once here, read-only
var scenarios = []scenarioDef{
	{name: ScenarioCommit, weight: func(m *Mix) *int { return &m.Commit }},
	{name: ScenarioAbort, weight: func(m *Mix) *int { return &m.Abort }, abortAfter: declineAbortAfter, arm: armAbort},
	{name: ScenarioCrash, weight: func(m *Mix) *int { return &m.Crash }, arm: armCrash},
	{name: ScenarioRace, weight: func(m *Mix) *int { return &m.Race }, arm: armRace},
	{name: ScenarioPartition, weight: func(m *Mix) *int { return &m.Partition }, arm: armPartition},
	{name: ScenarioLossy, weight: func(m *Mix) *int { return &m.Lossy }, arm: armLossy},
	{name: ScenarioGeo, weight: func(m *Mix) *int { return &m.Geo }, arm: armGeo},
}

// The adversity settings. Both windows are well inside the default
// 45-minute grading deadline.
const (
	// lossyLoss is the per-message gossip drop probability a lossy AC2T
	// imposes on every network it touches while in flight. Block sync
	// and EnsureTx resubmission must carry the run.
	lossyLoss = 0.25
	// lossyFor bounds a lossy window: the overlay lifts when the
	// transaction grades or lossyFor elapses, whichever comes first — a
	// struggling lossy AC2T must not keep degrading the shared chains
	// all the way to its grading deadline.
	lossyFor = 10 * sim.Minute
	// partitionFor is how long a partition-scenario split lasts: the
	// transaction's decision chain is divided (one miner against the
	// rest) when its decision window opens and healed partitionFor
	// later. The shard clamps the window so the heal always lands with
	// room to reconcile before the grading deadline — AC3WN's
	// non-blocking claim is what is actually under test, not
	// grading-while-split.
	partitionFor = 6 * sim.Minute
)

// scenarioOf finds a scenario's table row (nil if unknown).
func scenarioOf(name Scenario) *scenarioDef {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// total sums the mix weights.
func (m Mix) total() int {
	n := 0
	for _, sc := range scenarios {
		n += *sc.weight(&m)
	}
	return n
}

// drawScenario samples the scenario mix. Every protocol runs the full
// matrix through its Runner — crash targets its critical failure point,
// race pushes the competing decision — except where its table row says
// a scenario is not expressible; such a draw runs as its downgrade and
// is reported, not silent.
func (wl *Workload) drawScenario(rng *sim.RNG) (sc Scenario, downgraded bool) {
	n := rng.Intn(wl.Mix.total())
	sc = scenarios[len(scenarios)-1].name
	for _, def := range scenarios {
		w := *def.weight(&wl.Mix)
		if n < w {
			sc = def.name
			break
		}
		n -= w
	}
	if to, ok := protocolOf(wl.Protocol).downgrade[sc]; ok {
		return to, true
	}
	return sc, false
}

// armAbort: the victim declines. It never deploys, so the AC2T cannot
// gather full deployment evidence and aborts at the (early) deadline.
func armAbort(f *fault) {
	f.parts[len(f.parts)-1].Crash()
}

// armCrash is the Section 1 hazard, aimed at the protocol's critical
// failure point the moment the commit decision is pushed, and the one
// caller of core.CrashAtCommit. A crashed participant (AC3WN, HTLC)
// comes back — AC3WN then completes the AC2T, HTLC's victim finds its
// timelocks expired and has lost assets. AC3TW's critical point is the
// centralized witness, which stays down: the AC2T blocks.
func armCrash(f *fault) {
	f.watch = core.CrashAtCommit(f.runner, func(who string, comesBack bool) {
		f.victim, f.crashedAt, f.comesBack = who, f.w.Sim.Now(), comesBack
	})
}

// armRace: a rogue participant races the honest decision. Exactly one
// decision can stick — buried at depth d on the witness chain for
// AC3WN, stored at Trent for AC3TW — so the AC2T stays atomic whichever
// way it goes.
func armRace(f *fault) {
	r, rogue := f.runner, f.parts[len(f.parts)-1]
	f.watch = func() bool { return r.RaceRefund(rogue) }
}

// armPartition splits the transaction's decision chain the moment its
// decision window opens — one miner isolated against the rest — and
// heals partitionFor later, before the grading deadline. The minority
// side keeps mining its own fork, so the heal forces a deep reorg and
// every re-announce/re-request/EnsureTx path runs in anger. AC3WN must
// stay atomic and settle (the paper's claim under exactly this hazard);
// AC3TW blocking and HTLC expiry loss surface in the by-scenario
// aggregates as data.
func armPartition(f *fault) {
	f.watch = func() bool {
		if !f.runner.DecisionOpen() {
			return false
		}
		// The window starts at the decision trigger, not at tx start,
		// so clamp it: the heal must land with enough room before the
		// grading deadline for post-heal reconciliation — otherwise the
		// tx is graded mid-split and "non-blocking under partition" was
		// never actually under test. The isolated miner rotates by
		// transaction index so repeated draws starve different replicas
		// (and only sometimes the node-0 ground-truth view).
		dur := partitionFor
		if maxDur := f.deadline - f.w.Sim.Now() - 2*sim.Minute; dur > maxDur {
			dur = max(maxDur, 0)
		}
		f.w.Net(f.runner.DecisionChain()).P2P.ScheduleIsolation(f.w.Sim.Now(), dur, f.i)
		return true
	}
}

// armLossy imposes sustained gossip loss on every network the AC2T
// touches: blocks vanish in flight, so locator sync and EnsureTx carry
// the run (ADR-022: reorgs reach 6 blocks on -workload lossy). The
// overlay lifts when the transaction grades or after lossyFor,
// whichever comes first — Overlay.Remove is idempotent, so the timer
// and the lift can both fire.
func armLossy(f *fault) {
	loss := p2p.LatencyModel{Loss: lossyLoss}
	chains := edgeChains(f.g)
	if dc := f.runner.DecisionChain(); !slices.Contains(chains, dc) {
		chains = append(chains, dc) // a witness chain of its own
	}
	for _, id := range chains {
		ov := f.w.Net(id).P2P.PushOverlay(loss)
		f.lift = append(f.lift, ov.Remove)
		f.w.Sim.After(lossyFor, ov.Remove)
	}
}

// armGeo degrades the first asset chain (in edge order) to
// intercontinental gossip and the second to WAN, so the chains'
// confirmation depths advance at visibly different rates and every
// cross-chain wait races realistically skewed clocks.
func armGeo(f *fault) {
	classes := []p2p.LatencyModel{p2p.GeoLink(), p2p.WANLink()}
	for k, id := range edgeChains(f.g) {
		if k >= len(classes) {
			break
		}
		ov := f.w.Net(id).P2P.PushOverlay(classes[k])
		f.lift = append(f.lift, ov.Remove)
	}
}

// edgeChains lists g's distinct asset chains in edge order. The geo
// row's latency classes follow that order, which Graph.Chains, sorted,
// does not keep.
func edgeChains(g *graph.Graph) []chain.ID {
	var out []chain.ID
	for _, e := range g.Edges {
		if !slices.Contains(out, e.Chain) {
			out = append(out, e.Chain)
		}
	}
	return out
}
