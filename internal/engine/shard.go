package engine

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/batch"
	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xchain"
)

// Shard-world experiment constants. Block interval 10s at
// confirmation depth 2 gives Δ ≈ 30s of virtual time; scenario
// timings are expressed against that scale.
const (
	shardConfirmDepth = 2
	// safetyAbortAfter bounds well-behaved runs: if an AC2T has not
	// committed by then, participants push authorize_refund rather
	// than hold assets locked forever.
	safetyAbortAfter = 25 * sim.Minute
	// declineAbortAfter is the abort scenario's much earlier
	// "participant changed her mind" deadline.
	declineAbortAfter = 4 * sim.Minute
	// crashDownFor is how long the crash scenario's victim stays down
	// after the decision is pushed (fault.downFor) — far beyond any HTLC
	// timelock scale, which is the point — unless its AC2T has graded
	// by then.
	crashDownFor = 8 * sim.Minute
	// settleGrace delays grading after quiescence so depth-0 reads
	// cannot be flipped back by a late fork race.
	settleGrace = 20 * sim.Second
	// quiesceCheckEvery is the shard-level safety-net cadence of
	// RunUntilDone. Transaction progress is notification-driven (the
	// shard watches every chain's ground-truth view); this coarse
	// check only bounds the run when notifications stop coming.
	quiesceCheckEvery = sim.Minute
	// batchStableDepth is how deep a published batch commitment must be
	// buried before the shard's coordinator stops watching it for
	// reorgs. 48 clears the partition + geo mix (max_reorg_depth 37 on
	// the benchmark's wn-adverse shape, 8 × 1,600 at seed 42) and, since
	// block sync went by locator (ADR-022), the hostile one too (41 at
	// -workload hostile -txs 2000): a commitment rolled back from deeper
	// is not republished. It must stay well inside the
	// history-retirement horizon so the depth checks always see the
	// transaction.
	batchStableDepth = 48
	// maxInFlight bounds concurrently executing AC2Ts per shard;
	// arrivals beyond it queue (backpressure) until a slot frees.
	maxInFlight = 8
	// assetChains is how many asset blockchains each shard world hosts
	// (plus one witness chain).
	assetChains = 2
)

// txSpec is one generated AC2T: arrival offset, ring size, scenario.
type txSpec struct {
	arrival  sim.Time
	size     int
	scenario Scenario
}

// txState tracks one AC2T from its arrival through grading.
type txState struct {
	// due is the one callback of the AC2T's arrival, deadline and
	// settle-grace events, which tell them apart by arrived and expired.
	due              func()
	arrived, expired bool
	// fault is the AC2T as its scenario row arms it. Its participants
	// (disjoint per AC2T) and its graph (nil if it could not be built)
	// are fixed with the world; the rest is filled in at start.
	fault
	graded bool
	// finishing: Settled held and the settle-grace finish is pending.
	finishing bool
	// startedAt/settledAt bound the root span: admission, and the
	// moment the engine first observed Settled() (0 if never — the
	// settle phase is then absent). Settlement is observed here, not
	// in the protocols, so the boundary means the same thing for all
	// three.
	startedAt sim.Time
	settledAt sim.Time
	// base samples the shard's world counters at admission (tracing
	// only); finish attaches the deltas to the root span.
	base worldCounters
}

// shardExec executes one shard: an independent deterministic world
// (chains + miners + witness network seeded from the shard seed) and
// its generated transaction stream, all on a single virtual clock.
// Everything here runs on one goroutine — concurrency lives between
// shards, never inside one — so a shard is a pure function of
// (seed, workload, txCount).
type shardExec struct {
	idx   int
	seed  uint64
	wl    Workload
	proto *protocolDef // wl.Protocol's table row
	prune int          // executor state-GC horizon (0 = retain everything)
	// graded bumps the engine's live progress count once per grading.
	graded func()

	s        *sim.Sim
	w        *xchain.World
	assetIDs []chain.ID
	witness  chain.ID
	// coord is the shard's witness-side batching coordinator, non-nil
	// only when the workload enables batching (BatchWindow > 0, AC3WN).
	// One coordinator serves every AC2T in the shard — that sharing is
	// the whole point of batching.
	coord *batch.Coordinator

	specs []txSpec
	txs   []txState

	// activity fires when any chain's ground-truth view changes tip;
	// it drives all in-flight quiescence checks.
	activity  *sim.Signal
	actWaiter sim.Waiter // wakes the shard (Wake)
	armed     bool
	activeIdx []int // in-flight transaction indices, admission order
	scratch   []int // Wake's copy of activeIdx

	inFlight int
	queue    []int
	res      *ShardResult
	// rec is the shard's trace recorder; nil when tracing is off (all
	// recorder methods are nil-safe, so instrumentation points pay one
	// nil check).
	rec *trace.Recorder
}

// worldCounters is a point-in-time sample of the shard's cumulative
// world counters; per-transaction deltas annotate root spans.
type worldCounters struct {
	blocksExecuted uint64
	msgsDropped    uint64
	forksObserved  int
}

// sampleCounters reads the shard's cumulative counters (tracing only).
func (e *shardExec) sampleCounters() worldCounters {
	var c worldCounters
	for _, id := range e.w.Chains() {
		net := e.w.Net(id)
		c.blocksExecuted += net.Executor().Stats().Executed
		c.msgsDropped += net.MsgsDropped()
		c.forksObserved += net.TotalReorgs()
	}
	return c
}

// runShard executes txCount transactions on a world derived from
// seed, reusing (and Reset-ing) the provided simulator.
func runShard(s *sim.Sim, idx int, seed uint64, cfg Config, txCount int, graded func(), sigs *crypto.SigChecker) (*ShardResult, error) {
	s.Reset(seed)
	wl := cfg.Workload
	e := &shardExec{
		idx:    idx,
		seed:   seed,
		wl:     wl,
		proto:  protocolOf(wl.Protocol),
		prune:  cfg.pruneDepth(),
		graded: graded,
		s:      s,
		txs:    make([]txState, txCount),
		res:    newShardResult(idx, seed, txCount),
	}
	if cfg.Trace {
		e.rec = trace.NewRecorder(idx, cfg.traceRingCap)
	}
	if err := e.buildWorld(txCount, sigs); err != nil {
		return nil, err
	}
	e.scheduleArrivals()
	// Hard virtual-time cap: even if every transaction runs to its
	// timeout in maximally backpressured batches, the stream fits.
	// Quiescence is signaled (finish stops the sim when the last
	// transaction grades); the coarse RunUntilDone check is only the
	// safety net for a world that stops producing notifications.
	last := e.specs[len(e.specs)-1].arrival
	batches := sim.Time((txCount+maxInFlight-1)/maxInFlight + 2)
	deadline := last + batches*(wl.TxTimeout+settleGrace+sim.Minute)
	done := func() bool { return e.res.Graded == txCount }
	quiesced := s.RunUntilDone(done, quiesceCheckEvery, deadline)
	// Every verdict block building assumed is in before anything of the
	// run is read (ADR-021's second amendment). If one is invalid, nothing
	// of the run stands: the shard runs again strict, with no checker, and
	// progress counts only what this run did not grade.
	settled := !cfg.unsettled || sigs == nil
	for _, id := range e.w.Chains() {
		settled = e.w.Net(id).Executor().SigTally().Settle(sigs) && settled
	}
	if !settled {
		n := e.res.Graded
		return runShard(s, idx, seed, cfg, txCount, func() {
			if n--; n < 0 {
				graded()
			}
		}, nil)
	}
	if !quiesced {
		return nil, fmt.Errorf("engine: shard %d did not quiesce by virtual deadline (graded %d/%d)",
			idx, e.res.Graded, txCount)
	}
	e.res.MakespanVirtualMs = int64(s.Now())
	e.res.Events = s.Executed
	e.res.Drives, e.res.WakeupsSkipped, e.res.Work.Resubmits = e.w.Drives, e.w.WakeupsSkipped, e.w.Resubmits
	e.res.Work.GraphSigs, e.res.Work.GraphInline = e.w.GraphSigs, e.w.GraphSigs // no book: all at Start
	if b := e.w.Sigs; b != nil {
		e.res.Work.GraphInline, e.res.Work.MultisigReady, e.res.Work.MultisigInline = b.Written.Inline, b.Ready, b.Checked.Inline
		e.res.Work.SigWaited = b.Written.Waited + b.Checked.Waited
	}
	if e.coord != nil {
		// Batch accounting is read once at shard end (the counters are
		// plain ints mutated on the shard's single goroutine), then the
		// coordinator retires with the rest of the world.
		e.res.BatchesPublished = e.coord.BatchesPublished
		e.res.BatchDecisions = e.coord.BatchDecisions
		e.res.BatchRepublishes = e.coord.Republishes
		e.res.BatchBytesPublished = e.coord.BytesPublished
		e.coord.Close()
		e.coord = nil
	}
	// Execution accounting: every network's shared executor ran each
	// block's state transition once; replica adoptions hit the cache.
	for _, id := range e.w.Chains() {
		net := e.w.Net(id)
		st := net.Executor().Stats()
		e.res.BlocksExecuted += st.Executed
		e.res.BlockExecHits += st.Hits
		e.res.BlocksMined += net.BlocksMined()
		// State-GC accounting: how much ledger state the prune horizon
		// reclaimed, what is still held, and what had to run twice.
		e.res.StatesPruned += st.Pruned
		e.res.StatesLive += st.StatesLive
		e.res.StateReplays += st.Replays
		e.res.BlocksRetired += st.Retired
		e.res.Work.add(Work{
			Candidates: st.Candidates, Rejected: st.Rejected,
			ParkedSkips: st.ParkedSkips, ParkedHigh: st.ParkedHigh,
			DeploySigs: net.Signed[chain.TxDeploy], CallSigs: net.Signed[chain.TxCall],
			SigInline: st.Sigs.Inline, SigWaited: st.Sigs.Waited,
			SigAssumed: st.Sigs.Assumed, SigSettled: st.Sigs.Settled,
		})
		for _, n := range net.Nodes {
			e.res.Work.add(Work{SyncSent: n.SyncSent, SyncAnswered: n.SyncAnswered,
				BlocksServed: n.BlocksServed, SyncRetries: n.SyncRetries,
				OrphansHigh: n.OrphansHigh, OrphansEvicted: n.OrphansEvicted, MempoolHigh: n.MempoolHigh})
		}
		// Adversity accounting: how hard the network fought back.
		e.res.ForksObserved += net.TotalReorgs()
		if d := net.MaxReorgDepth(); d > e.res.MaxReorgDepth {
			e.res.MaxReorgDepth = d
		}
		e.res.MsgsDropped += net.MsgsDropped()
		// One summary span per chain: the whole shard makespan on its
		// own track, annotated with the chain's lifetime counters.
		if e.rec.Enabled() {
			e.rec.Span("chain:"+string(id), "chain "+string(id), 0, int64(s.Now()), -1,
				trace.Attr{K: "blocks_mined", V: int64(net.BlocksMined())},
				trace.Attr{K: "blocks_executed", V: int64(st.Executed)},
				trace.Attr{K: "exec_cache_hits", V: int64(st.Hits)},
				trace.Attr{K: "forks_observed", V: int64(net.TotalReorgs())},
				trace.Attr{K: "max_reorg_depth", V: int64(net.MaxReorgDepth())},
				trace.Attr{K: "msgs_dropped", V: int64(net.MsgsDropped())})
		}
	}
	// Retire the world: the simulator's queue still holds mining
	// timers and residual pollers whose closures pin every chain,
	// state, and client of the finished shard until the worker's next
	// Reset — or, for each worker's last shard, until the whole run
	// returns. Clearing the queue now makes a finished shard's memory
	// reclaimable while other shards are still executing.
	e.s.Reset(0)
	e.w = nil
	e.res.rec = e.rec
	return e.res, nil
}

// buildWorld draws the transaction stream and assembles the shard's
// chains and participants. Workload draws come from an RNG forked off
// the shard seed, independent of the world's own entropy, so the
// stream shape does not perturb mining randomness and vice versa.
func (e *shardExec) buildWorld(txCount int, sigs *crypto.SigChecker) error {
	wlRNG := sim.NewRNG(e.seed ^ 0x9e3779b97f4a7c15) //ac3:globalrand derives from the shard seed; the xor constant decorrelates workload draws from world entropy
	b := xchain.NewBuilderOn(e.s, sigs)
	e.assetIDs = make([]chain.ID, assetChains)
	for i := range e.assetIDs {
		e.assetIDs[i] = chain.ID(fmt.Sprintf("asset-%d", i))
		b.Chain(engineChainSpec(e.assetIDs[i], e.prune))
	}
	e.witness = chain.ID("witness")
	b.Chain(engineChainSpec(e.witness, e.prune))

	e.specs = make([]txSpec, txCount)
	var names []string
	name, ends := []byte(nil), []int(nil) // an AC2T's names, one after the other; ends[j] closes name j
	var at sim.Time
	for i := range e.specs {
		at += wlRNG.ExpTime(e.wl.ArrivalEvery)
		sc, downgraded := e.wl.drawScenario(wlRNG)
		e.specs[i] = txSpec{
			arrival:  at,
			size:     e.wl.drawSize(wlRNG),
			scenario: sc,
		}
		e.res.ScenariosDrawn++
		if downgraded {
			e.res.ScenariosDowngraded++
		}
		name, ends = name[:0], ends[:0] // s<shard>-t<tx>-p<j>, cut from one string below
		for j := range e.specs[i].size {
			name = strconv.AppendInt(append(name, 's'), int64(e.idx), 10)
			name = strconv.AppendInt(append(name, "-t"...), int64(i), 10)
			name = strconv.AppendInt(append(name, "-p"...), int64(j), 10)
			ends = append(ends, len(name))
		}
		all, start := string(name), 0
		for _, end := range ends {
			names, start = append(names, all[start:end]), end
		}
	}
	// Every AC2T gets disjoint, pre-funded participants: concurrent
	// transactions on shared chains must not share identities (the
	// paper's AC2Ts need no coordination with each other, and the
	// engine preserves that). Their keys derive in one batch.
	all := b.Participants(names...)
	for i, spec := range e.specs {
		ps := slices.Clone(all[:spec.size]) // an array of its own: garbage once this AC2T grades
		all = all[spec.size:]
		chains := make([]chain.ID, spec.size)
		for j := range ps {
			chains[j] = e.chainOf(i, j)
			b.Fund(ps[j], chains[j], 200_000)
		}
		e.txs[i].parts = ps
		// The graph is fixed here, so its signatures have the whole
		// shard's lead time (ADR-021).
		if g, err := graph.Ring(e.graphStamp(i), xchain.Addrs(ps), 10_000, chains); err == nil {
			e.txs[i].g = g
			if e.proto.signsGraph {
				b.Presign(g.Digest(), ps)
			}
		}
	}
	w, err := b.Build()
	if err != nil {
		return fmt.Errorf("engine: shard %d world: %w", e.idx, err)
	}
	e.w = w
	if sigs != nil { // block building need not wait for the checker: runShard settles
		for _, id := range w.Chains() {
			w.Net(id).Executor().SigTally().SettleLater()
		}
	}
	if e.wl.BatchWindow > 0 {
		// One batching coordinator per shard world (validate admits a
		// window only for protocols that batch), its witness quorum
		// keyed off a forked seed so quorum identities perturb neither
		// workload draws nor mining randomness.
		coord, err := batch.New(w, e.witness, e.seed^0xb5297a4d3f84d5a3, batch.Config{
			Window:      e.wl.BatchWindow,
			StableDepth: batchStableDepth,
		})
		if err != nil {
			return fmt.Errorf("engine: shard %d batch coordinator: %w", e.idx, err)
		}
		e.coord = coord
	}
	// The shard's own notification feed: any tip change of any chain's
	// ground-truth view (same-instant changes coalesce into one event)
	// re-evaluates the in-flight transactions.
	e.activity, e.actWaiter = e.s.NewSignal(), sim.NewWaiter(e)
	for _, id := range w.Chains() {
		w.View(id).OnTipChange(func(chain.TipEvent) { e.activity.Notify() })
	}
	return nil
}

// scheduleArrivals makes each AC2T's callback and schedules its arrival.
// A deadline event runs before a settle-grace event of the same instant.
func (e *shardExec) scheduleArrivals() {
	for i := range e.specs {
		st := &e.txs[i]
		st.due = func() {
			switch {
			case !st.arrived:
				st.arrived = true
				e.admit(i)
			case !st.expired && e.s.Now() == st.deadline:
				st.expired = true
				e.checkTx(i)
			default:
				e.finish(i, st.runner)
			}
		}
		e.s.At(e.specs[i].arrival, st.due)
	}
}

// engineRetireDepth is the default history-GC horizon: whole blocks
// (whose bodies carry the SPV evidence blobs dominating memory at
// scale) are released this deep below every view's tip. It must exceed
// the block-count lifetime of any transaction, since live protocol
// runs read their own recent history (EnsureTx, FindCall, evidence
// assembly): at the 10s default block interval a worst-case 45-minute
// transaction timeout spans ~270 blocks; 1024 clears that with ~4×
// margin. Retired history behaves like a pruned full node's: FindTx
// misses and deep state reads fail, neither of which a live
// transaction can observe.
const engineRetireDepth = 1024

// engineChainSpec is the standard shard chain: 3 miners, 10s blocks,
// with the engine's state-GC horizon (prune 0 = retain everything,
// which also disables history retirement).
func engineChainSpec(id chain.ID, prune int) xchain.ChainSpec {
	s := xchain.DefaultChainSpec(id)
	s.Params.ConfirmDepth = shardConfirmDepth
	s.Params.PruneDepth = prune
	if prune > 0 {
		s.Params.RetireDepth = max(engineRetireDepth, 2*prune)
	}
	return s
}

// chainOf assigns edge j of transaction i to an asset chain, rotating
// by transaction index so load spreads across chains.
func (e *shardExec) chainOf(i, j int) chain.ID {
	return e.assetIDs[(i+j)%len(e.assetIDs)]
}

// admit starts transaction i or queues it when the shard is at its
// in-flight cap (backpressure).
func (e *shardExec) admit(i int) {
	if e.inFlight >= maxInFlight {
		e.queue = append(e.queue, i)
		return
	}
	e.start(i)
}

// start builds the runner for transaction i, arms its scenario row,
// and joins it to the shard's notification-driven quiescence watch:
// progress is re-checked whenever a ground-truth view changes tip, and
// the grading deadline is an explicit one-shot timer.
func (e *shardExec) start(i int) {
	e.inFlight++
	st := &e.txs[i]
	st.w, st.i, st.downFor = e.w, i, crashDownFor
	st.startedAt = e.s.Now()
	if e.rec.Enabled() {
		st.base = e.sampleCounters()
	}

	if st.g == nil {
		// Generation bug — grade as stuck so the stream keeps moving.
		e.finish(i, nil)
		return
	}

	sc := scenarioOf(e.specs[i].scenario)
	abortAfter := safetyAbortAfter
	if sc.abortAfter > 0 {
		abortAfter = sc.abortAfter
	}
	runner, err := e.proto.newRunner(e.w, AC2T{
		Graph:        st.g,
		Participants: st.parts,
		Witness:      e.witness,
		Depth:        shardConfirmDepth,
		AbortAfter:   abortAfter,
		Batcher:      e.coord,
		TrentSeed:    e.seed ^ uint64(e.graphStamp(i))*0x9e3779b97f4a7c15,
		TrentLatency: 200 * sim.Millisecond,
	})
	if err != nil {
		e.finish(i, nil)
		return
	}
	st.runner = runner
	st.deadline = e.s.Now() + e.wl.TxTimeout
	e.activeIdx = append(e.activeIdx, i)
	runner.Start()
	if sc.arm != nil {
		sc.arm(&st.fault)
	}
	e.s.At(st.deadline, st.due)
	e.armActivity()
}

// armActivity keeps exactly one waiter on the shard's activity signal
// while transactions are in flight.
func (e *shardExec) armActivity() {
	if e.armed || len(e.activeIdx) == 0 {
		return
	}
	e.activity.Rearm(&e.actWaiter)
	e.armed = true
}

// Wake re-evaluates every in-flight transaction after a ground-truth
// tip change, then re-arms.
func (e *shardExec) Wake() {
	e.armed = false
	e.scratch = append(e.scratch[:0], e.activeIdx...)
	for _, i := range e.scratch {
		e.checkTx(i)
	}
	e.armActivity()
}

// checkTx advances transaction i's lifecycle: schedule the
// settle-grace finish once the runner quiesced, or grade it as-is at
// the deadline.
func (e *shardExec) checkTx(i int) {
	st := &e.txs[i]
	if st.graded || st.finishing {
		return
	}
	if st.runner != nil && st.runner.Settled() {
		st.finishing = true
		st.settledAt = e.s.Now()
		e.s.After(settleGrace, st.due)
		return
	}
	if e.s.Now() >= st.deadline {
		e.finish(i, st.runner)
	}
}

// graphStamp derives a unique graph timestamp for transaction i.
func (e *shardExec) graphStamp(i int) int64 {
	return int64(e.idx)<<32 | int64(i+1)
}

// finish grades transaction i, retires its participants, and admits
// the next queued arrival.
func (e *shardExec) finish(i int, runner core.Runner) {
	st := &e.txs[i]
	if st.graded {
		return
	}
	st.graded = true
	if st.g != nil && e.w.Sigs != nil {
		d := st.g.Digest()
		for _, p := range st.parts { // its presigned verdicts are spent
			e.w.Sigs.Forget(d, p.Key)
		}
	}
	for _, lift := range st.lift {
		lift()
	}
	st.lift = nil
	for k, idx := range e.activeIdx {
		if idx == i {
			e.activeIdx = append(e.activeIdx[:k], e.activeIdx[k+1:]...)
			break
		}
	}
	sc := e.specs[i].scenario

	var committed, aborted, violated bool
	var lat sim.Time
	var deploys, calls int
	if runner != nil {
		out := runner.Grade()
		committed, aborted, violated = out.Committed(), out.Aborted(), out.AtomicityViolated()
		lat = out.Latency()
		deploys, calls = out.Deploys, out.Calls
		// Witness-efficiency accounting: the per-AC2T decision traffic
		// this transaction put on the witness chain (zero in batched
		// mode — batch traffic is counted once per shard, off the
		// coordinator).
		e.res.WitnessDecisionTxs += out.WitnessTxs
		e.res.WitnessDecisionBytes += out.WitnessBytes
	}
	e.res.record(sc, committed, aborted, violated, lat, deploys, calls)
	e.graded()
	e.observeTx(i, runner, committed, aborted, violated, deploys, calls)

	// Retire: stop the runner (every protocol implements it through
	// the shared runtime; a run with a witness of its own closes it
	// too), and retire the participants — halting their clients
	// permanently and unhooking them from the broadcast bus — so
	// lingering subscriptions and resubmit loops stop consuming
	// simulator events AND
	// the transaction's runtime objects become garbage. On-chain state
	// is already graded; nothing observes these identities again. At
	// 100k+ AC2Ts per shard this release is what keeps shard memory
	// flat in transaction count.
	if runner != nil {
		runner.Stop()
	}
	for _, p := range st.parts {
		p.Retire()
	}
	st.parts, st.runner, st.g = nil, nil, nil

	e.inFlight--
	if len(e.queue) > 0 {
		next := e.queue[0]
		e.queue = e.queue[1:]
		e.start(next)
	}
	if e.res.Graded == len(e.txs) {
		// Last transaction graded: stop the virtual clock instead of
		// waiting for the safety-net check to notice.
		e.s.Stop()
	}
}

// observeTx derives the transaction's phase spans from the protocol's
// uniform phase marks plus the engine's own settlement observation,
// folds completed phases into the shard's per-(phase, scenario)
// histograms (always), and — when tracing is on — emits the root span,
// the phase spans, and the protocol timeline as instants on the
// transaction's track.
func (e *shardExec) observeTx(i int, runner core.Runner, committed, aborted, violated bool, deploys, calls int) {
	if runner == nil {
		return
	}
	st := &e.txs[i]
	sc := e.specs[i].scenario
	marks := runner.Marks()
	at := func(p protocol.Point) (sim.Time, bool) {
		for _, m := range marks {
			if m.Point == p {
				return m.At, true
			}
		}
		return 0, false
	}
	ds, okDS := at(protocol.PointDeploySubmitted)
	dc, okDC := at(protocol.PointDeployConfirmed)
	dt, okDT := at(protocol.PointDecisionTriggered)
	dd, okDD := at(protocol.PointDecisionConfirmed)
	phases := []struct {
		name     string
		from, to sim.Time
		ok       bool
	}{
		{trace.PhaseSetup, st.startedAt, ds, okDS},
		{trace.PhaseLock, ds, dc, okDS && okDC},
		{trace.PhaseDecisionWait, dc, dt, okDC && okDT},
		{trace.PhaseDecision, dt, dd, okDT && okDD},
		{trace.PhaseSettle, dd, st.settledAt, okDD && st.settledAt != 0},
	}

	var track string // named only for a trace
	if e.rec.Enabled() {
		track = fmt.Sprintf("tx:%d", i)
		outcome := "stuck"
		switch {
		case committed:
			outcome = "committed"
		case aborted:
			outcome = "aborted"
		}
		delta := e.sampleCounters()
		var vio int64
		if violated {
			vio = 1
		}
		e.rec.Emit(trace.Record{
			Kind: trace.KindSpan, Track: track, Name: "ac2t",
			T: int64(st.startedAt), Dur: int64(e.s.Now() - st.startedAt),
			Tx: i, Scenario: string(sc), Outcome: outcome,
			Attrs: []trace.Attr{
				{K: "size", V: int64(e.specs[i].size)},
				{K: "deploys", V: int64(deploys)},
				{K: "calls", V: int64(calls)},
				{K: "violated", V: vio},
				{K: "blocks_executed", V: int64(delta.blocksExecuted - st.base.blocksExecuted)},
				{K: "msgs_dropped", V: int64(delta.msgsDropped - st.base.msgsDropped)},
				{K: "forks_observed", V: int64(delta.forksObserved - st.base.forksObserved)},
			},
		})
	}
	for _, ph := range phases {
		if !ph.ok || ph.to < ph.from {
			continue
		}
		e.res.observePhase(ph.name, sc, ph.to-ph.from)
		e.rec.Span(track, ph.name, int64(ph.from), int64(ph.to), i)
	}
	if e.rec.Enabled() {
		for _, ev := range runner.Events() {
			e.rec.Instant(track, ev.Label, int64(ev.At), i, trace.Attr{K: "edge", V: int64(ev.Edge)})
		}
	}
}
