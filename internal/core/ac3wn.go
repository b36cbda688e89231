// Package core implements the paper's atomic cross-chain commitment
// protocols: AC3WN (Section 4.2, the contribution — a permissionless
// witness network coordinates the AC2T) and AC3TW (Section 4.1, the
// centralized-witness strawman it improves on).
//
// Both protocols are thin instances over the reconciler runtime in
// internal/protocol: each is a step function (drive) holding the
// decision logic, plus the secret its asset contracts open to, while the
// embedded runtime owns subscriptions, the announcement inbox, throttles,
// timers, the timeline, the deploy and settle ledgers, and the uniform
// crash → Resume lifecycle. A participant inspects the chains through its
// clients and performs the next enabled action — deploy the coordinator,
// verify it, deploy its own asset contracts, push the commit/abort
// decision, redeem or refund. Because every step is recoverable from
// on-chain state, a crashed participant that restarts simply re-arms its
// subscriptions and resumes — precisely the all-or-nothing property the
// paper proves and the baselines lack.
package core

import (
	"fmt"
	"slices"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/merkle"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/spv"
	"repro/internal/wire"
	"repro/internal/xchain"
)

// DefaultStableDepth is the default burial depth for checkpoint
// anchors — far beyond the confirmation depths, and deeper than any
// reorg of a friendly network; chains shorter than 30 blocks simply
// anchor at genesis. It is not deeper than every reorg the adversity
// scenarios produce: with block sync by locator (ADR-022) the simulator
// measures max_reorg_depth 37 on partition + geo (the benchmark's
// wn-adverse shape, 8 × 1,600 at seed 42) and 41 on the hostile mix
// (ac3engine -workload hostile -txs 2000; 11 of the 24 shards at
// seeds 42, 43 and 7 exceed 30, by at most 11, where partitions outlast
// it), so an anchor can still be rolled back there.
const DefaultStableDepth = 30

// Config configures one AC3WN run.
type Config struct {
	Graph        *graph.Graph
	Participants []*xchain.Participant
	// Initiator deploys SCw. Any participant can push the decision;
	// the initiator merely goes first.
	Initiator *xchain.Participant
	// WitnessChain hosts SCw. Different AC2Ts may use different
	// witness chains (Section 5.2); it may even be one of the asset
	// chains.
	WitnessChain chain.ID
	// WitnessDepth is d: how deep SCw state changes must be buried
	// before they count (Section 6.3 governs choosing it).
	WitnessDepth int
	// AssetDepth is the confirmation depth required of asset-chain
	// contract deployments.
	AssetDepth int
	// StableDepth is how deep a block must be buried before the
	// protocol anchors an immutable checkpoint at it: SCw's per-asset-
	// chain checkpoints and every asset contract's witness checkpoint.
	// Confirmation depths answer "when do I believe a state change";
	// StableDepth answers "which block will still be canonical after
	// the network misbehaves" — both redeem and refund verify through
	// the stored anchor, so an anchor that reorgs away (a partition
	// heal rolling back a shallow 'stable' block) locks the asset
	// forever. Defaults to DefaultStableDepth; the adversarial-network
	// engine scenarios are what flushed this out.
	StableDepth int
	// AbortAfter (>0) makes participants push authorize_refund if the
	// AC2T has not committed by start+AbortAfter — the paper's "a
	// participant changes her mind / declines" path.
	AbortAfter sim.Time
	// Batcher and BatchAddr enable witness-side decision batching:
	// when both are set, participants submit decisions to the batching
	// coordinator instead of calling SCw, read the decision from the
	// batch contract's ledger at depth d, and settle with a
	// commit_batch SPV proof plus a merkle membership proof. Nil/zero
	// keeps the per-AC2T SCw decision path.
	Batcher   DecisionSink
	BatchAddr crypto.Address
}

// DecisionSink receives batched AC2T decisions (a batch.Coordinator
// in practice; an interface so core does not depend on the batching
// layer).
type DecisionSink interface {
	Submit(scw crypto.Address, decision contracts.WitnessState)
}

// pstate is protocol-owned per-participant state. Everything here can
// be reconstructed from chain state plus the off-chain announcements;
// the runtime's Resume re-drives the step function, which re-derives
// it.
type pstate struct {
	verifiedSCw bool
	rejectedSCw bool
	submittedRD bool
	submittedRF bool
}

// Run is one executing AC3WN commitment.
type Run struct {
	*protocol.Runtime
	w   *xchain.World
	cfg Config

	// ms is ms(GD), built once at Start: each participant contributes
	// its own signature over the graph digest and the initiator
	// publishes the set in SCw.
	ms *crypto.MultiSig

	// SCw location (announced by the initiator off-chain).
	scwTx   *chain.Tx
	scwAddr crypto.Address
	// Checkpoints registered in SCw, per asset chain: the stable
	// block hash evidence must be anchored at. Never written once set.
	checkpointHash map[chain.ID]crypto.Hash

	// retryEvery is the base interval for throttling the SCw deploy and
	// the authorize_* pushes: half the witness block interval. It does
	// not drive the reconciler — notifications do — it only stops an
	// action that keeps failing from being re-submitted on every wakeup.
	retryEvery sim.Time

	witness [1]chain.ID // the chain the runtime subscribes to besides the graph's

	states   []pstate // by participant index (Runtime.Index)
	abortDue bool
	// commitPushed: some participant submitted authorize_redeem.
	commitPushed bool

	// Phase boundaries for Figure 9: SCw confirmed, all asset
	// contracts confirmed, decision buried d deep. (All redeemed or
	// refunded is the runtime's CompletedAt.)
	SCwConfirmedAt sim.Time
	AllDeployedAt  sim.Time
	DecidedAt      sim.Time
	DecidedOutcome contracts.WitnessState
	anchorReported map[int]bool // made on the first report

	// witnessTxs / witnessBytes measure this AC2T's decision traffic on
	// the witness chain: the per-AC2T authorize_* transaction in the
	// unbatched protocol (counted once, when the decision stabilizes),
	// zero when batched — the shared commit_batch traffic is accounted
	// by the coordinator instead. Grade reports them in the outcome.
	witnessTxs   int
	witnessBytes int
}

// announceSCw is the initiator's off-chain "SCw is here" message.
type announceSCw struct {
	Addr        crypto.Address
	Checkpoints map[chain.ID]crypto.Hash
}

// New validates the configuration and prepares a run. Unlike the
// single-leader baseline, any graph shape is accepted — cyclic and
// disconnected included (Section 5.3).
func New(w *xchain.World, cfg Config) (*Run, error) {
	if cfg.WitnessDepth < 0 || cfg.AssetDepth < 0 {
		return nil, fmt.Errorf("core: negative depths")
	}
	if _, ok := w.Nets[cfg.WitnessChain]; !ok {
		return nil, fmt.Errorf("core: unknown witness chain %q", cfg.WitnessChain)
	}
	if (cfg.Batcher == nil) != cfg.BatchAddr.IsZero() {
		return nil, fmt.Errorf("core: batching needs both Batcher and BatchAddr")
	}
	if cfg.StableDepth <= 0 {
		cfg.StableDepth = DefaultStableDepth
	}
	if cfg.StableDepth < cfg.WitnessDepth {
		cfg.StableDepth = cfg.WitnessDepth
	}
	if cfg.StableDepth < cfg.AssetDepth {
		cfg.StableDepth = cfg.AssetDepth
	}
	r := &Run{
		w:          w,
		cfg:        cfg,
		retryEvery: w.Nets[cfg.WitnessChain].Params.BlockInterval / 2,
		witness:    [1]chain.ID{cfg.WitnessChain},
		states:     make([]pstate, len(cfg.Participants)),
	}
	var err error
	r.Runtime, err = protocol.New(protocol.Config{
		World:        w,
		Graph:        cfg.Graph,
		Participants: cfg.Participants,
		Initiator:    cfg.Initiator,
		Chains:       r.witness[:],
		Protocol:     r,
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// OnAllConfirmed records Figure 9's lock-phase boundary.
func (r *Run) OnAllConfirmed() {
	r.AllDeployedAt = r.w.Sim.Now()
	r.Event(-1, "all asset contracts confirmed")
}

// Secret is the settle phase's secret: evidence of the decision that
// opens fn's direction. There is none while an edge went the other way:
// a reorg deeper than d flipped the decision p reads, and acting on it
// breaks atomicity.
func (r *Run) Secret(p *xchain.Participant, fn string, i int, sc protocol.Asset) ([]byte, error) {
	auth, other := contracts.FnAuthorizeRedeem, contracts.StateRefunded
	if fn == contracts.FnRefund {
		auth, other = contracts.FnAuthorizeRefund, contracts.StateRedeemed
	}
	for j, e := range r.cfg.Graph.Edges {
		ct, _ := p.Client(e.Chain).ContractNow(r.Addr(j), 0)
		if a, ok := ct.(protocol.Asset); ok && a.SwapState() == other {
			return nil, fmt.Errorf("core: edge %d is already %s", j, other)
		}
	}
	psc := sc.(*contracts.PermissionlessSC)
	ev, err := r.witnessEvidenceFor(p, psc, auth)
	if err != nil {
		r.noteOrphanedAnchor(p, i, psc)
	}
	return ev, err
}

// Start begins the run at the current virtual time.
func (r *Run) Start() {
	r.Event(-1, "ac3wn started")
	r.ms = signGraph(r.w, r.cfg.Graph, r.cfg.Participants)
	if r.cfg.AbortAfter > 0 {
		r.After(r.cfg.AbortAfter, func() {
			// The deadline only raises the abort flag; the step
			// functions push (and retry) authorize_refund from it.
			r.abortDue = true
			r.DriveAll()
		})
	}
	r.Runtime.Start()
}

// OnMessage ingests the SCw announcement (the runtime re-drives the
// recipient afterwards).
func (r *Run) OnMessage(p, from *xchain.Participant, msg any) {
	if m, ok := msg.(announceSCw); ok && r.scwAddr.IsZero() {
		r.scwAddr, r.checkpointHash = m.Addr, m.Checkpoints
	}
}

// Step is the reconciler step function: inspect the world through
// p's clients and take the next enabled action. Idempotent; the
// runtime calls it on tip-change notifications, announcement arrival,
// timer expiry, and resume.
func (r *Run) Step(p *xchain.Participant) {
	st := &r.states[r.Index(p)]
	now := r.w.Sim.Now()

	// Phase 1: the initiator publishes SCw and keeps the deployment
	// alive until it is buried (a fork race could drop it).
	if r.scwAddr.IsZero() {
		if p == r.cfg.Initiator {
			r.Throttle(p, "deploy-scw", 4*r.retryEvery, func() { r.deploySCw(p) })
		}
		return
	}
	if p == r.cfg.Initiator && r.scwTx != nil {
		if r.EnsureTx(p, r.cfg.WitnessChain, r.scwTx, r.cfg.WitnessDepth) {
			r.markSCwConfirmed()
		}
	}

	scw, ok := r.readSCw(p, 0)
	if !ok {
		return // SCw not yet visible on p's node
	}

	// Verify SCw before conditioning any assets on it.
	if !st.verifiedSCw {
		if err := r.verifySCw(p, scw); err != nil {
			if !st.rejectedSCw {
				st.rejectedSCw = true
				r.Event(-1, fmt.Sprintf("%s rejects SCw: %v", p.Name, err))
			}
			// A participant that distrusts SCw pushes the abort, and
			// still observes the decision it reaches: when every
			// participant rejects, nobody else is left to record it.
			r.trySubmitRefund(p, st)
			if decision, decided, _ := r.readDecision(p); decided {
				r.markDecision(decision, p)
			}
			// The verdict hangs on which checkpoints are canonical on
			// p's views, so it is re-examined on every tip change.
			r.WatchTips(p)
			return
		}
		st.verifiedSCw = true
	}

	// Re-derive the confirmation state of p's own deployments on every
	// wakeup — even after a decision, so a fork-delayed deploy that
	// confirms late is still announced (and then refunded or redeemed)
	// rather than stranding its asset.
	r.ConfirmOwn(p, r.cfg.AssetDepth)

	decision, decided, haveStable := r.readDecision(p)

	switch {
	case decided:
		r.markDecision(decision, p)
		r.settle(p, decision)
	case scw.State == contracts.WitnessPublished:
		// Still undecided at depth d.
		if r.abortDue {
			r.trySubmitRefund(p, st)
		}
		// Phase 2: deploy own asset contracts once SCw itself is
		// confirmed at depth d, then re-derive their confirmations
		// from chain state (crash-safe: no watch to lose).
		if !haveStable {
			return
		}
		r.markSCwConfirmed()
		if r.DeployOwn(p, contracts.TypePermissionless, r.assetParams) {
			r.ConfirmOwn(p, r.cfg.AssetDepth)
		}
		// Phase 3: push the commit decision once every asset contract
		// is confirmed. The initiator goes first; the others follow
		// after a rank-staggered grace period, so any live participant
		// eventually pushes the decision (no single coordinator)
		// without everyone racing to pay the same fee. The grace wait
		// is an explicit one-shot timer, not a polling cadence.
		if r.AllConfirmed() && !st.submittedRD {
			due := r.AllDeployedAt + r.pushGrace(p)
			if now >= due {
				r.Throttle(p, "authorize-redeem", 6*r.retryEvery, func() {
					r.submitAuthorizeRedeem(p, st)
				})
			} else {
				r.WakeAt(p, "push-grace", due)
			}
		}
	}
}

// readDecision reads the decisive state at depth d: SCw's own state in
// the per-AC2T protocol, the batch contract's decision ledger when
// batching (SCw then stays in P forever — the record under the
// committed root is the decision). haveStable reports whether SCw
// itself is visible at depth d, decided or not.
func (r *Run) readDecision(p *xchain.Participant) (decision contracts.WitnessState, decided, haveStable bool) {
	stable, haveStable := r.readSCw(p, r.cfg.WitnessDepth)
	if r.batched() {
		decision, decided = r.readBatchDecision(p, r.cfg.WitnessDepth)
	} else if haveStable && stable.State != contracts.WitnessPublished {
		decision, decided = stable.State, true
	}
	return decision, decided, haveStable
}

// deploySCw publishes the coordinator contract with stable-block
// checkpoints for every asset chain.
func (r *Run) deploySCw(p *xchain.Participant) {
	cps := make([]contracts.ChainCheckpoint, 0, len(r.cfg.Graph.Chains()))
	cpHashes := make(map[chain.ID]crypto.Hash)
	for _, id := range r.cfg.Graph.Chains() {
		view := p.Client(id).Chain()
		stable, ok := view.CanonicalAt(heightAtDepth(view, r.cfg.StableDepth))
		if !ok {
			return // chain too short; retry on a later notification
		}
		cps = append(cps, contracts.ChainCheckpoint{
			Chain:         id,
			Header:        stable.Header.Encode(),
			EvidenceDepth: r.cfg.AssetDepth,
		})
		cpHashes[id] = stable.Hash()
	}
	params := contracts.WitnessParams{
		Edges:        r.cfg.Graph.Edges,
		Timestamp:    r.cfg.Graph.Timestamp,
		Multisig:     *r.ms,
		Checkpoints:  cps,
		WitnessDepth: r.cfg.WitnessDepth,
	}.Encode()
	client := p.Client(r.cfg.WitnessChain)
	tx, addr, err := client.Deploy(contracts.TypeWitness, params, 0)
	if err != nil {
		r.Event(-1, "SCw deploy failed: "+err.Error())
		return
	}
	r.scwTx = tx
	r.scwAddr = addr
	r.checkpointHash = cpHashes
	r.Mark(protocol.PointDeploySubmitted)
	r.Event(-1, "SCw deploy submitted")
	r.Broadcast(p, announceSCw{Addr: addr, Checkpoints: cpHashes})
}

// heightAtDepth returns the canonical height depth blocks under the
// tip (0 when the chain is shorter).
func heightAtDepth(view *chain.Chain, depth int) uint64 {
	h := view.Height()
	if uint64(depth) > h {
		return 0
	}
	return h - uint64(depth)
}

// batched reports whether decisions route through a batching
// coordinator.
func (r *Run) batched() bool { return r.cfg.Batcher != nil && !r.cfg.BatchAddr.IsZero() }

// readBatchDecision reads this AC2T's decision from the batch
// contract's ledger at the given depth. Chain state only — a crashed
// participant re-derives it on resume like everything else.
func (r *Run) readBatchDecision(p *xchain.Participant, depth int) (contracts.WitnessState, bool) {
	b, ok := protocol.Contract[*contracts.BatchWitnessSC](r.Runtime, p, r.cfg.WitnessChain, r.cfg.BatchAddr, depth)
	if !ok {
		return 0, false
	}
	d, ok := b.Decisions[r.scwAddr]
	return d, ok
}

// readSCw reads the witness contract at the given depth.
func (r *Run) readSCw(p *xchain.Participant, depth int) (*contracts.WitnessSC, bool) {
	return protocol.Contract[*contracts.WitnessSC](r.Runtime, p, r.cfg.WitnessChain, r.scwAddr, depth)
}

// verifySCw checks that the published coordinator matches the graph
// the participant signed and anchors checkpoints the participant's
// own views recognize as canonical and stable, each demanding deploy
// evidence at the agreed asset depth.
func (r *Run) verifySCw(p *xchain.Participant, scw *contracts.WitnessSC) error {
	g := r.cfg.Graph
	if scw.Timestamp != g.Timestamp || len(scw.Edges) != len(g.Edges) {
		return fmt.Errorf("graph mismatch")
	}
	for i, e := range g.Edges {
		if scw.Edges[i] != e {
			return fmt.Errorf("edge %d mismatch", i)
		}
	}
	if scw.WitnessDepth != r.cfg.WitnessDepth {
		return fmt.Errorf("witness depth %d, agreed %d", scw.WitnessDepth, r.cfg.WitnessDepth)
	}
	// The id of ms(GD) follows from the digest p signed and the
	// participants' addresses; nobody else's key is needed to check it.
	signers := make([]crypto.Address, len(r.cfg.Participants))
	for i, q := range r.cfg.Participants {
		signers[i] = q.Addr()
	}
	if scw.MSID != crypto.MultiSigID(g.Digest(), signers) {
		return fmt.Errorf("multisig mismatch")
	}
	for _, cp := range scw.Checkpoints {
		if cp.EvidenceDepth != r.cfg.AssetDepth {
			return fmt.Errorf("checkpoint %s evidence depth %d, agreed %d", cp.Chain, cp.EvidenceDepth, r.cfg.AssetDepth)
		}
		hdr, err := chain.DecodeHeader(cp.Header)
		if err != nil {
			return fmt.Errorf("checkpoint %s: %w", cp.Chain, err)
		}
		view := p.Client(cp.Chain).Chain()
		if !view.IsCanonical(hdr.Hash()) {
			return fmt.Errorf("checkpoint %s not canonical on my view", cp.Chain)
		}
	}
	return nil
}

// assetParams encodes the PermissionlessSC constructor for one of p's
// outgoing edges — all deployed in parallel, the protocol's headline
// structural difference from the baselines — anchored at a witness
// block buried StableDepth deep on p's view (false while the witness
// chain is still too short to have one).
func (r *Run) assetParams(p *xchain.Participant, _ int, e graph.Edge) ([]byte, bool) {
	wview := p.Client(r.cfg.WitnessChain).Chain()
	stable, ok := wview.CanonicalAt(heightAtDepth(wview, r.cfg.StableDepth))
	if !ok {
		return nil, false
	}
	return contracts.PermissionlessParams{
		Recipient:         e.To,
		WitnessChain:      r.cfg.WitnessChain,
		WitnessCheckpoint: stable.Header.Encode(),
		SCw:               r.scwAddr,
		Depth:             r.cfg.WitnessDepth,
		Batch:             r.cfg.BatchAddr, // zero when unbatched
	}.Encode(), true
}

// pushGrace returns how long p waits after all-deployed before
// pushing the decision itself: 0 for the initiator, rank-staggered
// multiples of the witness block interval for everyone else.
func (r *Run) pushGrace(p *xchain.Participant) sim.Time {
	if p == r.cfg.Initiator {
		return 0
	}
	rank := 1
	for i, q := range r.cfg.Participants {
		if q == p {
			rank = i + 1
			break
		}
	}
	interval := r.w.Nets[r.cfg.WitnessChain].Params.BlockInterval
	return sim.Time(rank) * 6 * interval
}

// submitAuthorizeRedeem assembles per-edge deployment evidence and
// pushes SCw to RDauth. When batching, the decision goes to the
// coordinator instead: the witness quorum takes over evidence
// verification off-chain, so no per-edge SPV bytes hit the witness
// chain — that is the entire bytes-per-decision win.
func (r *Run) submitAuthorizeRedeem(p *xchain.Participant, st *pstate) {
	if r.batched() {
		r.cfg.Batcher.Submit(r.scwAddr, contracts.WitnessRedeemAuthorized)
		r.noteCommitPushed(p, st)
		return
	}
	evs := make([]wire.Appender, 0, len(r.cfg.Graph.Edges))
	for i, e := range r.cfg.Graph.Edges {
		view := p.Client(e.Chain).Chain()
		cpHash, ok := r.checkpointHash[e.Chain]
		if !ok {
			return
		}
		ev, err := spv.Build(view, cpHash, r.DeployTxID(i), r.cfg.AssetDepth)
		if err != nil {
			return // not stable enough on p's view yet; retry later
		}
		evs = append(evs, ev)
	}
	client := p.Client(r.cfg.WitnessChain)
	if _, err := client.Call(r.scwAddr, contracts.FnAuthorizeRedeem, contracts.EncodeEvidenceList(evs...), 0); err != nil {
		return
	}
	r.noteCommitPushed(p, st)
}

// noteCommitPushed records p's authorize_redeem submission.
func (r *Run) noteCommitPushed(p *xchain.Participant, st *pstate) {
	st.submittedRD = true
	r.commitPushed = true
	r.Mark(protocol.PointDecisionTriggered)
	r.Event(-1, "authorize_redeem submitted by "+p.Name)
}

// trySubmitRefund pushes SCw to RFauth (no evidence required). Called
// from drive whenever the abort deadline has passed (or the
// participant rejected SCw) and no decision is stable yet, so a
// failed submission is retried on later notifications.
func (r *Run) trySubmitRefund(p *xchain.Participant, st *pstate) {
	if st.submittedRF || r.scwAddr.IsZero() {
		return
	}
	if r.batched() {
		r.cfg.Batcher.Submit(r.scwAddr, contracts.WitnessRefundAuthorized)
		st.submittedRF = true
		r.Mark(protocol.PointDecisionTriggered)
		r.Event(-1, "authorize_refund submitted by "+p.Name)
		return
	}
	r.Throttle(p, "authorize-refund", 6*r.retryEvery, func() {
		client := p.Client(r.cfg.WitnessChain)
		if _, err := client.Call(r.scwAddr, contracts.FnAuthorizeRefund, nil, 0); err == nil {
			st.submittedRF = true
			r.Mark(protocol.PointDecisionTriggered)
			r.Event(-1, "authorize_refund submitted by "+p.Name)
		}
	})
}

// markSCwConfirmed records the first phase boundary.
func (r *Run) markSCwConfirmed() {
	if r.SCwConfirmedAt == 0 {
		r.SCwConfirmedAt = r.w.Sim.Now()
		r.Event(-1, "SCw confirmed at depth d")
	}
}

// markDecision records the commit/abort decision boundary and, in the
// unbatched protocol, measures the per-AC2T decision transaction's
// footprint on the witness chain (counted here, while the transaction
// is still shallow — history retirement forbids deep scans later).
func (r *Run) markDecision(outcome contracts.WitnessState, p *xchain.Participant) {
	if r.DecidedAt != 0 {
		return
	}
	r.DecidedAt = r.w.Sim.Now()
	r.DecidedOutcome = outcome
	r.Mark(protocol.PointDecisionConfirmed)
	r.Event(-1, "decision "+outcome.String()+" stable at depth d")
	if !r.batched() {
		fn := contracts.FnAuthorizeRedeem
		if outcome == contracts.WitnessRefundAuthorized {
			fn = contracts.FnAuthorizeRefund
		}
		if tx, ok := r.FindCall(p, r.cfg.WitnessChain, r.scwAddr, fn, nil); ok {
			r.witnessTxs = 1
			r.witnessBytes = tx.EncodedLen()
		}
	}
}

// settle redeems p's incoming edges (commit) or refunds p's outgoing
// edges (abort). The secret is evidence of SCw's stable state.
func (r *Run) settle(p *xchain.Participant, decision contracts.WitnessState) {
	fn := contracts.FnRedeem
	if decision == contracts.WitnessRefundAuthorized {
		fn = contracts.FnRefund
	}
	if protocol.Settle(r.Runtime, p, fn) {
		r.Event(-1, "all contracts settled")
	}
}

// noteOrphanedAnchor surfaces the one evidence failure that can never
// heal: the contract's stored witness checkpoint is no longer
// canonical on p's witness view (a reorg deeper than the anchor rolled
// it back), so neither redeem nor refund evidence can ever verify and
// the asset is locked. StableDepth exists to keep this from happening;
// if it does anyway, the timeline says so once instead of the retry
// loop failing silently forever.
func (r *Run) noteOrphanedAnchor(p *xchain.Participant, i int, sc *contracts.PermissionlessSC) {
	if r.anchorReported[i] {
		return
	}
	hdr, err := chain.DecodeHeader(sc.WitnessCheckpoint)
	if err != nil {
		r.reportAnchor(i, "witness checkpoint corrupt — asset unrecoverable")
		return
	}
	wview := p.Client(r.cfg.WitnessChain).Chain()
	if wview.IsCanonical(hdr.Hash()) {
		return // anchor fine: evidence just is not stable yet
	}
	// Not canonical on this view — which covers an anchor block the
	// view has never even seen (it lived only on the deployer's
	// minority fork and abandoned forks are not re-gossiped). Declare
	// it dead only once the canonical chain has buried the anchor's
	// height a full StableDepth under a different block: before that,
	// a reorg could still resurrect it.
	if wview.Height() < hdr.Height+uint64(r.cfg.StableDepth) {
		return
	}
	if cb, ok := wview.CanonicalAt(hdr.Height); !ok || cb.Hash() == hdr.Hash() {
		return
	}
	r.reportAnchor(i, "witness checkpoint orphaned — asset unrecoverable")
}

// reportAnchor puts edge i's anchor failure on the timeline, once.
func (r *Run) reportAnchor(i int, label string) {
	if r.anchorReported == nil {
		r.anchorReported = make(map[int]bool)
	}
	r.anchorReported[i] = true
	r.Event(i, label)
}

// witnessEvidenceFor builds SPV evidence that SCw's state-changing
// call is buried d deep, anchored at the checkpoint stored in the
// asset contract, in the id form: the deploy evidence SCw read stays
// behind as a digest. Batched, the evidence is [SPV of the commit_batch
// transaction containing this AC2T's decision, merkle membership proof
// of the (SCw, decision) leaf, that call's arguments] — all re-derived
// from chain state alone, so a participant that died mid-batch finds
// its proof again on resume with no local bookkeeping.
func (r *Run) witnessEvidenceFor(p *xchain.Participant, sc *contracts.PermissionlessSC, fn string) ([]byte, error) {
	hdr, err := chain.DecodeHeader(sc.WitnessCheckpoint)
	if err != nil {
		return nil, err
	}
	if r.batched() {
		return r.batchEvidenceFor(p, hdr, fn)
	}
	authTx, ok := r.FindCall(p, r.cfg.WitnessChain, r.scwAddr, fn, nil)
	if !ok {
		return nil, fmt.Errorf("core: no %s call found on witness chain", fn)
	}
	ev, err := spv.Build(p.Client(r.cfg.WitnessChain).Chain(), hdr.Hash(), authTx.ID(), r.cfg.WitnessDepth)
	if err != nil {
		return nil, err
	}
	return ev.Encode(), nil
}

// batchEvidenceFor locates the canonical commit_batch transaction
// whose decision set contains this AC2T's (SCw, decision) record and
// packages SPV evidence of it, the membership proof and its arguments.
func (r *Run) batchEvidenceFor(p *xchain.Participant, checkpoint *chain.Header, fn string) ([]byte, error) {
	want := contracts.WitnessRedeemAuthorized
	if fn == contracts.FnAuthorizeRefund {
		want = contracts.WitnessRefundAuthorized
	}
	var commit *contracts.BatchCommit
	idx := -1
	tx, ok := r.FindCall(p, r.cfg.WitnessChain, r.cfg.BatchAddr, contracts.FnCommitBatch, func(tx *chain.Tx) bool {
		bc, err := contracts.DecodeBatchCommit(tx.Args)
		if err != nil {
			return false
		}
		commit = bc
		idx = slices.Index(bc.Records, contracts.DecisionRecord{SCw: r.scwAddr, Decision: want})
		return idx >= 0
	})
	if !ok {
		return nil, fmt.Errorf("core: no committed batch holds %s for this SCw", want)
	}
	proof, err := merkle.Prove(contracts.BatchLeaves(commit.Records), idx)
	if err != nil {
		return nil, err
	}
	ev, err := spv.Build(p.Client(r.cfg.WitnessChain).Chain(), checkpoint.Hash(), tx.ID(), r.cfg.WitnessDepth)
	if err != nil {
		return nil, err
	}
	return contracts.EncodeEvidenceList(ev, proof, commit), nil
}

// DecisionOpen reports that the decision window is open: SCw's address
// is known, so a decision can be pushed at it.
func (r *Run) DecisionOpen() bool { return !r.scwAddr.IsZero() }

// CommitPushed reports that some participant submitted authorize_redeem.
func (r *Run) CommitPushed() bool { return r.commitPushed }

// DecisionChain is the witness chain: where the decision is made.
func (r *Run) DecisionChain() chain.ID { return r.cfg.WitnessChain }

// RaceRefund makes rogue push a conflicting authorize_refund at the
// open decision — into the batching coordinator when decisions are
// batched (first-wins there, and whole-batch conflict rejection
// on-chain), at SCw otherwise. Exactly one decision can stick, buried
// at depth d on the witness chain. It reports false while there is no
// SCw to race at, or the submission failed, and is then worth retrying.
func (r *Run) RaceRefund(rogue *xchain.Participant) bool {
	if r.scwAddr.IsZero() {
		return false
	}
	if r.batched() {
		r.cfg.Batcher.Submit(r.scwAddr, contracts.WitnessRefundAuthorized)
		return true
	}
	_, err := rogue.Client(r.cfg.WitnessChain).Call(r.scwAddr, contracts.FnAuthorizeRefund, nil, 0)
	return err == nil
}

// Grade adds to the runtime's asset-contract grading what AC3WN pays on
// the witness chain: SCw's deployment and its one state change (the +1
// of Section 6.2's cost analysis), and the decision traffic measured
// when the decision stabilized.
func (r *Run) Grade() *xchain.Outcome {
	out := r.Runtime.Grade()
	if r.CompletedAt != 0 {
		out.End = r.CompletedAt
	}
	if !r.scwAddr.IsZero() {
		d, c := r.w.View(r.cfg.WitnessChain).ContractOps(map[crypto.Address]bool{r.scwAddr: true})
		out.Deploys += d
		out.Calls += c
	}
	out.WitnessTxs, out.WitnessBytes = r.witnessTxs, r.witnessBytes
	return out
}
