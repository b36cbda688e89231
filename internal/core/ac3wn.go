// Package core implements the paper's atomic cross-chain commitment
// protocols: AC3WN (Section 4.2, the contribution — a permissionless
// witness network coordinates the AC2T) and AC3TW (Section 4.1, the
// centralized-witness strawman it improves on).
//
// Both protocols are written against the reconciler runtime in
// internal/protocol: each is a step function (drive) plus chain-state
// readers, while the runtime owns subscriptions, the announcement
// inbox, throttles, one-shot timers, the timeline, and the uniform
// crash → Resume lifecycle. A participant inspects the chains through
// its clients and performs the next enabled action — deploy the
// coordinator, verify it, deploy its own asset contracts, push the
// commit/abort decision, redeem or refund. Because every step is
// recoverable from on-chain state, a crashed participant that
// restarts simply re-arms its subscriptions and resumes — which is
// precisely the all-or-nothing property the paper proves and the
// baselines lack.
package core

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/merkle"
	"repro/internal/miner"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/spv"
	"repro/internal/wire"
	"repro/internal/xchain"
)

// Event is a timestamped timeline entry (Figure 9 phases), shared
// with every protocol on the runtime.
type Event = protocol.Event

// DefaultStableDepth is the default burial depth for checkpoint
// anchors — far beyond the confirmation depths, deep enough that no
// fork race or engine-scale partition window rolls the anchor back.
// (A 6-minute partition leaves a minority node a ~12-block private
// fork at 10s blocks; 30 buries the anchor well under that with
// margin, and chains shorter than 30 blocks simply anchor at
// genesis.)
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
	// RetryEvery is the base interval for throttling retried on-chain
	// actions (default: half the witness block interval). It does not
	// drive the reconciler — notifications do — it only stops an
	// action that keeps failing from being re-submitted on every
	// wakeup.
	RetryEvery sim.Time
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
	deployedOwn bool
	verifiedSCw bool
	rejectedSCw bool
	submittedRD bool
	submittedRF bool
}

// Run is one executing AC3WN commitment.
type Run struct {
	w   *xchain.World
	cfg Config
	rt  *protocol.Runtime

	// ms is ms(GD), built once at Start: each participant contributes
	// its own signature over the graph digest and the initiator
	// publishes the set in SCw.
	ms *crypto.MultiSig

	// SCw location (announced by the initiator off-chain).
	scwTx   *chain.Tx
	scwAddr crypto.Address
	// Checkpoints registered in SCw, per asset chain: the stable
	// block hash evidence must be anchored at.
	checkpointHash map[chain.ID]crypto.Hash

	// Per-edge asset contract locations. addrs holds announced (i.e.
	// confirmed) contracts; ownTx/ownAddr track the sender's own
	// submissions so drive can re-derive confirmation from chain state
	// after a crash.
	addrs     []crypto.Address
	deployTx  []crypto.Hash
	ownTx     []*chain.Tx
	ownAddr   []crypto.Address
	confirmed []bool
	announced []bool

	states   map[*xchain.Participant]*pstate
	abortDue bool

	// Phase boundaries for Figure 9: SCw confirmed, all asset
	// contracts confirmed, decision buried d deep, all redeemed (or
	// refunded).
	SCwConfirmedAt   sim.Time
	AllDeployedAt    sim.Time
	DecidedAt        sim.Time
	CompletedAt      sim.Time
	DecidedOutcome   contracts.WitnessState
	terminalReported map[int]bool
	anchorReported   map[int]bool

	// WitnessDecisionTxs / WitnessDecisionBytes measure this AC2T's
	// decision traffic on the witness chain: the per-AC2T authorize_*
	// transaction in the unbatched protocol (counted once, when the
	// decision stabilizes), zero when batched — the shared commit_batch
	// traffic is accounted by the coordinator instead. The engine's
	// witness-efficiency table is built from these.
	WitnessDecisionTxs   int
	WitnessDecisionBytes int
}

// announceSCw and announceDeploy are the off-chain messages.
type announceSCw struct {
	Addr        crypto.Address
	TxID        crypto.Hash
	Checkpoints map[chain.ID]crypto.Hash
}

type announceDeploy struct {
	EdgeIdx int
	Addr    crypto.Address
	TxID    crypto.Hash
}

// New validates the configuration and prepares a run. Unlike the
// single-leader baseline, any graph shape is accepted — cyclic and
// disconnected included (Section 5.3).
func New(w *xchain.World, cfg Config) (*Run, error) {
	if cfg.Graph == nil || len(cfg.Participants) == 0 || cfg.Initiator == nil {
		return nil, fmt.Errorf("core: incomplete config")
	}
	if cfg.WitnessDepth < 0 || cfg.AssetDepth < 0 {
		return nil, fmt.Errorf("core: negative depths")
	}
	if _, ok := w.Nets[cfg.WitnessChain]; !ok {
		return nil, fmt.Errorf("core: unknown witness chain %q", cfg.WitnessChain)
	}
	if (cfg.Batcher == nil) != cfg.BatchAddr.IsZero() {
		return nil, fmt.Errorf("core: batching needs both Batcher and BatchAddr")
	}
	byAddr := make(map[crypto.Address]bool)
	for _, p := range cfg.Participants {
		byAddr[p.Addr()] = true
	}
	for _, v := range cfg.Graph.Participants {
		if !byAddr[v] {
			return nil, fmt.Errorf("core: no participant object for vertex %s", v)
		}
	}
	if cfg.RetryEvery <= 0 {
		cfg.RetryEvery = w.Nets[cfg.WitnessChain].Params.BlockInterval / 2
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
	n := len(cfg.Graph.Edges)
	r := &Run{
		w:                w,
		cfg:              cfg,
		checkpointHash:   make(map[chain.ID]crypto.Hash),
		addrs:            make([]crypto.Address, n),
		deployTx:         make([]crypto.Hash, n),
		ownTx:            make([]*chain.Tx, n),
		ownAddr:          make([]crypto.Address, n),
		confirmed:        make([]bool, n),
		announced:        make([]bool, n),
		states:           make(map[*xchain.Participant]*pstate),
		terminalReported: make(map[int]bool),
		anchorReported:   make(map[int]bool),
	}
	for _, p := range cfg.Participants {
		r.states[p] = &pstate{}
	}
	rt, err := protocol.New(protocol.Config{
		World:        w,
		Participants: cfg.Participants,
		Chains:       append([]chain.ID{cfg.WitnessChain}, cfg.Graph.Chains()...),
		Drive:        r.drive,
		OnMessage:    r.onMessage,
	})
	if err != nil {
		return nil, err
	}
	r.rt = rt
	return r, nil
}

// Start begins the run at the current virtual time.
func (r *Run) Start() {
	r.rt.Event(-1, "ac3wn started")
	r.ms = r.cfg.Graph.Sign(participantKeys(r.cfg.Participants)...)
	if r.cfg.AbortAfter > 0 {
		r.rt.After(r.cfg.AbortAfter, func() {
			// The deadline only raises the abort flag; the step
			// functions push (and retry) authorize_refund from it.
			r.abortDue = true
			r.rt.DriveAll()
		})
	}
	r.rt.Start()
}

// Resume re-arms a recovered participant's subscriptions and re-drives
// it. The participant re-learns everything else from the chains.
func (r *Run) Resume(p *xchain.Participant) { r.rt.Resume(p) }

// Stop retires the run: the engine calls it when grading is done so
// finished transactions stop consuming simulator events.
func (r *Run) Stop() { r.rt.Stop() }

// Events returns the run's timeline.
func (r *Run) Events() []Event { return r.rt.Timeline() }

// Marks returns the run's phase boundaries (for trace span derivation).
func (r *Run) Marks() []protocol.Mark { return r.rt.Marks() }

// onMessage ingests off-chain announcements (the runtime re-drives
// the recipient afterwards).
func (r *Run) onMessage(p, from *xchain.Participant, msg any) {
	switch m := msg.(type) {
	case announceSCw:
		if r.scwAddr.IsZero() {
			r.scwAddr = m.Addr
			for id, h := range m.Checkpoints {
				r.checkpointHash[id] = h
			}
		}
	case announceDeploy:
		if r.addrs[m.EdgeIdx].IsZero() {
			r.addrs[m.EdgeIdx] = m.Addr
			r.deployTx[m.EdgeIdx] = m.TxID
		}
	}
}

// drive is the reconciler step function: inspect the world through
// p's clients and take the next enabled action. Idempotent; the
// runtime calls it on tip-change notifications, announcement arrival,
// timer expiry, and resume.
func (r *Run) drive(p *xchain.Participant) {
	st := r.states[p]
	now := r.w.Sim.Now()

	// Phase 1: the initiator publishes SCw and keeps the deployment
	// alive until it is buried (a fork race could drop it).
	if r.scwAddr.IsZero() {
		if p == r.cfg.Initiator {
			r.rt.Throttle(p, "deploy-scw", 4*r.cfg.RetryEvery, func() { r.deploySCw(p) })
		}
		return
	}
	if p == r.cfg.Initiator && r.scwTx != nil {
		if r.rt.EnsureTx(p, r.cfg.WitnessChain, r.scwTx, r.cfg.WitnessDepth) {
			r.markSCwConfirmed()
		}
	}

	wclient := p.Client(r.cfg.WitnessChain)
	scw, ok := r.readSCw(wclient, 0)
	if !ok {
		return // SCw not yet visible on p's node
	}

	// Verify SCw before conditioning any assets on it.
	if !st.verifiedSCw {
		if err := r.verifySCw(p, scw); err != nil {
			if !st.rejectedSCw {
				st.rejectedSCw = true
				r.rt.Event(-1, fmt.Sprintf("%s rejects SCw: %v", p.Name, err))
			}
			// A participant that distrusts SCw pushes the abort, and
			// still observes the decision it reaches: when every
			// participant rejects, nobody else is left to record it.
			r.trySubmitRefund(p, st)
			if decision, decided, _ := r.readDecision(wclient); decided {
				r.markDecision(decision, wclient)
			}
			return
		}
		st.verifiedSCw = true
	}

	// Re-derive the confirmation state of p's own deployments on every
	// wakeup — even after a decision, so a fork-delayed deploy that
	// confirms late is still announced (and then refunded or redeemed)
	// rather than stranding its asset.
	r.confirmOwnEdges(p)

	decision, decided, haveStable := r.readDecision(wclient)

	switch {
	case decided && decision == contracts.WitnessRedeemAuthorized:
		r.markDecision(contracts.WitnessRedeemAuthorized, wclient)
		r.settle(p, true)
	case decided && decision == contracts.WitnessRefundAuthorized:
		r.markDecision(contracts.WitnessRefundAuthorized, wclient)
		r.settle(p, false)
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
		if !st.deployedOwn {
			r.deployOwnEdges(p, st)
			r.confirmOwnEdges(p)
		}
		// Phase 3: push the commit decision once every asset contract
		// is confirmed. The initiator goes first; the others follow
		// after a rank-staggered grace period, so any live participant
		// eventually pushes the decision (no single coordinator)
		// without everyone racing to pay the same fee. The grace wait
		// is an explicit one-shot timer, not a polling cadence.
		if r.allConfirmed() && !st.submittedRD {
			due := r.AllDeployedAt + r.pushGrace(p)
			if now >= due {
				r.rt.Throttle(p, "authorize-redeem", 6*r.cfg.RetryEvery, func() {
					r.submitAuthorizeRedeem(p, st)
				})
			} else {
				r.rt.WakeAt(p, "push-grace", due)
			}
		}
	}
}

// readDecision reads the decisive state at depth d: SCw's own state in
// the per-AC2T protocol, the batch contract's decision ledger when
// batching (SCw then stays in P forever — the record under the
// committed root is the decision). haveStable reports whether SCw
// itself is visible at depth d, decided or not.
func (r *Run) readDecision(wclient *miner.Client) (decision contracts.WitnessState, decided, haveStable bool) {
	stable, haveStable := r.readSCw(wclient, r.cfg.WitnessDepth)
	if r.batched() {
		decision, decided = r.readBatchDecision(wclient, r.cfg.WitnessDepth)
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
		r.rt.Event(-1, "SCw deploy failed: "+err.Error())
		return
	}
	p.Deploys++
	r.scwTx = tx
	r.scwAddr = addr
	r.checkpointHash = cpHashes
	r.rt.Mark(protocol.PointDeploySubmitted)
	r.rt.Event(-1, "SCw deploy submitted")
	r.rt.Broadcast(p, announceSCw{Addr: addr, TxID: tx.ID(), Checkpoints: cpHashes})
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
func (r *Run) readBatchDecision(client *miner.Client, depth int) (contracts.WitnessState, bool) {
	ct, ok := client.ContractNow(r.cfg.BatchAddr, depth)
	if !ok {
		return 0, false
	}
	b, isB := ct.(*contracts.BatchWitnessSC)
	if !isB {
		return 0, false
	}
	d, ok := b.Decisions[r.scwAddr]
	return d, ok
}

// readSCw reads the witness contract at the given depth.
func (r *Run) readSCw(client *miner.Client, depth int) (*contracts.WitnessSC, bool) {
	ct, ok := client.ContractNow(r.scwAddr, depth)
	if !ok {
		return nil, false
	}
	scw, isW := ct.(*contracts.WitnessSC)
	return scw, isW
}

// verifySCw checks that the published coordinator matches the graph
// the participant signed and anchors checkpoints the participant's
// own views recognize as canonical and stable.
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

// deployOwnEdges publishes p's outgoing asset contracts — all in
// parallel, the protocol's headline structural difference from the
// baselines.
func (r *Run) deployOwnEdges(p *xchain.Participant, st *pstate) {
	st.deployedOwn = true
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() || r.ownTx[i] != nil {
			continue
		}
		wview := p.Client(r.cfg.WitnessChain).Chain()
		stable, ok := wview.CanonicalAt(heightAtDepth(wview, r.cfg.StableDepth))
		if !ok {
			st.deployedOwn = false
			return
		}
		params := contracts.PermissionlessParams{
			Recipient:         e.To,
			WitnessChain:      r.cfg.WitnessChain,
			WitnessCheckpoint: stable.Header.Encode(),
			SCw:               r.scwAddr,
			Depth:             r.cfg.WitnessDepth,
			Batch:             r.cfg.BatchAddr, // zero when unbatched
		}.Encode()
		tx, addr, err := p.Client(e.Chain).Deploy(contracts.TypePermissionless, params, e.Asset)
		if err != nil {
			r.rt.Event(i, "deploy failed: "+err.Error())
			continue
		}
		p.Deploys++
		r.ownTx[i] = tx
		r.ownAddr[i] = addr
		r.rt.Event(i, "deploy submitted")
	}
}

// confirmOwnEdges re-derives the confirmation state of p's own
// deployments from chain state, announcing each as it is buried at
// the asset depth. EnsureTx keeps a submission alive across forks and
// mempool wipes, so this also replaces the per-deploy watch — and,
// unlike a watch, it survives a crash between submit and confirm.
func (r *Run) confirmOwnEdges(p *xchain.Participant) {
	for i, e := range r.cfg.Graph.Edges {
		if e.From != p.Addr() || r.ownTx[i] == nil || r.announced[i] {
			continue
		}
		if !r.rt.EnsureTx(p, e.Chain, r.ownTx[i], r.cfg.AssetDepth) {
			continue
		}
		r.announced[i] = true
		r.rt.Event(i, "deploy confirmed")
		r.noteConfirmed(i, r.ownAddr[i], r.ownTx[i].ID())
		r.rt.Broadcast(p, announceDeploy{EdgeIdx: i, Addr: r.ownAddr[i], TxID: r.ownTx[i].ID()})
	}
}

// noteConfirmed records a confirmed asset contract.
func (r *Run) noteConfirmed(i int, addr crypto.Address, txID crypto.Hash) {
	if r.addrs[i].IsZero() {
		r.addrs[i] = addr
		r.deployTx[i] = txID
	}
	r.confirmed[i] = true
	if r.allConfirmed() && r.AllDeployedAt == 0 {
		r.AllDeployedAt = r.w.Sim.Now()
		r.rt.Mark(protocol.PointDeployConfirmed)
		r.rt.Event(-1, "all asset contracts confirmed")
	}
}

func (r *Run) allConfirmed() bool {
	for _, c := range r.confirmed {
		if !c {
			return false
		}
	}
	return true
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
// chain — that is the entire bytes-per-decision win. Event labels stay
// identical so scenario hooks keyed on them work in both modes.
func (r *Run) submitAuthorizeRedeem(p *xchain.Participant, st *pstate) {
	if r.batched() {
		r.cfg.Batcher.Submit(r.scwAddr, contracts.WitnessRedeemAuthorized)
		st.submittedRD = true
		r.rt.Mark(protocol.PointDecisionTriggered)
		r.rt.Event(-1, "authorize_redeem submitted by "+p.Name)
		return
	}
	evs := make([]wire.Appender, 0, len(r.cfg.Graph.Edges))
	for i, e := range r.cfg.Graph.Edges {
		view := p.Client(e.Chain).Chain()
		cpHash, ok := r.checkpointHash[e.Chain]
		if !ok {
			return
		}
		ev, err := spv.Build(view, cpHash, r.deployTx[i], r.cfg.AssetDepth)
		if err != nil {
			return // not stable enough on p's view yet; retry later
		}
		evs = append(evs, ev)
	}
	client := p.Client(r.cfg.WitnessChain)
	if _, err := client.Call(r.scwAddr, contracts.FnAuthorizeRedeem, contracts.EncodeEvidenceList(evs...), 0); err != nil {
		return
	}
	p.Calls++
	st.submittedRD = true
	r.rt.Mark(protocol.PointDecisionTriggered)
	r.rt.Event(-1, "authorize_redeem submitted by "+p.Name)
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
		r.rt.Mark(protocol.PointDecisionTriggered)
		r.rt.Event(-1, "authorize_refund submitted by "+p.Name)
		return
	}
	r.rt.Throttle(p, "authorize-refund", 6*r.cfg.RetryEvery, func() {
		client := p.Client(r.cfg.WitnessChain)
		if _, err := client.Call(r.scwAddr, contracts.FnAuthorizeRefund, nil, 0); err == nil {
			p.Calls++
			st.submittedRF = true
			r.rt.Mark(protocol.PointDecisionTriggered)
			r.rt.Event(-1, "authorize_refund submitted by "+p.Name)
		}
	})
}

// markSCwConfirmed records the first phase boundary.
func (r *Run) markSCwConfirmed() {
	if r.SCwConfirmedAt == 0 {
		r.SCwConfirmedAt = r.w.Sim.Now()
		r.rt.Event(-1, "SCw confirmed at depth d")
	}
}

// markDecision records the commit/abort decision boundary and, in the
// unbatched protocol, measures the per-AC2T decision transaction's
// footprint on the witness chain (counted here, while the transaction
// is still shallow — history retirement forbids deep scans later).
func (r *Run) markDecision(outcome contracts.WitnessState, wclient *miner.Client) {
	if r.DecidedAt != 0 {
		return
	}
	r.DecidedAt = r.w.Sim.Now()
	r.DecidedOutcome = outcome
	r.rt.Mark(protocol.PointDecisionConfirmed)
	r.rt.Event(-1, "decision "+outcome.String()+" stable at depth d")
	if !r.batched() {
		fn := contracts.FnAuthorizeRedeem
		if outcome == contracts.WitnessRefundAuthorized {
			fn = contracts.FnAuthorizeRefund
		}
		if tx, ok := protocol.FindCall(wclient.Chain(), r.scwAddr, fn); ok {
			r.WitnessDecisionTxs = 1
			r.WitnessDecisionBytes = tx.EncodedLen()
		}
	}
}

// settle redeems p's incoming edges (commit) or refunds p's outgoing
// edges (abort), with evidence of SCw's stable state.
func (r *Run) settle(p *xchain.Participant, commit bool) {
	fn := contracts.FnAuthorizeRedeem
	action := contracts.FnRedeem
	if !commit {
		fn = contracts.FnAuthorizeRefund
		action = contracts.FnRefund
	}
	for i, e := range r.cfg.Graph.Edges {
		mine := (commit && e.To == p.Addr()) || (!commit && e.From == p.Addr())
		if !mine || r.addrs[i].IsZero() {
			continue
		}
		client := p.Client(e.Chain)
		ct, ok := client.ContractNow(r.addrs[i], 0)
		if !ok {
			continue
		}
		sc, isSC := ct.(*contracts.PermissionlessSC)
		if !isSC || sc.State != contracts.StatePublished {
			r.noteTerminal(i, sc, isSC)
			continue
		}
		i := i
		r.rt.Throttle(p, fmt.Sprintf("%s-%d", action, i), 6*r.cfg.RetryEvery, func() {
			ev, err := r.witnessEvidenceFor(p, sc, fn)
			if err != nil {
				r.noteOrphanedAnchor(p, i, sc)
				return
			}
			if _, err := client.Call(r.addrs[i], action, ev, 0); err == nil {
				p.Calls++
				r.rt.Event(i, action+" submitted")
			}
		})
	}
}

// noteTerminal records completion timestamps as contracts reach RD/RF.
func (r *Run) noteTerminal(i int, sc *contracts.PermissionlessSC, ok bool) {
	if !ok || r.terminalReported[i] {
		return
	}
	r.terminalReported[i] = true
	r.rt.Event(i, "terminal "+sc.State.String())
	if len(r.terminalReported) == len(r.cfg.Graph.Edges) && r.CompletedAt == 0 {
		r.CompletedAt = r.w.Sim.Now()
		r.rt.Event(-1, "all contracts settled")
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
		r.anchorReported[i] = true
		r.rt.Event(i, "witness checkpoint corrupt — asset unrecoverable")
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
	r.anchorReported[i] = true
	r.rt.Event(i, "witness checkpoint orphaned — asset unrecoverable")
}

// witnessEvidenceFor builds SPV evidence that SCw's state-changing
// call is buried d deep, anchored at the checkpoint stored in the
// asset contract. Batched, the evidence is the pair [SPV of the
// commit_batch transaction containing this AC2T's decision, merkle
// membership proof of the (SCw, decision) leaf] — both re-derived
// from chain state alone, so a participant that died mid-batch finds
// its proof again on resume with no local bookkeeping.
func (r *Run) witnessEvidenceFor(p *xchain.Participant, sc *contracts.PermissionlessSC, fn string) ([]byte, error) {
	hdr, err := chain.DecodeHeader(sc.WitnessCheckpoint)
	if err != nil {
		return nil, err
	}
	wview := p.Client(r.cfg.WitnessChain).Chain()
	if r.batched() {
		return r.batchEvidenceFor(wview, hdr, fn)
	}
	authTx, ok := findCallTx(wview, r.scwAddr, fn)
	if !ok {
		return nil, fmt.Errorf("core: no %s call found on witness chain", fn)
	}
	ev, err := spv.Build(wview, hdr.Hash(), authTx, r.cfg.WitnessDepth)
	if err != nil {
		return nil, err
	}
	return ev.Encode(), nil
}

// batchEvidenceFor locates the canonical commit_batch transaction
// whose decision set contains this AC2T's (SCw, decision) record and
// packages SPV evidence of it plus the membership proof.
func (r *Run) batchEvidenceFor(wview *chain.Chain, checkpoint *chain.Header, fn string) ([]byte, error) {
	want := contracts.WitnessRedeemAuthorized
	if fn == contracts.FnAuthorizeRefund {
		want = contracts.WitnessRefundAuthorized
	}
	tx, ok := protocol.FindCallMatch(wview, r.cfg.BatchAddr, contracts.FnCommitBatch, func(tx *chain.Tx) bool {
		bc, err := contracts.DecodeBatchCommit(tx.Args)
		if err != nil {
			return false
		}
		for _, rec := range bc.Records {
			if rec.SCw == r.scwAddr && rec.Decision == want {
				return true
			}
		}
		return false
	})
	if !ok {
		return nil, fmt.Errorf("core: no committed batch holds %s for this SCw", want)
	}
	bc, err := contracts.DecodeBatchCommit(tx.Args)
	if err != nil {
		return nil, err
	}
	idx := -1
	for i, rec := range bc.Records {
		if rec.SCw == r.scwAddr {
			idx = i
			break
		}
	}
	proof, err := merkle.Prove(contracts.BatchLeaves(bc.Records), idx)
	if err != nil {
		return nil, err
	}
	ev, err := spv.Build(wview, checkpoint.Hash(), tx.ID(), r.cfg.WitnessDepth)
	if err != nil {
		return nil, err
	}
	return contracts.EncodeEvidenceList(ev, proof), nil
}

// findCallTx scans the canonical witness chain (newest first) for a
// call of fn on the contract.
func findCallTx(view *chain.Chain, contract crypto.Address, fn string) (crypto.Hash, bool) {
	tx, ok := protocol.FindCall(view, contract, fn)
	if !ok {
		return crypto.Hash{}, false
	}
	return tx.ID(), true
}

// Addrs exposes per-edge contract addresses for grading.
func (r *Run) Addrs() []crypto.Address { return append([]crypto.Address(nil), r.addrs...) }

// SCwAddr exposes the coordinator address.
func (r *Run) SCwAddr() crypto.Address { return r.scwAddr }

// SCwTx exposes the coordinator deployment transaction (nil until the
// initiator deployed it).
func (r *Run) SCwTx() *chain.Tx { return r.scwTx }

// Grade reads terminal contract states from ground-truth views and
// counts the on-chain operations the AC2T paid for: the asset
// contracts on their chains plus SCw on the witness chain (the +1 of
// Section 6.2's cost analysis).
func (r *Run) Grade() *xchain.Outcome {
	out := xchain.GradeGraph(r.w, r.cfg.Graph, r.addrs)
	out.Start = r.rt.StartedAt()
	out.End = r.rt.TimelineEnd(out.Start)
	if r.CompletedAt != 0 {
		out.End = r.CompletedAt
	}
	out.Deploys, out.Calls = xchain.CountGraphOps(r.w, r.cfg.Graph, r.addrs)
	if !r.scwAddr.IsZero() {
		d, c := xchain.CountContractOps(r.w.View(r.cfg.WitnessChain),
			map[crypto.Address]bool{r.scwAddr: true})
		out.Deploys += d
		out.Calls += c
	}
	return out
}
