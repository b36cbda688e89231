// Package protocol is the reconciler runtime every commitment
// protocol in this repository runs on: AC3WN (internal/core), the
// centralized-witness AC3TW baseline (internal/core), and the
// Nolan/Herlihy HTLC baselines (internal/swap).
//
// A protocol is written as a step function — drive(p) inspects the
// world through participant p's chain clients and performs the next
// enabled action — plus chain-state readers. Everything else the
// three protocols used to reimplement privately lives here:
//
//   - per-participant tip-change subscriptions (one miner.Sub per
//     chain the AC2T touches), armed at Start, torn down by crashes,
//     and re-armed by Resume — gated by the wait-set the participant's
//     last drive recorded (wait.go, ADR-014): a tip change runs the
//     step function only if a fact it was waiting on can have flipped;
//   - the reads a step function waits through — Contract, EnsureTx,
//     FindCall — which record that wait-set as they answer;
//   - the off-chain announcement inbox: messages are handed to the
//     protocol's OnMessage and the recipient is re-driven;
//   - throttled action keys, so an on-chain action that keeps failing
//     is not re-submitted on every wakeup;
//   - one-shot keyed timers (abort deadlines, decision-push grace
//     periods, refund timelocks) that re-drive a participant at an
//     absolute virtual time;
//   - the timeline event log the experiments render;
//   - transaction keep-alive (EnsureTx): a submitted transaction is
//     re-multicast if it falls off the canonical chain, and its
//     confirmation depth is re-derived from chain state on every
//     drive — which is what makes crash/resume uniform: a recovered
//     participant re-arms subscriptions and re-reads the chains, and
//     the step function takes it from there;
//   - the per-edge deploy ledger (DeployOwn, ConfirmOwn, AllConfirmed):
//     every protocol locks one asset contract per graph edge, keeps the
//     submission alive until it is buried, and announces its location
//     to the other parties — one loop and one announcement message
//     here, parameterised only by the contract each protocol deploys;
//   - the settle phase (Settle): every protocol ends by presenting a
//     commitment-scheme secret to redeem or refund — one loop over a
//     participant's edges, one call signed per edge and kept alive, one
//     ledger of terminal states with the completion time, one quiescence
//     rule (SettledAt), parameterised only by the secret;
//   - the base of the core.Runner surface every protocol shares —
//     Resume, Stop, Events, Marks, Addrs, Grade, Decided, SettledAt, and
//     the defaults for protocols without a chain or party of their own
//     to decide on: DecisionChain (the first edge's) and Crash/Recover
//     (the last participant).
//
// The runtime owns no protocol semantics. It never decides what to
// do — only when to ask the protocol, and it guarantees the protocol
// is never asked on behalf of a crashed participant or after Stop.
// Protocols embed *Runtime, implement Protocol and add what differs:
// contract parameters, decision logic, the secret.
package protocol

import (
	"fmt"
	"slices"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/xchain"
)

// Event is a timestamped timeline entry (the Figure 8/9 phase
// renderings and the drivers' narration consume these).
type Event struct {
	At    sim.Time
	Label string
	Edge  int // -1 for protocol-level events
}

// Point is a named phase boundary in an AC2T's lifecycle. Every
// protocol on the runtime marks the same four points, which is what
// makes the trace layer's phase spans comparable across AC3WN, AC3TW
// and HTLC: the protocols disagree about *how* a decision happens, but
// not about when contracts were submitted, when they were all
// confirmed, when the decisive action started, and when the decision
// became final.
type Point string

// The cross-protocol instrumentation points, in causal order.
const (
	// PointDeploySubmitted: the first on-chain contract submission
	// (SCw for AC3WN, the first asset contract otherwise).
	PointDeploySubmitted Point = "deploy_submitted"
	// PointDeployConfirmed: every asset contract confirmed at depth.
	PointDeployConfirmed Point = "deploy_confirmed"
	// PointDecisionTriggered: the decisive action started — the first
	// authorize_* submission (AC3WN), the witness request (AC3TW), or
	// the first secret-revealing redeem (HTLC).
	PointDecisionTriggered Point = "decision_triggered"
	// PointDecisionConfirmed: the decision is final — stable at depth
	// d on the witness chain, signed by Trent, or the reveal confirmed.
	PointDecisionConfirmed Point = "decision_confirmed"
)

// Mark is one recorded phase boundary.
type Mark struct {
	Point Point
	At    sim.Time
}

// Config wires a protocol's step function into the runtime.
type Config struct {
	// World hosts the simulated chains and the virtual clock.
	World *xchain.World
	// Graph is the AC2T; its edges index the deploy ledger.
	Graph *graph.Graph
	// Participants are the AC2T's parties, one per graph vertex. The
	// runtime installs their off-chain inboxes and owns their chain
	// subscriptions.
	Participants []*xchain.Participant
	// Initiator makes the protocol's opening move (deploys SCw,
	// registers at Trent, holds the hash secret). Must be one of
	// Participants: a run whose initiator nobody drives never starts.
	Initiator *xchain.Participant
	// Chains are blockchains besides the graph's asset chains whose
	// tip changes re-drive a participant's reconciler — AC3WN's witness
	// chain. Subscribed ahead of the asset chains; duplicates are
	// ignored.
	Chains []chain.ID
	// Protocol is the run itself: its pointer in the interface is no
	// object of its own, as a func per hook would be.
	Protocol Protocol
}

// Protocol is a run's step function and the hooks the runtime calls. A
// run embeds *Runtime, whose hooks of the same names are its defaults.
type Protocol interface {
	// Step is the protocol step function: inspect chain state through
	// the runtime's recording reads (Contract, EnsureTx, FindCall) and
	// take the next enabled action. It must be idempotent — the runtime
	// calls it on every announcement, on timer expiry, at Start, on
	// Resume, and on a tip change after which one of those reads, a
	// Throttle or the run's own state can answer differently. A step
	// whose outcome hangs on a chain read the runtime cannot index says
	// so with WatchTips.
	Step(p *xchain.Participant)
	// OnMessage ingests one protocol-specific off-chain announcement
	// delivered to p (the deploy announcement is the runtime's own); the
	// runtime re-drives p afterwards.
	OnMessage(p, from *xchain.Participant, msg any)
	// OnAllConfirmed runs once, when the last edge's contract is
	// confirmed, right after PointDeployConfirmed is marked — where a
	// protocol records its own phase boundary.
	OnAllConfirmed()
	// Secret produces what opens edge i's contract sc to fn (Settle): SPV
	// evidence, Trent's signature, the hash preimage. An error submits
	// nothing, and the edge is not asked again for a resubmit window.
	Secret(p *xchain.Participant, fn string, i int, sc Asset) ([]byte, error)
	// OnSubmitted runs after edge i's fn call went out and its
	// "<fn> submitted" timeline entry was written.
	OnSubmitted(p *xchain.Participant, fn string, i int)
	// Terminal is handed edge i's contract sc, out of P and not in the
	// ledger yet: it records what the protocol records of that state and
	// reports whether it is final.
	Terminal(p *xchain.Participant, fn string, i int, sc Asset) bool
	// Crash takes down the run's Section 1 critical failure point when
	// the crash row fires (Arm), and reports who that is and whether
	// the hazard has it come back.
	Crash() (who string, comesBack bool)
	// Race has a rogue — the last participant — push a refund that
	// conflicts with the honest decision when the race row fires (Arm).
	Race()
}

// FaultPoint is a protocol point an armed fault row fires at (Arm).
type FaultPoint uint8

// The fault points, in causal order.
const (
	// AtDecisionWindow: the decision window opens — SCw's address is
	// known (AC3WN), ms(D) is registered at Trent (AC3TW), the first
	// redeem reveals the secret (HTLC).
	AtDecisionWindow FaultPoint = iota
	// AtCommitPush: the commit decision is pushed — authorize_redeem
	// submitted (AC3WN), the redeem signature requested (AC3TW), the
	// first redeem submitted (HTLC).
	AtCommitPush
)

// The default hooks do nothing, but for Terminal: any state out of P is
// final, entered in the timeline as "terminal <state>".
func (rt *Runtime) OnMessage(p, from *xchain.Participant, msg any)      {}
func (rt *Runtime) OnAllConfirmed()                                     {}
func (rt *Runtime) OnSubmitted(p *xchain.Participant, fn string, i int) {}
func (rt *Runtime) Race()                                               {}
func (rt *Runtime) Terminal(_ *xchain.Participant, _ string, i int, sc Asset) bool {
	rt.Event(i, "terminal "+sc.SwapState().String())
	return true
}

// pstate is the runtime's per-participant bookkeeping: subscriptions,
// throttle stamps, armed one-shot timers, and what the last drive was
// left waiting for. Protocol state does not belong here — protocols
// keep their own flags and re-derive what a crash loses from the
// chains. A participant has a handful of each, so they are short
// slices whose first slots are inline (pstate is allocated once per
// run, in a slice).
type pstate struct {
	lastAttempt []stamped[string]      // when Throttle last ran each key
	kept        []stamped[crypto.Hash] // EnsureTx's resubmit ledger: when a window opened, or keptCanonical
	armed       []string               // WakeAt keys with a timer pending
	deployedOwn bool                   // DeployOwn ran to the end for this participant
	wait        waitSet                // and its watches, one per chain of the subscription set
	oneStamp    [1]stamped[string]     // the slices' first slots
	twoKept     [2]stamped[crypto.Hash]
	oneArmed    [1]string
}

// stamped is a key's time in one of pstate's ledgers.
type stamped[K comparable] struct {
	key K
	at  sim.Time
}

// stamp returns k's time in ledger l, added at 0 if it was not there,
// and whether it was.
func stamp[K comparable](l *[]stamped[K], k K) (*sim.Time, bool) {
	for i := range *l {
		if (*l)[i].key == k {
			return &(*l)[i].at, true
		}
	}
	*l = append(*l, stamped[K]{key: k})
	return &(*l)[len(*l)-1].at, false
}

// watch is p's subscription to the tip changes of chain ci of the set,
// and what p's last drive left it waiting for there.
type watch struct {
	miner.Sub
	rt *Runtime
	p  *xchain.Participant
	st *pstate
	ci int
	chainWait
}

// OnTip wakes p's reconciler.
func (w *watch) OnTip(sum miner.TipSummary) { w.rt.wake(w.p, w.st, w.ci, sum) }

// keptCanonical marks a transaction p saw canonical: missing, it was dropped.
const keptCanonical sim.Time = -1

// settleCall is an edge's call in one direction, or when to ask its secret.
type settleCall struct {
	tx      *chain.Tx
	retryAt sim.Time
}

// edgeLedger is the runtime's ledger of one graph edge: the confirmed
// (and announced) contract, set exactly when the edge is confirmed; the
// sender's own submission, from which ConfirmOwn re-derives confirmation
// after a crash; and the settle phase's record.
type edgeLedger struct {
	addr     crypto.Address
	txID     crypto.Hash
	ownTx    *chain.Tx
	ownAddr  crypto.Address
	terminal bool          // the contract was seen out of P
	calls    [2]settleCall // redeem, refund
}

// deployAnnounce is the off-chain "my contract for edge i is confirmed
// at this address" message, the one announcement every protocol sends.
type deployAnnounce struct {
	edge int
	addr crypto.Address
	txID crypto.Hash
}

// Runtime drives one protocol run's reconcilers.
type Runtime struct {
	cfg    Config
	chains []chain.ID // deduplicated subscription set, in chainBuf while there are at most four
	states []pstate   // parallel to cfg.Participants
	events []Event
	marks  []Mark // in markBuf while there are at most four
	// edges is the per-edge ledger, parallel to the graph's edges;
	// confirmed and terminals count its confirmed and terminal edges, and
	// CompletedAt is when the last one turned terminal (zero until then).
	edges       []edgeLedger
	confirmed   int
	terminals   int
	CompletedAt sim.Time

	markBuf  [4]Mark
	chainBuf [4]chain.ID
	start    sim.Time
	started  bool
	stopped  bool

	// version counts changes to the state every participant's step
	// function reads besides the chains: timeline, marks, ledger,
	// delivered announcements (and, through their events, the protocol's
	// own flags). A participant that last drove at an older version is
	// driven at its next wake-up whatever the chain did.
	version uint64
	// skipped, when set (tests only), observes every wake-up the gate
	// declined to drive.
	skipped func(p *xchain.Participant)
	// fire is the armed fault row (Arm), nil once fired; it fires at
	// armedAt. reached has bit k set once the run reached FaultPoint k.
	fire    func(Protocol)
	armedAt FaultPoint
	reached uint8
}

// New validates the wiring and prepares a runtime.
func New(cfg Config) (*Runtime, error) {
	if cfg.World == nil || cfg.Graph == nil || len(cfg.Participants) == 0 || cfg.Initiator == nil || cfg.Protocol == nil {
		return nil, fmt.Errorf("protocol: incomplete config")
	}
	if !slices.Contains(cfg.Participants, cfg.Initiator) {
		return nil, fmt.Errorf("protocol: initiator %s is not one of the participants", cfg.Initiator.Name)
	}
	for _, v := range cfg.Graph.Participants {
		if !slices.ContainsFunc(cfg.Participants, func(p *xchain.Participant) bool { return p.Addr() == v }) {
			return nil, fmt.Errorf("protocol: no participant object for vertex %s", v)
		}
	}
	rt := &Runtime{
		cfg:    cfg,
		states: make([]pstate, len(cfg.Participants)),
		edges:  make([]edgeLedger, len(cfg.Graph.Edges)),
		events: make([]Event, 0, 4*len(cfg.Graph.Edges)+8), // an edge writes about 4
	}
	rt.chains, rt.marks = rt.chainBuf[:0], rt.markBuf[:0]
	for _, ids := range [2][]chain.ID{cfg.Chains, cfg.Graph.Chains()} {
		for _, id := range ids {
			if slices.Contains(rt.chains, id) {
				continue
			}
			if _, ok := cfg.World.Nets[id]; !ok {
				return nil, fmt.Errorf("protocol: unknown chain %q", id)
			}
			rt.chains = append(rt.chains, id)
		}
	}
	nc := len(rt.chains)
	watches := make([]watch, len(cfg.Participants)*nc)
	for i, p := range cfg.Participants {
		st := &rt.states[i]
		st.wait = waitSet{ids: rt.chains, chains: watches[i*nc : (i+1)*nc]}
		st.lastAttempt, st.kept, st.armed = st.oneStamp[:0], st.twoKept[:0], st.oneArmed[:0]
		for ci := range st.wait.chains {
			w := &st.wait.chains[ci]
			w.rt, w.p, w.st, w.ci = rt, p, st, ci
			w.addrs, w.atTip, w.txs = w.oneAddr[:0], w.oneTip[:0], w.oneTx[:0]
		}
	}
	return rt, nil
}

// state returns p's bookkeeping; p must be one of the participants.
func (rt *Runtime) state(p *xchain.Participant) *pstate { return &rt.states[rt.Index(p)] }

// Index returns p's position among the run's participants, or -1: the
// slot a protocol keeps its own per-participant state in.
func (rt *Runtime) Index(p *xchain.Participant) int { return slices.Index(rt.cfg.Participants, p) }

// Start records the start time, installs every participant's
// announcement inbox, arms their chain subscriptions, and drives each
// live participant once so protocols make their opening move without
// waiting for the first block.
func (rt *Runtime) Start() {
	rt.start = rt.cfg.World.Sim.Now()
	rt.started = true
	deliver := rt.deliver // one inbox for every participant
	for _, p := range rt.cfg.Participants {
		p.OnMessage(deliver)
		rt.subscribe(p)
	}
	for _, p := range rt.cfg.Participants {
		rt.Drive(p)
	}
}

// Resume re-arms a recovered participant's subscriptions and
// re-drives it: the participant re-learns everything else from chain
// state through its step function. This is the uniform crash/recovery
// lifecycle — identical for every protocol on the runtime.
func (rt *Runtime) Resume(p *xchain.Participant) {
	if rt.stopped || p.Crashed() {
		return
	}
	rt.subscribe(p)
	rt.Drive(p)
}

// Stop retires the run: every subscription is canceled and all future
// drives, timers, and deliveries become no-ops. Idempotent, and safe
// after crashes already tore subscriptions down.
func (rt *Runtime) Stop() {
	rt.stopped = true
	for _, st := range rt.states {
		for i := range st.wait.chains {
			st.wait.chains[i].Cancel()
		}
	}
}

// Stopped reports whether the run was retired.
func (rt *Runtime) Stopped() bool { return rt.stopped }

// Now returns the current virtual time.
func (rt *Runtime) Now() sim.Time { return rt.cfg.World.Sim.Now() }

// Drive runs the protocol step function for p unless the run is
// stopped, not yet started, or p is down. What p waits for afterwards
// is recorded afresh by the reads the step makes.
func (rt *Runtime) Drive(p *xchain.Participant) {
	if rt.stopped || !rt.started || p.Crashed() {
		return
	}
	rt.state(p).wait.reset(rt.version)
	rt.cfg.World.Drives++
	rt.cfg.Protocol.Step(p)
}

// DriveAll drives every live participant (in configuration order, so
// runs stay deterministic).
func (rt *Runtime) DriveAll() {
	for _, p := range rt.cfg.Participants {
		rt.Drive(p)
	}
}

// subscribe points p's reconciler at the notification bus: every
// chain in the subscription set wakes p when its canonical tip changes,
// and wake decides whether that is worth a drive. p's watches are
// canceled first and watched again, so subscribe is safe to call again
// on Resume: a watch its client still lists is revived there, never
// listed twice. A participant that is down subscribes to nothing — its
// clients refuse watch registration while halted (miner.ErrHalted), and
// Resume re-arms after recovery.
func (rt *Runtime) subscribe(p *xchain.Participant) {
	st := rt.state(p)
	for i := range st.wait.chains {
		st.wait.chains[i].Cancel()
	}
	if p.Crashed() {
		return
	}
	for ci, id := range rt.chains {
		// Refused only by a client halted on its own: that watch stays canceled.
		w := &st.wait.chains[ci]
		_ = p.Client(id).Watch(&w.Sub, w)
	}
}

// wake is the gate between a tip change of chain ci and p's step
// function: it drives p only if the summary can have flipped something
// p's last drive recorded in its wait-set (see waitSet.due). A declined
// wake-up costs a scan of the connected blocks' transactions. The
// simulator event that carried it is spent either way, which is why
// gating here moves no simulated byte. (Stop and crashes cancel the
// subscriptions, so wake runs for live participants of live runs only.)
func (rt *Runtime) wake(p *xchain.Participant, st *pstate, ci int, sum miner.TipSummary) {
	if st.wait.due(ci, sum, rt.version, rt.Now()) {
		rt.Drive(p)
		return
	}
	rt.cfg.World.WakeupsSkipped++
	if rt.skipped != nil {
		rt.skipped(p)
	}
}

// deliver hands an off-chain announcement to the protocol and
// re-drives the recipient.
func (rt *Runtime) deliver(p, from *xchain.Participant, msg any) {
	if rt.stopped || p.Crashed() {
		return
	}
	rt.version++ // announcements land in state the whole run reads
	if m, ok := msg.(deployAnnounce); ok {
		rt.noteConfirmed(m)
	} else {
		rt.cfg.Protocol.OnMessage(p, from, msg)
	}
	rt.Drive(p)
}

// Broadcast sends an off-chain message from one participant to this
// run's other participants. Announcements are scoped to the AC2T's
// own parties: concurrent AC2Ts on shared chains must not see (or
// trust) each other's contract locations.
func (rt *Runtime) Broadcast(from *xchain.Participant, msg any) {
	for _, q := range rt.cfg.Participants {
		if q != from {
			from.Tell(q, msg)
		}
	}
}

// Event appends a timeline entry.
func (rt *Runtime) Event(edge int, label string) {
	rt.version++
	rt.events = append(rt.events, Event{At: rt.Now(), Label: label, Edge: edge})
}

// Mark records a phase boundary at the current virtual time. First
// mark wins: protocols call it from idempotent step functions, and a
// boundary that "happens again" (a retry, a second participant
// observing the same stable state) is the same boundary.
func (rt *Runtime) Mark(p Point) {
	if rt.marked(p) {
		return
	}
	rt.version++
	rt.marks = append(rt.marks, Mark{Point: p, At: rt.Now()})
}

// marked reports whether p was marked.
func (rt *Runtime) marked(p Point) bool {
	return slices.ContainsFunc(rt.marks, func(m Mark) bool { return m.Point == p })
}

// Marks returns a copy of the recorded phase boundaries in the order
// they occurred.
func (rt *Runtime) Marks() []Mark { return append([]Mark(nil), rt.marks...) }

// Events returns a snapshot of the run's timeline, safe to retain:
// later appends neither show through nor reallocate under it.
func (rt *Runtime) Events() []Event { return append([]Event(nil), rt.events...) }

// Decided reports whether the run reached a final decision (the
// PointDecisionConfirmed boundary), whichever way it went.
func (rt *Runtime) Decided() bool { return rt.marked(PointDecisionConfirmed) }

// Throttle runs fn now unless it already ran for (p, key) within the
// last interval — the guard that keeps a failing on-chain action from
// being re-submitted on every wakeup. Either way p is due again at the
// first wake-up after the window re-opens: that is when a step that
// reaches this call once more would act.
func (rt *Runtime) Throttle(p *xchain.Participant, key string, interval sim.Time, fn func()) {
	st := rt.state(p)
	now := rt.Now()
	last, ok := stamp(&st.lastAttempt, key)
	if ok && now-*last < interval {
		st.wait.wakeBy(*last + interval)
		return
	}
	*last = now
	st.wait.wakeBy(now + interval)
	fn()
}

// WakeAt arms a one-shot timer that re-drives p at absolute virtual
// time t (clamped to now). While a timer for (p, key) is pending,
// further arms are ignored — protocols can re-request a wake on every
// drive without stacking events. This is how explicit protocol
// deadlines (decision-push grace, refund timelocks) run without any
// polling cadence. The timer drives p itself, so a deadline needs no
// entry in the wait-set.
func (rt *Runtime) WakeAt(p *xchain.Participant, key string, t sim.Time) {
	st := rt.state(p)
	if slices.Contains(st.armed, key) {
		return
	}
	st.armed = append(st.armed, key)
	rt.cfg.World.WakeAt(rt, p, key, t)
}

// Woken is the firing of the timer WakeAt armed for (p, key): it
// disarms it and drives p.
func (rt *Runtime) Woken(p *xchain.Participant, key string) {
	st := rt.state(p)
	i := slices.Index(st.armed, key)
	st.armed = slices.Delete(st.armed, i, i+1)
	rt.Drive(p)
}

// After schedules a run-level one-shot callback d from now, dropped
// if the run stops first (protocol-wide deadlines like AbortAfter).
func (rt *Runtime) After(d sim.Time, fn func()) {
	rt.cfg.World.Sim.After(d, func() {
		if !rt.stopped {
			fn()
		}
	})
}

// EnsureTx reports whether tx is canonical at the given depth on p's
// view of the chain, and keeps the submission alive meanwhile: re-multicast
// at once if p saw it canonical before (a reorg dropped it), else once absent
// a whole window (the client's ResubmitEvery). The check reads only chain
// state, so it survives crashes: a recovered participant's next drive
// re-derives confirmation (or resubmits) with no watch to re-arm. A false
// answer leaves p waiting for what can turn it: the block that includes tx,
// the tip height that buries it, the resubmit window.
func (rt *Runtime) EnsureTx(p *xchain.Participant, id chain.ID, tx *chain.Tx, depth int) bool {
	c, st, txID := p.Client(id), rt.state(p), tx.ID()
	if b, found := rt.seen(p, id, tx); found {
		if d, ok := c.Chain().DepthOf(b.Hash()); ok && d >= depth {
			return true
		}
		st.wait.flipAt(id, b.Header.Height+uint64(depth))
		return false
	}
	// Absent: in flight, purged, or dropped with a losing fork. A known
	// drop goes out now; otherwise the first observation opens the window.
	now := rt.Now()
	at, open := stamp(&st.kept, txID)
	switch {
	case *at == keptCanonical:
		c.Submit(tx)
		rt.cfg.World.Resubmits.Dropped++
		*at = now
	case !open:
		*at = now
	case now-*at >= c.ResubmitEvery:
		c.Submit(tx)
		rt.cfg.World.Resubmits.Window++
		*at = now
	}
	st.wait.watchTx(id, txID)
	st.wait.wakeBy(*at + c.ResubmitEvery)
	return false
}

// seen finds tx on p's canonical view of chain id, noting so in EnsureTx's ledger.
func (rt *Runtime) seen(p *xchain.Participant, id chain.ID, tx *chain.Tx) (*chain.Block, bool) {
	b, _, found := p.Client(id).Chain().FindTx(tx.ID())
	if found {
		at, _ := stamp(&rt.state(p).kept, tx.ID())
		*at = keptCanonical
	}
	return b, found
}

// Contract reads the contract at addr, as a T, as of the block depth
// under p's tip of chain id (0 = the tip) — how a step function reads
// SCw, an asset contract or the batch ledger. False when there is no
// contract there yet or it is not a T. The read leaves p waiting for
// what can change its answer (waitSet.read).
func Contract[T vm.Contract](rt *Runtime, p *xchain.Participant, id chain.ID, addr crypto.Address, depth int) (T, bool) {
	t, ok := rt.state(p).wait.read(p.Client(id).Chain(), id, addr, depth).(T)
	return t, ok
}

// WatchTips makes every tip change of every chain drive p until its
// next drive says otherwise — for a step whose outcome hangs on chain
// state no recording read covers (a checkpoint's canonicity, a chain
// still too short to anchor on).
func (rt *Runtime) WatchTips(p *xchain.Participant) { rt.state(p).wait.anyTip = true }

// DeployOwn publishes p's outgoing asset contracts, once per
// participant: params encodes the constructor parameters of p's
// contract for edge i, or reports false when p cannot build them yet —
// the attempt then stops and is repeated whole on a later drive. A submission that
// fails (an underfunded sender) is logged and not retried; the run then
// aborts through the protocol's own deadline. DeployOwn reports whether
// this call made an attempt, so a step function can follow it with
// ConfirmOwn in the same drive.
func (rt *Runtime) DeployOwn(p *xchain.Participant, contractType string, params func(p *xchain.Participant, i int, e graph.Edge) ([]byte, bool)) bool {
	st := rt.state(p)
	if st.deployedOwn {
		return false
	}
	st.deployedOwn = true
	for i, e := range rt.cfg.Graph.Edges {
		if e.From != p.Addr() || rt.edges[i].ownTx != nil {
			continue
		}
		enc, ok := params(p, i, e)
		if !ok {
			st.deployedOwn = false
			rt.WatchTips(p) // whatever params is short of is chain state
			return true
		}
		tx, addr, err := p.Client(e.Chain).Deploy(contractType, enc, e.Asset)
		if err != nil {
			rt.Event(i, "deploy failed: "+err.Error())
			continue
		}
		rt.edges[i].ownTx, rt.edges[i].ownAddr = tx, addr
		rt.Mark(PointDeploySubmitted)
		rt.Event(i, "deploy submitted")
	}
	return true
}

// ConfirmOwn re-derives the confirmation state of p's own deployments
// from chain state, recording and announcing each as it is buried at
// depth. EnsureTx keeps a submission alive across forks and mempool
// wipes, and — unlike a watch — the check survives a crash between
// submit and confirm. Protocols call it on every drive, even after a
// decision: a fork-delayed deploy that confirms late must still be
// announced (and then refunded or redeemed), not strand its asset.
func (rt *Runtime) ConfirmOwn(p *xchain.Participant, depth int) {
	for i, e := range rt.cfg.Graph.Edges {
		l := &rt.edges[i]
		if e.From != p.Addr() || l.ownTx == nil || !l.addr.IsZero() {
			continue
		}
		if !rt.EnsureTx(p, e.Chain, l.ownTx, depth) {
			continue
		}
		rt.Event(i, "deploy confirmed")
		m := deployAnnounce{edge: i, addr: l.ownAddr, txID: l.ownTx.ID()}
		rt.noteConfirmed(m)
		rt.Broadcast(p, m)
	}
}

// noteConfirmed records a confirmed asset contract — from the sender's
// own view or a peer's announcement, whichever comes first — and marks
// the lock-phase boundary when it was the last one.
func (rt *Runtime) noteConfirmed(m deployAnnounce) {
	l := &rt.edges[m.edge]
	if !l.addr.IsZero() {
		return
	}
	rt.version++
	l.addr, l.txID = m.addr, m.txID
	rt.confirmed++
	if rt.AllConfirmed() {
		rt.Mark(PointDeployConfirmed)
		rt.cfg.Protocol.OnAllConfirmed()
	}
}

// AllConfirmed reports whether every edge's contract is confirmed.
func (rt *Runtime) AllConfirmed() bool { return rt.confirmed == len(rt.edges) }

// Addr returns edge i's confirmed contract address (zero until then).
func (rt *Runtime) Addr(i int) crypto.Address { return rt.edges[i].addr }

// DeployTxID returns the transaction that deployed edge i's confirmed
// contract.
func (rt *Runtime) DeployTxID(i int) crypto.Hash { return rt.edges[i].txID }

// Addrs returns a copy of the per-edge contract addresses.
func (rt *Runtime) Addrs() []crypto.Address {
	out := make([]crypto.Address, len(rt.edges))
	for i := range rt.edges {
		out[i] = rt.edges[i].addr
	}
	return out
}

// Asset is an asset contract as the runtime sees it: any contract built
// on Algorithm 1's template (contracts.Swap). Grading, quiescence and the
// settle phase read its state through this and name no concrete type.
type Asset interface {
	vm.Contract
	SwapState() contracts.SwapState
}

// Settle is the last phase of every protocol, for participant p: on each
// of p's confirmed edges in fn's direction (FnRedeem: those it receives
// on, FnRefund: those it sent), read the asset contract at p's tip; out
// of P, enter its terminal state in the ledger, once per edge; still in
// P, call fn with the edge's Secret once (a secret is fixed once known)
// and keep the call alive with EnsureTx. It reports whether this step
// entered the last edge, at CompletedAt.
func Settle(rt *Runtime, p *xchain.Participant, fn string) (completed bool) {
	dir, refund := 0, fn == contracts.FnRefund
	if refund {
		dir = 1
	}
	for i, e := range rt.cfg.Graph.Edges {
		l := &rt.edges[i]
		mine := e.To
		if refund {
			mine = e.From
		}
		if mine != p.Addr() || l.addr.IsZero() {
			continue
		}
		sc, ok := Contract[Asset](rt, p, e.Chain, l.addr, 0)
		if !ok {
			continue
		}
		c := &l.calls[dir]
		if sc.SwapState() != contracts.StatePublished {
			if c.tx != nil && !l.terminal {
				rt.seen(p, e.Chain, c.tx)
			}
			if l.terminal || !rt.cfg.Protocol.Terminal(p, fn, i, sc) {
				continue
			}
			l.terminal = true
			if rt.terminals++; rt.terminals == len(rt.edges) {
				rt.CompletedAt, completed = rt.Now(), true
			}
			continue
		}
		if c.tx == nil && rt.Now() >= c.retryAt {
			c.retryAt = rt.Now() + p.Client(e.Chain).ResubmitEvery
			if secret, err := rt.cfg.Protocol.Secret(p, fn, i, sc); err == nil {
				c.tx, _ = p.Client(e.Chain).Call(l.addr, fn, secret, 0) // no value: cannot fail
				rt.Event(i, fn+" submitted")
				rt.cfg.Protocol.OnSubmitted(p, fn, i)
			}
		}
		if c.tx == nil {
			rt.state(p).wait.wakeBy(c.retryAt)
			continue
		}
		rt.EnsureTx(p, e.Chain, c.tx, 0)
	}
	return completed
}

// Settled is SettledAt(0): quiescence at the tip.
func (rt *Runtime) Settled() bool { return rt.SettledAt(0) }

// SettledAt reports quiescence read depth blocks under the tips: a
// decision is final, no submitted deployment is still unconfirmed —
// EnsureTx keeps its transaction alive across forks, so the contract can
// still materialize after a refund decision (easily so under decision
// batching) and must then be refunded, not stranded — and every
// confirmed asset contract has left P on the ground-truth views. None
// confirmed is an abort with nothing at stake: a commit takes every edge
// confirmed.
func (rt *Runtime) SettledAt(depth int) bool {
	if !rt.Decided() {
		return false
	}
	for _, l := range rt.edges {
		if l.ownTx != nil && l.addr.IsZero() {
			return false // a deployment in flight
		}
	}
	_, settled := rt.AssetsSettled(depth)
	return settled
}

// AssetsSettled scans the confirmed asset contracts on the ground-truth
// views, in the canonical state depth blocks under each tip: settled
// reports that each is on-chain there and has left P, deployed that
// there is at least one. Unconfirmed edges are skipped — they are the
// caller's decision-semantics problem.
func (rt *Runtime) AssetsSettled(depth int) (deployed, settled bool) {
	for i, e := range rt.cfg.Graph.Edges {
		if rt.edges[i].addr.IsZero() {
			continue
		}
		ct, _ := rt.cfg.World.View(e.Chain).ContractAtDepth(rt.edges[i].addr, depth)
		if a, ok := ct.(Asset); !ok || a.SwapState() == contracts.StatePublished {
			return deployed, false // not that deep in the view yet, or still locked
		}
		deployed = true
	}
	return deployed, true
}

// Grade reads the asset contracts' terminal states from the ground-truth
// views and counts their canonical-chain deployments and calls (N deploys
// plus N redeem/refund calls — Section 6.2's baseline; miners exclude
// failing transactions, so these are exactly the operations participants
// paid fees for). The observation ends at the latest timeline event.
func (rt *Runtime) Grade() *xchain.Outcome {
	out := &xchain.Outcome{Start: rt.start, End: rt.start, Edges: make([]xchain.EdgeOutcome, 0, len(rt.edges))}
	for i, e := range rt.cfg.Graph.Edges {
		eo := xchain.EdgeOutcome{Edge: e}
		if addr := rt.edges[i].addr; !addr.IsZero() {
			view := rt.cfg.World.View(e.Chain)
			ct, ok := view.TipState().Contract(addr)
			eo.Deployed = ok
			if a, ok := ct.(Asset); ok {
				eo.State = a.SwapState()
			}
			d, c := view.ContractOps(map[crypto.Address]bool{addr: true})
			out.Deploys, out.Calls = out.Deploys+d, out.Calls+c
		}
		out.Edges = append(out.Edges, eo)
	}
	for _, ev := range rt.events {
		out.End = max(out.End, ev.At)
	}
	return out
}

// DecisionChain is the blockchain the decision's fate rides on. Absent
// a witness chain it is the first edge's asset chain: the initiator's
// own deposit, which an off-chain witness verifies first and a hashlock
// reveal's backward propagation ends on.
func (rt *Runtime) DecisionChain() chain.ID { return rt.cfg.Graph.Edges[0].Chain }

// victim is the default critical failure point: for every protocol
// without a trusted third party, a participant caught mid-decision —
// by convention the last one.
func (rt *Runtime) victim() *xchain.Participant {
	return rt.cfg.Participants[len(rt.cfg.Participants)-1]
}

// Crash takes down the run's critical failure point and reports who
// that is and whether the paper's Section 1 hazard has it come back: a
// participant's site restarts later.
func (rt *Runtime) Crash() (who string, comesBack bool) {
	rt.victim().Crash()
	return rt.victim().Name, true
}

// Arm arms one fault row (core.Runner): fire runs once, handed the
// protocol's hooks, when the run reaches at — or at once if it already
// has (AC3WN submits SCw inside Start). At most one row is armed;
// arming again replaces it.
func (rt *Runtime) Arm(at FaultPoint, fire func(Protocol)) {
	rt.fire, rt.armedAt = fire, at
	if rt.reached&(1<<at) != 0 {
		rt.Reach(at)
	}
}

// Reach is a protocol's site of point at: a row armed there fires once,
// in this virtual instant but after the step that reached it — a crash
// victim that pushed itself goes down between its steps, before
// anything carrying the push is delivered.
func (rt *Runtime) Reach(at FaultPoint) {
	rt.reached |= 1 << at
	if fire := rt.fire; fire != nil && rt.armedAt == at {
		rt.fire = nil
		rt.After(0, func() { fire(rt.cfg.Protocol) })
	}
}

// Recover restarts the participant Crash took down and resumes it.
func (rt *Runtime) Recover() {
	rt.victim().Recover()
	rt.Resume(rt.victim())
}

// FindCall scans p's canonical view of chain id newest-first for a call
// of fn on the contract whose decoded arguments satisfy match (nil
// matches everything) — how participants locate decision transactions
// (AC3WN's authorize_* evidence, the commit_batch whose decision set
// holds their own SCw) and extract revealed arguments (HTLC's secret)
// from chain state alone, which is what makes crash/resume work without
// local bookkeeping. A miss leaves p waiting for a call on the contract.
func (rt *Runtime) FindCall(p *xchain.Participant, id chain.ID, contract crypto.Address, fn string, match func(*chain.Tx) bool) (*chain.Tx, bool) {
	rt.state(p).wait.watchAddr(id, contract)
	view := p.Client(id).Chain()
	for h := view.Height(); ; h-- {
		b, ok := view.CanonicalAt(h)
		if !ok {
			break
		}
		for _, tx := range b.Txs {
			if tx.Kind == chain.TxCall && tx.Contract == contract && tx.Fn == fn && (match == nil || match(tx)) {
				return tx, true
			}
		}
		if h == 0 {
			break
		}
	}
	return nil, false
}
