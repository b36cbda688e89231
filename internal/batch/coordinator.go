// Package batch implements witness-side decision batching: instead of
// one witness-chain transaction per AC2T decision, a Coordinator
// collects the decisions that arrive within a virtual-time window,
// commits the canonical-ordered set under one merkle root, gathers an
// m-of-n threshold attestation from the witness quorum over that root,
// and publishes a single commit_batch transaction (the Celestia
// QGB-style data commitment borrowed via SNIPPETS.md). Participants
// then unlock asset contracts with membership proofs against the
// committed root — per-AC2T work leaves the witness chain.
//
// The Coordinator models the witness quorum's aggregator the way
// core.Trent models the trusted witness: an in-process actor on the
// shared simulator with its own chain client. Witness-side evidence
// verification (Algorithm 3's VerifyContracts) moves off-chain into
// the quorum — on-chain, miners verify only canonical order, the
// root, the threshold attestation, and conflict-freedom against the
// batch contract's decision ledger.
package batch

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/miner"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// The witness quorum: n witnesses, of which exactly m attest each
// batch (a 2/3+ majority).
const (
	witnesses = 4
	threshold = 3
)

// Config parameterizes a Coordinator.
type Config struct {
	// Window is the collection window: a batch is published Window
	// after its first pending decision arrived.
	Window sim.Time
	// StableDepth is how deep a published batch must be buried before
	// the Coordinator stops watching it for reorgs.
	StableDepth int
}

// trackedBatch is a published commitment not yet buried StableDepth.
type trackedBatch struct {
	tx       *chain.Tx
	seen     bool // observed on the canonical chain at least once
	lastPush sim.Time
}

// Coordinator batches AC2T decisions into merkle-committed,
// threshold-attested witness transactions. All methods must run on
// the simulator goroutine (like every actor in this codebase).
type Coordinator struct {
	cfg      Config
	s        *sim.Sim
	client   *miner.Client
	keys     []*crypto.KeyPair
	addrs    []crypto.Address
	contract crypto.Address

	pending    map[crypto.Address]contracts.WitnessState
	decided    map[crypto.Address]contracts.WitnessState
	tracked    map[crypto.Hash]*trackedBatch
	flushArmed bool
	sub        miner.Sub
	closed     bool

	// Deterministic counters, read by the engine at shard end.
	BatchesPublished int
	BatchDecisions   int
	Republishes      int
	BytesPublished   int
}

// New creates a Coordinator on the world's witness chain with a
// deterministic witness quorum derived from seed, deploys the batch
// contract, and starts watching for reorgs. The contract address is
// available immediately (before confirmation) for wiring into asset
// contract parameters.
func New(w *xchain.World, witnessChain chain.ID, seed uint64, cfg Config) (*Coordinator, error) {
	if cfg.StableDepth <= 0 {
		return nil, errors.New("batch: non-positive stable depth")
	}
	if cfg.Window <= 0 {
		return nil, errors.New("batch: non-positive window")
	}
	rng := sim.NewRNG(seed) //ac3:globalrand seed parameter descends from the shard seed (engine forks it per world; ADR-008)
	c := &Coordinator{
		cfg:     cfg,
		s:       w.Sim,
		keys:    make([]*crypto.KeyPair, witnesses),
		addrs:   make([]crypto.Address, witnesses),
		pending: make(map[crypto.Address]contracts.WitnessState),
		decided: make(map[crypto.Address]contracts.WitnessState),
		tracked: make(map[crypto.Hash]*trackedBatch),
	}
	for i := range c.keys {
		c.keys[i] = crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
		c.addrs[i] = c.keys[i].Addr
	}
	c.client = miner.NewClient(w.Net(witnessChain), 0, c.keys[0])
	_, addr, err := c.client.Deploy(contracts.TypeBatchWitness, contracts.BatchWitnessParams{
		Witnesses: c.addrs,
		Threshold: threshold,
	}.Encode(), 0)
	if err != nil {
		c.client.Close()
		return nil, fmt.Errorf("batch: deploy: %w", err)
	}
	c.contract = addr
	if err := c.client.Watch(&c.sub, miner.TipFunc(c.check)); err != nil {
		c.client.Close()
		return nil, fmt.Errorf("batch: watch: %w", err)
	}
	return c, nil
}

// Addr returns the batch contract's address on the witness chain.
func (c *Coordinator) Addr() crypto.Address { return c.contract }

// Submit records one AC2T decision for the next batch. The first
// decision per SCw wins — a later conflicting submission (the race
// scenario's rogue refund) is dropped, mirroring the whole-batch
// conflict rejection the contract enforces on-chain. The first
// pending decision arms the window timer.
func (c *Coordinator) Submit(scw crypto.Address, decision contracts.WitnessState) {
	if c.closed || scw.IsZero() {
		return
	}
	if decision != contracts.WitnessRedeemAuthorized && decision != contracts.WitnessRefundAuthorized {
		return
	}
	if _, dup := c.decided[scw]; dup {
		return
	}
	if _, dup := c.pending[scw]; dup {
		return
	}
	c.pending[scw] = decision
	if !c.flushArmed {
		c.flushArmed = true
		c.s.After(c.cfg.Window, c.flush)
	}
}

// flush publishes the pending decision set as one commit_batch
// transaction. If the batch contract's deployment is not yet in chain
// state the flush re-arms — commit_batch would bounce off miners
// until the deployment applies.
func (c *Coordinator) flush() {
	if c.closed {
		return
	}
	if len(c.pending) == 0 {
		c.flushArmed = false
		return
	}
	if _, ok := c.client.ContractNow(c.contract, 0); !ok {
		c.s.After(c.cfg.Window, c.flush)
		return
	}
	records := make([]contracts.DecisionRecord, 0, len(c.pending))
	for scw, d := range c.pending {
		records = append(records, contracts.DecisionRecord{SCw: scw, Decision: d})
	}
	contracts.SortDecisionRecords(records)
	root := contracts.BatchRoot(records)
	ms := crypto.NewMultiSig(root)
	// Exactly m of n witnesses attest: the threshold check is the
	// security boundary, so the model never over-signs past it.
	for _, k := range c.keys[:threshold] {
		ms.Add(k)
	}
	args := contracts.EncodeBatchCommit(&contracts.BatchCommit{
		Records:     records,
		Root:        root,
		Attestation: *ms,
	})
	tx, err := c.client.Call(c.contract, contracts.FnCommitBatch, args, 0)
	if err != nil {
		// Client halted or closed: retry the same pending set after
		// another window rather than losing the decisions.
		c.s.After(c.cfg.Window, c.flush)
		return
	}
	for scw, d := range c.pending {
		c.decided[scw] = d
	}
	c.pending = make(map[crypto.Address]contracts.WitnessState)
	c.flushArmed = false
	c.BatchesPublished++
	c.BatchDecisions += len(records)
	c.BytesPublished += tx.EncodedLen()
	c.tracked[tx.ID()] = &trackedBatch{tx: tx, lastPush: c.s.Now()}
}

// check runs on every witness-chain tip change: published batches are
// watched until StableDepth. A batch reorged off the canonical chain
// is re-published (counted in Republishes) instead of silently
// stranding every AC2T whose proof hangs off its root; a batch that
// never lands for a whole resubmit window (mempool wipe under
// partition) is quietly re-multicast, mirroring EnsureTx. The handful of
// tracked batches is re-read whole; what the tip change was is not used.
func (c *Coordinator) check(miner.TipSummary) {
	if c.closed || len(c.tracked) == 0 {
		return
	}
	view := c.client.Chain()
	// Deterministic iteration: sorted by tx id.
	ids := make([]crypto.Hash, 0, len(c.tracked))
	for id := range c.tracked {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b crypto.Hash) int { return bytes.Compare(a[:], b[:]) })
	now := c.s.Now()
	for _, id := range ids {
		tb := c.tracked[id]
		depth, onChain := view.TxDepth(id)
		switch {
		case onChain && depth >= c.cfg.StableDepth:
			delete(c.tracked, id)
		case onChain:
			tb.seen = true
		case tb.seen:
			// Reorged out below StableDepth: republish. Re-recording
			// the overlap is idempotent on the contract, so the same
			// transaction goes straight back to the mempool.
			c.client.Submit(tb.tx)
			tb.seen = false
			tb.lastPush = now
			c.Republishes++
		case now-tb.lastPush >= c.client.ResubmitEvery:
			c.client.Submit(tb.tx)
			tb.lastPush = now
		}
	}
}

// Close releases the coordinator's client and watches at engine
// retirement. Terminal, like Trent.Close.
func (c *Coordinator) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.sub.Cancel()
	c.client.Close()
	c.pending = nil
	c.decided = nil
	c.tracked = nil
}
