// Package chain implements the open-blockchain storage layer of
// Section 2: a tamper-proof chain of blocks holding a UTXO asset
// ledger (Figures 2 and 3's merge/split transaction model) and smart
// contracts (via the vm package), with real proof-of-work headers,
// fork creation and longest-chain resolution, and per-block reorg-safe
// state.
//
// Each simulated network node owns its own *Chain view; blocks are
// immutable and shared between views, while tips, canonical indexes
// and state caches are per view. Because the whole system runs on a
// sequential discrete-event simulator (see internal/sim), no locking
// is needed.
package chain

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/vm"
)

// ID names a blockchain (e.g. "bitcoin-sim"). AC2T edges carry the ID
// of the chain their sub-transaction executes on.
type ID string

// Params configures one simulated blockchain.
type Params struct {
	ID ID

	// BlockInterval is the mean inter-block time of the whole network
	// (exponentially distributed, split across miners by hash power).
	BlockInterval sim.Time

	// DifficultyBits is the number of leading zero bits a valid header
	// hash must have. It provides *verifiable* work for SPV evidence;
	// mining rate in the simulation is governed by BlockInterval, not
	// by grinding speed (see DESIGN.md decision 3).
	DifficultyBits int

	// MaxBlockTxs caps transactions per block (excluding the
	// coinbase); together with BlockInterval it calibrates the chain's
	// throughput in tps for the Table 1 experiments.
	MaxBlockTxs int

	// ConfirmDepth is the default stability depth d: a block buried
	// under d blocks is considered stable (≥ 6 in Bitcoin, per the
	// paper).
	ConfirmDepth int

	// BlockReward is the coinbase subsidy minted to the miner of each
	// block ("new bitcoins are generated ... through mining").
	BlockReward vm.Amount

	// PruneDepth is the executor's state-GC horizon: per-block ledger
	// states buried deeper than PruneDepth below *every* live view's
	// tip are dropped — only the block's own delta is kept — and
	// re-derived from the deltas on the rare deep read. 0 disables
	// pruning (retain every state forever, the pre-GC behavior). When
	// enabled it must clear ConfirmDepth, or stability reads at depth d
	// would re-derive a state on every call.
	PruneDepth int

	// RetireDepth is the executor's history-GC horizon: whole blocks
	// (bodies, headers, and their index entries) buried deeper than
	// RetireDepth below every live view's tip are released outright,
	// after their deltas are folded into the floor state everything
	// above is re-derived from — the pruned-full-node model. Retired
	// history is
	// gone: FindTx misses, StateAt returns false, and a reorg past the
	// floor is rejected, so RetireDepth must exceed any plausible
	// reorg AND the block-count lifetime of a transaction (watch,
	// resubmit, and evidence windows all read recent history only).
	// 0 disables retirement; enabling it requires PruneDepth > 0 and
	// RetireDepth > PruneDepth.
	RetireDepth int
}

// Validate reports configuration errors early.
func (p Params) Validate() error {
	switch {
	case p.ID == "":
		return fmt.Errorf("chain: params missing ID")
	case p.BlockInterval <= 0:
		return fmt.Errorf("chain %s: BlockInterval must be positive", p.ID)
	case p.DifficultyBits < 0 || p.DifficultyBits > 32:
		return fmt.Errorf("chain %s: DifficultyBits %d out of [0,32]", p.ID, p.DifficultyBits)
	case p.MaxBlockTxs <= 0:
		return fmt.Errorf("chain %s: MaxBlockTxs must be positive", p.ID)
	case p.ConfirmDepth < 0:
		return fmt.Errorf("chain %s: ConfirmDepth must be non-negative", p.ID)
	case p.PruneDepth < 0:
		return fmt.Errorf("chain %s: PruneDepth must be non-negative (0 disables pruning)", p.ID)
	case p.PruneDepth > 0 && p.PruneDepth <= p.ConfirmDepth:
		return fmt.Errorf("chain %s: PruneDepth %d must exceed ConfirmDepth %d", p.ID, p.PruneDepth, p.ConfirmDepth)
	case p.RetireDepth < 0:
		return fmt.Errorf("chain %s: RetireDepth must be non-negative (0 disables history retirement)", p.ID)
	case p.RetireDepth > 0 && p.PruneDepth == 0:
		return fmt.Errorf("chain %s: RetireDepth %d requires state pruning (PruneDepth > 0)", p.ID, p.RetireDepth)
	case p.RetireDepth > 0 && p.RetireDepth <= p.PruneDepth:
		return fmt.Errorf("chain %s: RetireDepth %d must exceed PruneDepth %d", p.ID, p.RetireDepth, p.PruneDepth)
	}
	return nil
}

// DefaultParams returns sensible simulation defaults: a 10-second
// block interval (virtual), 12 bits of work, 6-deep confirmation.
func DefaultParams(id ID) Params {
	return Params{
		ID:             id,
		BlockInterval:  10 * sim.Second,
		DifficultyBits: 12,
		MaxBlockTxs:    1000,
		ConfirmDepth:   6,
		BlockReward:    50,
	}
}
