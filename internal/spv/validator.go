package spv

import (
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/merkle"
)

// Strategy enumerates the three cross-chain validation techniques of
// Section 4.3. All three are implemented so their storage costs can be
// compared (the paper argues the first two "do not scale as the number
// of blockchains increases").
type Strategy int

// The validation strategies.
const (
	// StrategyFullReplica: validator miners maintain a full copy of
	// the validated blockchain.
	StrategyFullReplica Strategy = iota
	// StrategyLightNode: validator miners run light nodes holding
	// only the validated chain's headers.
	StrategyLightNode
	// StrategyInContract: the paper's proposal — validation logic and
	// a single stable-block checkpoint live inside the validator
	// smart contract; evidence is submitted per transaction.
	StrategyInContract
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyFullReplica:
		return "full-replica"
	case StrategyLightNode:
		return "light-node"
	case StrategyInContract:
		return "in-contract"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// LightNode is a headers-only client of one blockchain (the
// alternative validator of Section 4.3, citing [9]): it downloads
// block headers, verifies their proof of work, tracks the longest
// header chain, and verifies transaction inclusion against it.
type LightNode struct {
	id       chain.ID
	headers  map[crypto.Hash]*chain.Header
	byHeight map[uint64]crypto.Hash // canonical (longest-chain) index
	tip      *chain.Header
}

// ErrUnknownHeader is returned when a parent link cannot be resolved.
var ErrUnknownHeader = errors.New("spv: unknown header")

// NewLightNode starts a light node trusting the given genesis header.
func NewLightNode(genesis *chain.Header) *LightNode {
	gh := genesis.Hash()
	return &LightNode{
		id:       genesis.ChainID,
		headers:  map[crypto.Hash]*chain.Header{gh: genesis},
		byHeight: map[uint64]crypto.Hash{genesis.Height: gh},
		tip:      genesis,
	}
}

// AddHeader verifies and stores a header, advancing the canonical tip
// when the new header extends the longest chain.
func (l *LightNode) AddHeader(h *chain.Header) error {
	if h.ChainID != l.id {
		return fmt.Errorf("spv: header from chain %q, want %q", h.ChainID, l.id)
	}
	hash := h.Hash()
	if _, dup := l.headers[hash]; dup {
		return nil
	}
	parent, ok := l.headers[h.Parent]
	if !ok {
		return fmt.Errorf("%w: parent %s", ErrUnknownHeader, h.Parent)
	}
	if h.Height != parent.Height+1 {
		return fmt.Errorf("spv: header height %d after parent %d", h.Height, parent.Height)
	}
	if !chain.MeetsTarget(hash, h.Bits) {
		return fmt.Errorf("spv: header fails proof of work")
	}
	l.headers[hash] = h
	if h.Height > l.tip.Height {
		l.tip = h
		// Rewind the canonical index along the new branch. Every stored
		// header is keyed by its hash, so an ancestor's hash is its
		// child's Parent — nothing is hashed again.
		for cur := h; l.byHeight[cur.Height] != hash; {
			l.byHeight[cur.Height] = hash
			if cur.Height == 0 {
				break
			}
			hash = cur.Parent
			cur = l.headers[hash]
		}
	}
	return nil
}

// Tip returns the canonical head header.
func (l *LightNode) Tip() *chain.Header { return l.tip }

// HeaderCount reports stored headers (storage-cost comparisons).
func (l *LightNode) HeaderCount() int { return len(l.headers) }

// VerifyInclusion checks that the transaction encoded in txBytes is
// included in the canonical block with the given hash and buried at
// least minDepth deep.
func (l *LightNode) VerifyInclusion(blockHash crypto.Hash, proof *merkle.Proof, txBytes []byte, minDepth int) (*chain.Tx, error) {
	h, ok := l.headers[blockHash]
	if !ok {
		return nil, fmt.Errorf("%w: block %s", ErrUnknownHeader, blockHash)
	}
	if l.byHeight[h.Height] != blockHash {
		return nil, evErr("block %s not canonical", blockHash)
	}
	if int(l.tip.Height-h.Height) < minDepth {
		return nil, evErr("block at depth %d, need %d", l.tip.Height-h.Height, minDepth)
	}
	tx, err := chain.DecodeTx(txBytes)
	if err != nil {
		return nil, evErr("tx bytes: %v", err)
	}
	id := tx.ID()
	if !proof.VerifyData(h.TxRoot, id[:]) {
		return nil, evErr("merkle proof fails")
	}
	return tx, nil
}

// StorageCost estimates the bytes a validator must persist per
// strategy to validate transactions on a chain with the given block
// count and mean block size (bytes). For StrategyInContract the
// persistent cost is a single checkpoint header; evidence is
// per-verification transient.
func StorageCost(s Strategy, blocks int, meanBlockBytes int, headerBytes int) int {
	switch s {
	case StrategyFullReplica:
		return blocks * meanBlockBytes
	case StrategyLightNode:
		return blocks * headerBytes
	case StrategyInContract:
		return headerBytes
	default:
		return 0
	}
}
