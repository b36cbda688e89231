// Package spv implements the cross-chain evidence validation of
// Section 4.3: a validator (a contract, or the miners of another
// blockchain) verifies that a transaction took place in a validated
// blockchain without maintaining a copy of it.
//
// The package provides the paper's proposed technique — a stable-block
// checkpoint stored in the validator, plus submitted evidence carrying
// the header chain from that checkpoint through the block of interest
// and d confirmation blocks, each header's proof of work verified, and
// a Merkle inclusion proof of the transaction — together with the two
// alternatives the paper discusses (full replication and light nodes)
// so they can be compared.
package spv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/merkle"
)

// Evidence proves that a transaction occurred in a validated
// blockchain and is buried at least Depth blocks deep. It is entirely
// self-contained: verification needs only the validator's stored
// checkpoint header, no access to the validated chain.
type Evidence struct {
	// ChainID of the validated blockchain.
	ChainID chain.ID
	// Headers is the canonical header chain starting at the child of
	// the checkpoint and ending at the validated chain's tip, oldest
	// first. It must connect hash-to-hash and each header must meet
	// its proof-of-work target.
	Headers []*chain.Header
	// TxIndexInBlock and TxBlockOffset locate the transaction: the
	// block at Headers[TxBlockOffset] contains it at index
	// TxIndexInBlock.
	TxBlockOffset int
	// TxBytes is the full encoded transaction (the verifier decodes
	// and inspects it — e.g. the witness contract checks an asset
	// contract's constructor parameters).
	TxBytes []byte
	// Proof is the Merkle inclusion proof of the transaction id under
	// the block's TxRoot.
	Proof *merkle.Proof
}

// Verification errors.
var (
	ErrBadEvidence = errors.New("spv: invalid evidence")
)

func evErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadEvidence, fmt.Sprintf(format, args...))
}

// Verify checks the evidence against a trusted checkpoint header (the
// "stable block" stored in the validator smart contract) and a
// required confirmation depth d. On success it returns the decoded
// transaction of interest.
//
// Checks, in the order the paper gives them: the headers follow the
// checkpoint hash-to-hash; each header's proof of work is valid; the
// transaction is Merkle-included in one of them; and that block is
// buried under at least minDepth following headers.
func (e *Evidence) Verify(checkpoint *chain.Header, minDepth int) (*chain.Tx, error) {
	if e == nil || checkpoint == nil {
		return nil, evErr("missing evidence or checkpoint")
	}
	if e.ChainID != checkpoint.ChainID {
		return nil, evErr("evidence for chain %q, checkpoint for %q", e.ChainID, checkpoint.ChainID)
	}
	if len(e.Headers) == 0 {
		return nil, evErr("no headers")
	}
	prevHash := checkpoint.Hash()
	prevHeight := checkpoint.Height
	for i, h := range e.Headers {
		if h.ChainID != e.ChainID {
			return nil, evErr("header %d from chain %q", i, h.ChainID)
		}
		if h.Parent != prevHash {
			return nil, evErr("header %d does not link to its parent", i)
		}
		if h.Height != prevHeight+1 {
			return nil, evErr("header %d height %d, want %d", i, h.Height, prevHeight+1)
		}
		hash := h.Hash() // once: the PoW digest is also the next link
		if !chain.MeetsTarget(hash, h.Bits) {
			return nil, evErr("header %d fails proof of work", i)
		}
		prevHash = hash
		prevHeight = h.Height
	}
	if e.TxBlockOffset < 0 || e.TxBlockOffset >= len(e.Headers) {
		return nil, evErr("tx block offset %d out of range", e.TxBlockOffset)
	}
	depth := len(e.Headers) - 1 - e.TxBlockOffset
	if depth < minDepth {
		return nil, evErr("tx buried %d deep, need %d", depth, minDepth)
	}
	tx, err := chain.DecodeTx(e.TxBytes)
	if err != nil {
		return nil, evErr("tx bytes: %v", err)
	}
	id := tx.ID()
	if !e.Proof.VerifyData(e.Headers[e.TxBlockOffset].TxRoot, id[:]) {
		return nil, evErr("merkle proof fails for tx %s", id)
	}
	return tx, nil
}

// Build assembles evidence for txID from a node's chain view, anchored
// at the given checkpoint block hash (which must be canonical). It
// fails if the transaction is not canonical, not a descendant of the
// checkpoint, or not yet buried minDepth deep — the caller should wait
// and retry, exactly as a participant waits for stability before
// submitting evidence.
func Build(view *chain.Chain, checkpointHash crypto.Hash, txID crypto.Hash, minDepth int) (*Evidence, error) {
	cp, ok := view.Block(checkpointHash)
	if !ok || !view.IsCanonical(checkpointHash) {
		return nil, evErr("checkpoint %s not on canonical chain", checkpointHash)
	}
	b, txIdx, ok := view.FindTx(txID)
	if !ok {
		return nil, evErr("tx %s not on canonical chain", txID)
	}
	if b.Header.Height <= cp.Header.Height {
		return nil, evErr("tx block at height %d not after checkpoint %d", b.Header.Height, cp.Header.Height)
	}
	depth, _ := view.DepthOf(b.Hash())
	if depth < minDepth {
		return nil, evErr("tx at depth %d, need %d", depth, minDepth)
	}
	headers, ok := view.HeadersFrom(checkpointHash)
	if !ok {
		return nil, evErr("cannot assemble headers from checkpoint")
	}
	proof, err := b.ProveTx(txIdx)
	if err != nil {
		return nil, evErr("prove tx: %v", err)
	}
	return &Evidence{
		ChainID:       view.Params().ID,
		Headers:       headers,
		TxBlockOffset: int(b.Header.Height - cp.Header.Height - 1),
		TxBytes:       b.Txs[txIdx].Encode(),
		Proof:         proof,
	}, nil
}

// Encode serializes evidence for embedding in a contract-call
// argument. Contracts receive opaque bytes, mirroring calldata.
func (e *Evidence) Encode() []byte {
	var buf bytes.Buffer
	var u32 [4]byte
	writeBytes := func(b []byte) {
		binary.BigEndian.PutUint32(u32[:], uint32(len(b)))
		buf.Write(u32[:])
		buf.Write(b)
	}
	writeBytes([]byte(e.ChainID))
	binary.BigEndian.PutUint32(u32[:], uint32(len(e.Headers)))
	buf.Write(u32[:])
	for _, h := range e.Headers {
		writeBytes(h.Encode())
	}
	binary.BigEndian.PutUint32(u32[:], uint32(e.TxBlockOffset))
	buf.Write(u32[:])
	writeBytes(e.TxBytes)
	// Merkle proof.
	binary.BigEndian.PutUint32(u32[:], uint32(e.Proof.Index))
	buf.Write(u32[:])
	buf.Write(e.Proof.Leaf[:])
	binary.BigEndian.PutUint32(u32[:], uint32(len(e.Proof.Siblings)))
	buf.Write(u32[:])
	for i, s := range e.Proof.Siblings {
		buf.Write(s[:])
		if e.Proof.Lefts[i] {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

// Decode reverses Encode.
func Decode(b []byte) (*Evidence, error) {
	r := &reader{b: b}
	e := &Evidence{}
	id, err := r.bytes()
	if err != nil {
		return nil, evErr("chain id: %v", err)
	}
	e.ChainID = chain.ID(id)
	nHeaders, err := r.u32()
	if err != nil {
		return nil, evErr("header count: %v", err)
	}
	if int(nHeaders) > len(b) {
		return nil, evErr("implausible header count %d", nHeaders)
	}
	for i := uint32(0); i < nHeaders; i++ {
		hb, err := r.bytes()
		if err != nil {
			return nil, evErr("header %d: %v", i, err)
		}
		h, err := chain.DecodeHeader(hb)
		if err != nil {
			return nil, evErr("header %d: %v", i, err)
		}
		e.Headers = append(e.Headers, h)
	}
	off, err := r.u32()
	if err != nil {
		return nil, evErr("tx offset: %v", err)
	}
	e.TxBlockOffset = int(off)
	if e.TxBytes, err = r.bytes(); err != nil {
		return nil, evErr("tx bytes: %v", err)
	}
	p := &merkle.Proof{}
	idx, err := r.u32()
	if err != nil {
		return nil, evErr("proof index: %v", err)
	}
	p.Index = int(idx)
	if err := r.hash(&p.Leaf); err != nil {
		return nil, evErr("proof leaf: %v", err)
	}
	nSib, err := r.u32()
	if err != nil {
		return nil, evErr("sibling count: %v", err)
	}
	if int(nSib) > len(b) {
		return nil, evErr("implausible sibling count %d", nSib)
	}
	for i := uint32(0); i < nSib; i++ {
		var h crypto.Hash
		if err := r.hash(&h); err != nil {
			return nil, evErr("sibling %d: %v", i, err)
		}
		side, err := r.u8()
		if err != nil {
			return nil, evErr("sibling side %d: %v", i, err)
		}
		p.Siblings = append(p.Siblings, h)
		p.Lefts = append(p.Lefts, side == 1)
	}
	e.Proof = p
	if r.remaining() != 0 {
		return nil, evErr("%d trailing bytes", r.remaining())
	}
	return e, nil
}

// reader is a bounds-checked decode cursor.
type reader struct {
	b   []byte
	pos int
}

func (r *reader) remaining() int { return len(r.b) - r.pos }

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("truncated (need %d, have %d)", n, r.remaining())
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *reader) u8() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	b, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

func (r *reader) hash(h *crypto.Hash) error {
	b, err := r.take(crypto.HashSize)
	if err != nil {
		return err
	}
	copy(h[:], b)
	return nil
}
