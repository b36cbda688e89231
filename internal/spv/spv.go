// Package spv implements the cross-chain evidence validation of
// Section 4.3: a validator (a contract, or the miners of another
// blockchain) verifies that a transaction took place in a validated
// blockchain without maintaining a copy of it.
//
// The package provides the paper's proposed technique: a stable-block
// checkpoint stored in the validator, plus submitted evidence carrying
// the header chain from that checkpoint to the validated chain's tip,
// each header's proof of work verified, and a Merkle inclusion proof of
// the transaction, whose block at least d of those headers bury. The
// two alternatives the paper argues do not scale (full replication,
// light nodes) are not implemented: the validators that run are the
// contracts themselves.
package spv

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/merkle"
	"repro/internal/sim"
	"repro/internal/wire"
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
	// its proof-of-work target. Only the first travels whole (ADR-027):
	// every later header is its link — time, tx root, nonce — and the
	// header before it implies the rest, so a list that does not
	// connect has no wire form.
	Headers []*chain.Header
	// TxIndexInBlock and TxBlockOffset locate the transaction: the
	// block at Headers[TxBlockOffset] contains it at index
	// TxIndexInBlock.
	TxBlockOffset int
	// TxBytes is the transaction's id form (chain.Tx.AppendIDForm):
	// what the verifier inspects — a deployment's parameters, a call's
	// target and function — with a call's arguments as their digest.
	// Decode sets it; Build keeps the block's transaction instead,
	// encoded in place unless TxBytes is set.
	TxBytes []byte
	// Proof is the Merkle inclusion proof of the transaction id under
	// the block's TxRoot.
	Proof *merkle.Proof
	tx    *chain.Tx // the proven transaction, from Build
}

// Verification errors.
var (
	ErrBadEvidence = errors.New("spv: invalid evidence")
)

func evErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadEvidence, fmt.Sprintf(format, args...))
}

// Verify checks evidence where it lies, in its wire form b, against the
// chain it must come from, a trusted checkpoint header (the "stable
// block" stored in the validator smart contract) and a required
// confirmation depth d. On success it returns the decoded transaction.
//
// After a pass that reads b as strictly as Decode, the checks, in the
// order the paper gives them: the headers follow the checkpoint
// hash-to-hash at its difficulty (a later header is rebuilt from its link
// onto the hash of the one before it, so only the first can fail to);
// each header's proof of work is valid; the transaction, its id
// recomputed from the id form, is Merkle-included in one of them; and
// that block is buried under at least minDepth following headers.
// Each header is decoded onto the stack: only the transaction allocates.
func Verify(b []byte, want chain.ID, checkpoint *chain.Header, minDepth int) (*chain.Tx, error) {
	r := wire.NewReader(b)
	id := chain.ID(r.String())
	n := r.Count(linkLen)
	headers := r // the second pass starts here
	var h chain.Header
	for i := 0; i < n; i++ {
		readHeader(&r, &h, i, crypto.Hash{})
	}
	offset := int(r.U32())
	txBytes := r.Bytes()
	leaf, root := merkle.ReadRoot(&r)
	if err := r.Finish(); err != nil {
		return nil, evErr("%v", err)
	}
	if id != want {
		return nil, evErr("evidence from chain %s, want %s", id, want)
	}
	if id != checkpoint.ChainID {
		return nil, evErr("evidence for chain %q, checkpoint for %q", id, checkpoint.ChainID)
	}
	if n == 0 {
		return nil, evErr("no headers")
	}
	prevHash := checkpoint.Hash()
	var txRoot crypto.Hash
	for i := 0; i < n; i++ {
		readHeader(&headers, &h, i, prevHash)
		if i == 0 {
			switch {
			case h.ChainID != id:
				return nil, evErr("header 0 from chain %q", h.ChainID)
			case h.Parent != prevHash:
				return nil, evErr("header 0 does not link to the checkpoint")
			case h.Height != checkpoint.Height+1:
				return nil, evErr("header 0 height %d, want %d", h.Height, checkpoint.Height+1)
			case h.Bits != checkpoint.Bits: // a chain's difficulty is fixed: the links inherit it
				return nil, evErr("header 0 difficulty %d, want the checkpoint's %d", h.Bits, checkpoint.Bits)
			}
		}
		hash := h.Hash() // once: the PoW digest is also the next link's parent
		if !chain.MeetsTarget(hash, h.Bits) {
			return nil, evErr("header %d fails proof of work", i)
		}
		if i == offset {
			txRoot = h.TxRoot
		}
		prevHash = hash
	}
	if offset >= n {
		return nil, evErr("tx block offset %d out of range", offset)
	}
	if depth := n - 1 - offset; depth < minDepth {
		return nil, evErr("tx buried %d deep, need %d", depth, minDepth)
	}
	tx, err := chain.DecodeTx(txBytes)
	if err != nil {
		return nil, evErr("tx bytes: %v", err)
	}
	if tx.IDFormLen() != len(txBytes) {
		return nil, evErr("tx bytes carry the call's arguments, not the id form")
	}
	txID := tx.ID()
	if leaf != merkle.LeafHash(txID[:]) || root != txRoot {
		return nil, evErr("merkle proof fails for tx %s", txID)
	}
	return tx, nil
}

// Verify is the package's Verify over the evidence's own encoding.
func (e *Evidence) Verify(checkpoint *chain.Header, minDepth int) (*chain.Tx, error) {
	if e == nil || e.Proof == nil || checkpoint == nil {
		return nil, evErr("missing evidence or checkpoint")
	}
	return Verify(e.Encode(), e.ChainID, checkpoint, minDepth)
}

// readHeader reads header i of an evidence chain into h, which holds
// header i-1: header 0 whole behind its length, a later one as its link,
// completed by the fields header i-1 implies and its hash, parent.
func readHeader(r *wire.Reader, h *chain.Header, i int, parent crypto.Hash) {
	if i == 0 {
		hr := wire.NewReader(r.Bytes())
		h.DecodeFrom(&hr)
		if err := hr.Finish(); err != nil {
			r.Failf("header 0: %v", err)
		}
		return
	}
	h.Parent = parent
	h.Height++
	h.Time = sim.Time(r.U64())
	r.Fill(h.TxRoot[:])
	h.Nonce = r.U64()
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
		Proof:         proof,
		tx:            b.Txs[txIdx],
	}, nil
}

// EncodedLen is the size of the evidence's wire form: chain id, u32
// header count, the first header behind its u32 length and every later
// one as its link, u32 block offset, the transaction bytes behind their
// u32 length, then the merkle proof.
func (e *Evidence) EncodedLen() int {
	n := wire.LenPrefix + len(e.ChainID) + wire.LenPrefix
	if len(e.Headers) > 0 {
		n += wire.LenPrefix + e.Headers[0].EncodedLen() + (len(e.Headers)-1)*linkLen
	}
	if e.TxBytes == nil && e.tx != nil {
		n += e.tx.IDFormLen()
	}
	return n + wire.LenPrefix + wire.LenPrefix + len(e.TxBytes) + e.Proof.EncodedLen()
}

// AppendTo appends the wire form to dst; headers, the transaction and
// the proof are written straight into it.
func (e *Evidence) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, string(e.ChainID))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.Headers)))
	for i, h := range e.Headers {
		if i == 0 {
			dst = h.AppendTo(binary.BigEndian.AppendUint32(dst, uint32(h.EncodedLen())))
			continue
		}
		dst = binary.BigEndian.AppendUint64(dst, uint64(h.Time))
		dst = append(dst, h.TxRoot[:]...)
		dst = binary.BigEndian.AppendUint64(dst, h.Nonce)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(e.TxBlockOffset))
	if e.TxBytes == nil && e.tx != nil {
		dst = e.tx.AppendIDForm(binary.BigEndian.AppendUint32(dst, uint32(e.tx.IDFormLen())))
	} else {
		dst = wire.AppendBytes(dst, e.TxBytes)
	}
	return e.Proof.AppendTo(dst)
}

// Encode serializes evidence for embedding in a contract-call
// argument, in one exact-size allocation. Contracts receive opaque
// bytes, mirroring calldata.
func (e *Evidence) Encode() []byte { return e.AppendTo(make([]byte, 0, e.EncodedLen())) }

// linkLen is the size of a header after the first on the wire: the
// fields the header before it does not imply, its time, tx root and
// nonce. Chain id, difficulty and height are the previous header's, and
// the parent is its hash.
const linkLen = 8 + crypto.HashSize + 8

// Decode reverses Encode. The evidence aliases b (package wire): the
// transaction bytes and the chain ids are views into it. The headers
// land in one backing array, each link completed by hashing the header
// before it.
func Decode(b []byte) (*Evidence, error) {
	r := wire.NewReader(b)
	e := &Evidence{ChainID: chain.ID(r.String())}
	if n := r.Count(linkLen); n > 0 {
		headers := make([]chain.Header, n)
		e.Headers = make([]*chain.Header, n)
		for i := range headers {
			var parent crypto.Hash
			if i > 0 {
				headers[i] = headers[i-1]
				parent = headers[i-1].Hash()
			}
			readHeader(&r, &headers[i], i, parent)
			e.Headers[i] = &headers[i]
		}
	}
	e.TxBlockOffset = int(r.U32())
	e.TxBytes = r.Bytes()
	e.Proof = &merkle.Proof{}
	e.Proof.DecodeFrom(&r)
	if err := r.Finish(); err != nil {
		return nil, evErr("%v", err)
	}
	return e, nil
}
