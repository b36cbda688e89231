package contracts

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/merkle"
	"repro/internal/spv"
	"repro/internal/vm"
	"repro/internal/wire"
)

// PermissionlessParams are the constructor parameters of Algorithm
// 4's PermissionlessSC. They correspond to the (SCw, d) pair both
// commitment schemes are set to: where the coordinator lives, how to
// verify its chain, and how deep its state change must be buried.
type PermissionlessParams struct {
	// Recipient receives the asset on redemption.
	Recipient crypto.Address
	// WitnessChain identifies the witness network coordinating this
	// AC2T. Different AC2Ts may use different witness networks
	// (Section 5.2).
	WitnessChain chain.ID
	// WitnessCheckpoint is the encoded header of a stable block in
	// the witness chain — the in-contract validation anchor of
	// Section 4.3.
	WitnessCheckpoint []byte
	// SCw is the coordinator contract's address on the witness chain.
	SCw crypto.Address
	// Depth is d: evidence of SCw's state change counts only when its
	// block is buried under at least d witness-chain blocks.
	Depth int
	// Batch, when non-zero, is the batch-commitment contract on the
	// witness chain: redeem/refund then consume a membership proof for
	// this contract's (SCw, decision) leaf against a committed batch
	// root instead of evidence of a per-AC2T SCw call.
	Batch crypto.Address
}

// EncodedLen is the size of the wire form: Recipient, WitnessChain and
// WitnessCheckpoint behind u32 lengths, SCw, Depth as an int, Batch.
func (p PermissionlessParams) EncodedLen() int {
	return 3*crypto.AddressSize + wire.LenPrefix + len(p.WitnessChain) + wire.LenPrefix + len(p.WitnessCheckpoint) + wire.IntLen
}

// AppendTo appends the wire form to dst.
func (p PermissionlessParams) AppendTo(dst []byte) []byte {
	dst = append(dst, p.Recipient[:]...)
	dst = wire.AppendString(dst, string(p.WitnessChain))
	dst = wire.AppendBytes(dst, p.WitnessCheckpoint)
	dst = append(dst, p.SCw[:]...)
	dst = wire.AppendInt(dst, p.Depth)
	return append(dst, p.Batch[:]...)
}

// Encode serializes the parameters for a deployment transaction.
func (p PermissionlessParams) Encode() []byte { return p.AppendTo(make([]byte, 0, p.EncodedLen())) }

// Decode reverses Encode without allocating: WitnessChain and
// WitnessCheckpoint are views into b (package wire).
func (p *PermissionlessParams) Decode(b []byte) error {
	r := wire.NewReader(b)
	r.Fill(p.Recipient[:])
	p.WitnessChain = chain.ID(r.String())
	p.WitnessCheckpoint = r.Bytes()
	r.Fill(p.SCw[:])
	p.Depth = r.Int()
	r.Fill(p.Batch[:])
	return r.Finish()
}

// PermissionlessSC is the AC3WN asset contract (Algorithm 4). It has
// no timelock: its redeem and refund are conditioned exclusively on
// evidence of the witness contract's mutually exclusive states, so a
// crashed participant can recover and still redeem — the paper's
// all-or-nothing guarantee.
type PermissionlessSC struct {
	Swap
	WitnessChain      chain.ID
	WitnessCheckpoint []byte
	SCw               crypto.Address
	Depth             int
	Batch             crypto.Address // zero = per-AC2T SCw evidence
}

// Type implements vm.Contract.
func (c *PermissionlessSC) Type() string { return TypePermissionless }

// Init implements the Algorithm 4 constructor.
func (c *PermissionlessSC) Init(ctx *vm.Ctx, params []byte) error {
	var p PermissionlessParams
	if err := p.Decode(params); err != nil {
		return fmt.Errorf("ac3wn: params: %w", err)
	}
	if err := c.publish(ctx, "ac3wn", p.Recipient); err != nil {
		return err
	}
	if p.SCw.IsZero() {
		return errors.New("ac3wn: zero witness contract address")
	}
	if p.Depth < 0 {
		return errors.New("ac3wn: negative depth")
	}
	if _, err := chain.DecodeHeader(p.WitnessCheckpoint); err != nil {
		return fmt.Errorf("ac3wn: witness checkpoint: %w", err)
	}
	// p views the deployment transaction; state keeps its own copies.
	c.WitnessChain = chain.ID(strings.Clone(string(p.WitnessChain)))
	c.WitnessCheckpoint = bytes.Clone(p.WitnessCheckpoint)
	c.SCw, c.Depth, c.Batch = p.SCw, p.Depth, p.Batch
	return nil
}

// Call dispatches redeem/refund with SPV evidence of the witness
// contract's state as the argument.
func (c *PermissionlessSC) Call(ctx *vm.Ctx, fn string, args []byte) error {
	return c.call(ctx, c, "ac3wn", fn, args)
}

// isRedeemable is Algorithm 4's IsRedeemable: evidence of SCw in RDauth.
func (c *PermissionlessSC) isRedeemable(_ *vm.Ctx, evidence []byte) error {
	if err := c.verifyWitnessEvidence(evidence, FnAuthorizeRedeem); err != nil {
		return fmt.Errorf("ac3wn: redeem: %w", err)
	}
	return nil
}

// isRefundable is Algorithm 4's IsRefundable: evidence of SCw in RFauth.
func (c *PermissionlessSC) isRefundable(_ *vm.Ctx, evidence []byte) error {
	if err := c.verifyWitnessEvidence(evidence, FnAuthorizeRefund); err != nil {
		return fmt.Errorf("ac3wn: refund: %w", err)
	}
	return nil
}

// verifyWitnessEvidence is the check both predicates share: the
// evidence must prove that a successful call of wantFn on SCw is
// included in the witness chain at depth ≥ d, starting from the
// stored stable-block checkpoint. Because witness
// miners exclude failing calls from blocks, inclusion implies the
// state transition took effect; because SCw only allows P→RDauth or
// P→RFauth, at most one such call exists per fork; and because the
// evidence must be d-deep, fork ambiguity vanishes with probability
// 1−ε (Lemma 5.3).
func (c *PermissionlessSC) verifyWitnessEvidence(args []byte, wantFn string) error {
	if !c.Batch.IsZero() {
		return c.verifyBatchEvidence(args, wantFn)
	}
	tx, err := c.verifyWitnessTx(args)
	if err != nil {
		return err
	}
	if tx.Kind != chain.TxCall || tx.Contract != c.SCw || tx.Fn != wantFn {
		return fmt.Errorf("proven tx is not %s on the agreed SCw", wantFn)
	}
	return nil
}

// verifyBatchEvidence is the batched variant of IsRedeemable /
// IsRefundable: the argument is [SPV evidence, merkle proof, the call's
// arguments]. The SPV evidence must prove a successful commit_batch
// call on the agreed batch contract at depth ≥ d; since miners exclude
// failing calls, inclusion implies the batch contract verified
// canonical order, root, threshold attestation, and conflict-freedom
// against its decision ledger. Its id form proves the arguments by
// digest; the merkle proof ties this contract's (SCw, decision) leaf to
// their root — per-AC2T membership without a per-AC2T witness
// transaction. Mutual exclusion carries over: a conflicting record can
// never appear in a later committed batch (whole-batch rejection), so
// at most one decision leaf per SCw exists under any root per fork.
func (c *PermissionlessSC) verifyBatchEvidence(args []byte, wantFn string) error {
	parts, err := DecodeEvidenceList(args)
	if err != nil {
		return err
	}
	if len(parts) != 3 {
		return fmt.Errorf("batched evidence has %d parts, want [spv, proof, commit]", len(parts))
	}
	tx, err := c.verifyWitnessTx(parts[0])
	if err != nil {
		return err
	}
	if tx.Kind != chain.TxCall || tx.Contract != c.Batch || tx.Fn != FnCommitBatch {
		return errors.New("proven tx is not commit_batch on the agreed batch contract")
	}
	if d := crypto.Sum(parts[2]); !bytes.Equal(d[:], tx.Args) { // the id form's Args are their digest
		return errors.New("revealed commit_batch arguments are not the proven call's")
	}
	bc, err := DecodeBatchCommit(parts[2])
	if err != nil {
		return err
	}
	r := wire.NewReader(parts[1])
	leaf, root := merkle.ReadRoot(&r)
	if err := r.Finish(); err != nil {
		return fmt.Errorf("membership proof: %w", err)
	}
	var want WitnessState
	if wantFn == FnAuthorizeRedeem {
		want = WitnessRedeemAuthorized
	} else {
		want = WitnessRefundAuthorized
	}
	if leaf != merkle.LeafHash(DecisionLeaf(c.SCw, want)) || root != bc.Root {
		return fmt.Errorf("membership proof does not tie (SCw, %s) to the committed root", want)
	}
	return nil
}

// verifyWitnessTx runs the chain-level part of evidence verification
// shared by both paths: right witness chain, valid header path from
// the stored stable checkpoint, and burial depth ≥ d (Lemma 5.3).
func (c *PermissionlessSC) verifyWitnessTx(evidence []byte) (*chain.Tx, error) {
	checkpoint, err := chain.DecodeHeader(c.WitnessCheckpoint)
	if err != nil {
		return nil, fmt.Errorf("stored checkpoint corrupt: %w", err)
	}
	return spv.Verify(evidence, c.WitnessChain, checkpoint, c.Depth)
}

// Clone implements vm.Contract.
func (c *PermissionlessSC) Clone() vm.Contract {
	cp := *c
	cp.WitnessCheckpoint = append([]byte(nil), c.WitnessCheckpoint...)
	return &cp
}
