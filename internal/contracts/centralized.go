package contracts

import (
	"errors"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/vm"
	"repro/internal/wire"
)

// CentralizedParams are the constructor parameters of Algorithm 2's
// CentralizedSC: both commitment scheme instances are the pair
// (ms(D), PK_T).
type CentralizedParams struct {
	Recipient crypto.Address
	// MSDigest identifies the multisigned AC2T graph ms(D) registered
	// at the trusted witness.
	MSDigest crypto.Hash
	// Witness is Trent's identity (derived from PK_T).
	Witness crypto.Address
}

const centralizedParamsLen = crypto.AddressSize + crypto.HashSize + crypto.AddressSize

// EncodedLen is the size of the wire form: Recipient, MSDigest,
// Witness.
func (p CentralizedParams) EncodedLen() int { return centralizedParamsLen }

// AppendTo appends the wire form to dst.
func (p CentralizedParams) AppendTo(dst []byte) []byte {
	dst = append(dst, p.Recipient[:]...)
	dst = append(dst, p.MSDigest[:]...)
	return append(dst, p.Witness[:]...)
}

// Encode serializes the parameters for a deployment transaction.
func (p CentralizedParams) Encode() []byte {
	return p.AppendTo(make([]byte, 0, centralizedParamsLen))
}

// Decode reverses Encode.
func (p *CentralizedParams) Decode(b []byte) error {
	r := wire.NewReader(b)
	r.Fill(p.Recipient[:])
	r.Fill(p.MSDigest[:])
	r.Fill(p.Witness[:])
	return r.Finish()
}

// CentralizedSC is the AC3TW asset contract (Algorithm 2): redeem
// against Trent's signature over (ms(D), RD), refund against Trent's
// signature over (ms(D), RF). Mutual exclusion of the two secrets is
// Trent's key/value store discipline, not the contract's.
type CentralizedSC struct {
	Sender    crypto.Address
	Recipient crypto.Address
	Asset     vm.Amount
	MSDigest  crypto.Hash
	Witness   crypto.Address
	State     SwapState
}

// Type implements vm.Contract.
func (c *CentralizedSC) Type() string { return TypeCentralized }

// Init implements the constructor (Algorithm 2, lines 1–4).
func (c *CentralizedSC) Init(ctx *vm.Ctx, params []byte) error {
	var p CentralizedParams
	if err := p.Decode(params); err != nil {
		return fmt.Errorf("ac3tw: params: %w", err)
	}
	if p.Recipient.IsZero() || p.Witness.IsZero() {
		return errors.New("ac3tw: zero recipient or witness")
	}
	if ctx.Msg.Value == 0 {
		return errors.New("ac3tw: no asset locked")
	}
	c.Sender = ctx.Msg.Sender
	c.Recipient = p.Recipient
	c.Asset = ctx.Msg.Value
	c.MSDigest = p.MSDigest
	c.Witness = p.Witness
	c.State = StatePublished
	return nil
}

// Call dispatches redeem/refund with an encoded witness signature as
// the commitment-scheme secret.
func (c *CentralizedSC) Call(ctx *vm.Ctx, fn string, args []byte) error {
	switch fn {
	case FnRedeem:
		if c.State != StatePublished {
			return fmt.Errorf("ac3tw: redeem in state %s", c.State)
		}
		if !c.isRedeemable(args) {
			return errors.New("ac3tw: invalid redemption signature")
		}
		if err := ctx.Pay(c.Recipient, c.Asset); err != nil {
			return err
		}
		c.State = StateRedeemed
		return nil
	case FnRefund:
		if c.State != StatePublished {
			return fmt.Errorf("ac3tw: refund in state %s", c.State)
		}
		if !c.isRefundable(args) {
			return errors.New("ac3tw: invalid refund signature")
		}
		if err := ctx.Pay(c.Sender, c.Asset); err != nil {
			return err
		}
		c.State = StateRefunded
		return nil
	default:
		return vm.ErrUnknownFunction(TypeCentralized, fn)
	}
}

// isRedeemable is Algorithm 2's IsRedeemable: verify Trent's
// signature over (ms(D), RD).
func (c *CentralizedSC) isRedeemable(secret []byte) bool {
	lock := crypto.SigLock{MSDigest: c.MSDigest, WitnessPub: c.Witness, Purpose: crypto.PurposeRedeem}
	return lock.Verify(secret)
}

// isRefundable is Algorithm 2's IsRefundable: verify Trent's
// signature over (ms(D), RF).
func (c *CentralizedSC) isRefundable(secret []byte) bool {
	lock := crypto.SigLock{MSDigest: c.MSDigest, WitnessPub: c.Witness, Purpose: crypto.PurposeRefund}
	return lock.Verify(secret)
}

// Clone implements vm.Contract.
func (c *CentralizedSC) Clone() vm.Contract { cp := *c; return &cp }
