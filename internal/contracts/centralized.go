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
	Swap
	MSDigest crypto.Hash
	Witness  crypto.Address
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
	if err := c.publish(ctx, "ac3tw", p.Recipient); err != nil {
		return err
	}
	c.MSDigest, c.Witness = p.MSDigest, p.Witness
	return nil
}

// Call dispatches redeem/refund with an encoded witness signature as
// the commitment-scheme secret.
func (c *CentralizedSC) Call(ctx *vm.Ctx, fn string, args []byte) error {
	return c.call(ctx, c, "ac3tw", fn, args)
}

// isRedeemable is Algorithm 2's IsRedeemable: Trent's signature over
// (ms(D), RD).
func (c *CentralizedSC) isRedeemable(_ *vm.Ctx, sig []byte) error {
	return c.signedBy(sig, crypto.PurposeRedeem, "redemption")
}

// isRefundable is Algorithm 2's IsRefundable: Trent's signature over
// (ms(D), RF).
func (c *CentralizedSC) isRefundable(_ *vm.Ctx, sig []byte) error {
	return c.signedBy(sig, crypto.PurposeRefund, "refund")
}

// signedBy verifies sig against the scheme instance (ms(D), PK_T).
func (c *CentralizedSC) signedBy(sig []byte, p crypto.Purpose, what string) error {
	lock := crypto.SigLock{MSDigest: c.MSDigest, WitnessPub: c.Witness, Purpose: p}
	if !lock.Verify(sig) {
		return errors.New("ac3tw: invalid " + what + " signature")
	}
	return nil
}

// Clone implements vm.Contract.
func (c *CentralizedSC) Clone() vm.Contract { cp := *c; return &cp }
