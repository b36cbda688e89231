package contracts

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/vm"
	"repro/internal/wire"
)

// HTLCParams are the constructor parameters of an HTLC deployment.
// The sender and locked asset come from the deployment message
// (msg.sender, msg.value).
type HTLCParams struct {
	// Recipient receives the asset on redemption.
	Recipient crypto.Address
	// Hashlock is h = H(s); Redeem requires the preimage s.
	Hashlock crypto.Hash
	// Timelock is the absolute (virtual, milliseconds) time after
	// which Refund becomes available and Redeem stops being accepted.
	Timelock int64
}

const htlcParamsLen = crypto.AddressSize + crypto.HashSize + 8

// EncodedLen is the size of the wire form: Recipient, Hashlock,
// Timelock (64-bit two's complement).
func (p HTLCParams) EncodedLen() int { return htlcParamsLen }

// AppendTo appends the wire form to dst.
func (p HTLCParams) AppendTo(dst []byte) []byte {
	dst = append(dst, p.Recipient[:]...)
	dst = append(dst, p.Hashlock[:]...)
	return binary.BigEndian.AppendUint64(dst, uint64(p.Timelock))
}

// Encode serializes the parameters for a deployment transaction.
func (p HTLCParams) Encode() []byte { return p.AppendTo(make([]byte, 0, htlcParamsLen)) }

// Decode reverses Encode.
func (p *HTLCParams) Decode(b []byte) error {
	r := wire.NewReader(b)
	r.Fill(p.Recipient[:])
	r.Fill(p.Hashlock[:])
	p.Timelock = int64(r.U64())
	return r.Finish()
}

// HTLC is the hashlock/timelock contract of Nolan's protocol and
// Herlihy's generalization: assets transfer to the recipient against
// the hash secret before the timelock, and refund to the sender after
// it. The timelock is exactly the mechanism whose expiry violates
// all-or-nothing atomicity for crashed participants (Section 1's
// case against the current proposals); the AC3WN contracts in this
// package exist to remove it.
type HTLC struct {
	Swap
	Hashlock crypto.Hash
	Timelock int64
}

// Type implements vm.Contract.
func (h *HTLC) Type() string { return TypeHTLC }

// Init implements the Algorithm 1 constructor with hashlock schemes.
func (h *HTLC) Init(ctx *vm.Ctx, params []byte) error {
	var p HTLCParams
	if err := p.Decode(params); err != nil {
		return fmt.Errorf("htlc: params: %w", err)
	}
	if err := h.publish(ctx, "htlc", p.Recipient); err != nil {
		return err
	}
	if p.Timelock <= ctx.Time() {
		return errors.New("htlc: timelock not in the future")
	}
	h.Hashlock, h.Timelock = p.Hashlock, p.Timelock
	return nil
}

// Call dispatches redeem/refund.
func (h *HTLC) Call(ctx *vm.Ctx, fn string, args []byte) error {
	return h.call(ctx, h, "htlc", fn, args)
}

// isRedeemable accepts the hashlock's preimage before expiry.
func (h *HTLC) isRedeemable(ctx *vm.Ctx, secret []byte) error {
	if ctx.Time() >= h.Timelock {
		return errors.New("htlc: timelock expired")
	}
	if crypto.Sum(secret) != h.Hashlock {
		return errors.New("htlc: wrong secret")
	}
	return nil
}

// isRefundable needs no secret, only the hour: after expiry anyone may
// send the asset back to the sender.
func (h *HTLC) isRefundable(ctx *vm.Ctx, _ []byte) error {
	if ctx.Time() < h.Timelock {
		return errors.New("htlc: timelock not yet expired")
	}
	return nil
}

// Clone implements vm.Contract.
func (h *HTLC) Clone() vm.Contract { cp := *h; return &cp }
