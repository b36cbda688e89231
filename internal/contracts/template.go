package contracts

import (
	"errors"

	"repro/internal/crypto"
	"repro/internal/vm"
)

// Swap is Algorithm 1's AtomicSwapSC, written once: a sender locks an
// asset for a recipient, and the contract leaves P exactly once — to RD,
// paying the recipient, or to RF, paying the sender back. HTLC,
// CentralizedSC and PermissionlessSC embed it and, as Algorithms 2 and 4
// do, add only their parameters and the two predicates of a scheme.
type Swap struct {
	Sender    crypto.Address
	Recipient crypto.Address
	Asset     vm.Amount
	State     SwapState
}

// SwapState returns the template's state: how code that holds some asset
// contract (protocol.Asset) reads it without naming a concrete type.
func (s *Swap) SwapState() SwapState { return s.State }

// scheme is what a contract adds to the template: its registry type and
// the redemption and refund commitment schemes, each a check of the
// presented secret that explains a rejection.
type scheme interface {
	Type() string
	isRedeemable(ctx *vm.Ctx, secret []byte) error
	isRefundable(ctx *vm.Ctx, secret []byte) error
}

// publish is Algorithm 1's constructor: msg.sender locks msg.value for
// recipient and the contract starts in P. name is the protocol name the
// contract's errors start with.
func (s *Swap) publish(ctx *vm.Ctx, name string, recipient crypto.Address) error {
	if recipient.IsZero() {
		return errors.New(name + ": zero recipient")
	}
	if ctx.Msg.Value == 0 {
		return errors.New(name + ": no asset locked")
	}
	*s = Swap{Sender: ctx.Msg.Sender, Recipient: recipient, Asset: ctx.Msg.Value, State: StatePublished}
	return nil
}

// call is Algorithm 1's Redeem and Refund: in P, and only there, a
// secret the matching scheme accepts pays the asset out and makes the
// transition. Anyone may call either; the asset goes where the
// constructor said.
func (s *Swap) call(ctx *vm.Ctx, c scheme, name, fn string, secret []byte) error {
	if fn != FnRedeem && fn != FnRefund {
		return vm.ErrUnknownFunction(c.Type(), fn)
	}
	if s.State != StatePublished {
		return errors.New(name + ": " + fn + " in state " + s.State.String())
	}
	var err error
	to, next := s.Recipient, StateRedeemed
	if fn == FnRedeem {
		err = c.isRedeemable(ctx, secret)
	} else {
		to, next = s.Sender, StateRefunded
		err = c.isRefundable(ctx, secret)
	}
	if err == nil {
		err = ctx.Pay(to, s.Asset)
	}
	if err != nil {
		return err
	}
	s.State = next
	return nil
}
