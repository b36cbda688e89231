// Package contracts implements the concrete smart contracts of the
// paper:
//
//   - HTLC — the hashlock/timelock contract underlying Nolan's and
//     Herlihy's atomic swaps (the baselines of Section 1).
//   - CentralizedSC — Algorithm 2, the AC3TW asset contract whose
//     redemption/refund secrets are a trusted witness's signatures.
//   - WitnessSC — Algorithm 3, the AC2T coordinator deployed on the
//     witness network with states P → RDauth | RFauth.
//   - PermissionlessSC — Algorithm 4, the AC3WN asset contract whose
//     redeem/refund are conditioned on SPV evidence of WitnessSC's
//     state at depth ≥ d.
//   - BatchWitnessSC — the shared witness-side ledger of batched
//     decisions (batch.go), which PermissionlessSC settles against
//     with a merkle membership proof instead of per-AC2T evidence.
//
// The three asset contracts extend the AtomicSwapSC template of
// Algorithm 1 (Swap, template.go): a sender, a recipient, a locked
// asset, a state machine {P, RD, RF}, and mutually exclusive redemption
// and refund schemes. WitnessSC and PermissionlessSC are also Section 4.3's
// in-contract validator: each stores a stable-block checkpoint of the
// chains it validates and verifies submitted SPV evidence against it.
package contracts

import (
	"fmt"

	"repro/internal/vm"
)

// Registry type names under which these contracts deploy.
const (
	TypeHTLC           = "htlc"
	TypeCentralized    = "ac3tw.swap"
	TypeWitness        = "ac3wn.witness"
	TypePermissionless = "ac3wn.swap"
)

// TypeBatchWitness ("ac3wn.batch") and FnCommitBatch are declared in
// batch.go beside the batch-commitment contract.

// Function names exposed by the contracts.
const (
	FnRedeem          = "redeem"
	FnRefund          = "refund"
	FnAuthorizeRedeem = "authorize_redeem"
	FnAuthorizeRefund = "authorize_refund"
)

// SwapState is the asset-contract state machine of Algorithm 1.
type SwapState byte

// The three states: published, redeemed, refunded.
const (
	StatePublished SwapState = iota // P
	StateRedeemed                   // RD
	StateRefunded                   // RF
)

// String names the state.
func (s SwapState) String() string {
	switch s {
	case StatePublished:
		return "P"
	case StateRedeemed:
		return "RD"
	case StateRefunded:
		return "RF"
	default:
		return fmt.Sprintf("state(%d)", byte(s))
	}
}

// WitnessState is the coordinator state machine of Algorithm 3.
type WitnessState byte

// The witness contract states.
const (
	WitnessPublished        WitnessState = iota // P
	WitnessRedeemAuthorized                     // RDauth
	WitnessRefundAuthorized                     // RFauth
)

// String names the state.
func (s WitnessState) String() string {
	switch s {
	case WitnessPublished:
		return "P"
	case WitnessRedeemAuthorized:
		return "RDauth"
	case WitnessRefundAuthorized:
		return "RFauth"
	default:
		return fmt.Sprintf("state(%d)", byte(s))
	}
}

// RegisterAll registers every contract type on a registry. Chains in
// AC3WN experiments call this so any of the protocol's contracts can
// deploy.
func RegisterAll(reg *vm.Registry) {
	reg.Register(TypeHTLC, func() vm.Contract { return &HTLC{} })
	reg.Register(TypeCentralized, func() vm.Contract { return &CentralizedSC{} })
	reg.Register(TypeWitness, func() vm.Contract { return &WitnessSC{} })
	reg.Register(TypePermissionless, func() vm.Contract { return &PermissionlessSC{} })
	reg.Register(TypeBatchWitness, func() vm.Contract { return &BatchWitnessSC{} })
}
