package crypto

import (
	"fmt"

	"repro/internal/wire"
)

// The commitment schemes of Section 3 — assets locked under an
// instance, unlocked by revealing a matching secret — come in three
// shapes here: the Nolan/Herlihy hashlock h = H(s), which
// contracts.HTLC checks with Sum itself; trusted-witness signatures
// over (ms(D), RD|RF) for AC3TW, which is SigLock below; and
// witness-chain state evidence for AC3WN, which the contracts package
// verifies on top of spv evidence.

// Purpose tags what a witness signature authorizes, mirroring the
// paper's (ms(D), RD) and (ms(D), RF) message pairs.
type Purpose byte

// The two mutually exclusive decisions a witness can sign.
const (
	PurposeRedeem Purpose = 1 // RD: commit the AC2T, all contracts redeem
	PurposeRefund Purpose = 2 // RF: abort the AC2T, all contracts refund
)

// String names the purpose.
func (p Purpose) String() string {
	switch p {
	case PurposeRedeem:
		return "RD"
	case PurposeRefund:
		return "RF"
	default:
		return fmt.Sprintf("purpose(%d)", byte(p))
	}
}

// WitnessMessage builds the canonical byte message a trusted witness
// signs for a given multisigned-graph digest and purpose. Both AC3TW's
// Trent and the contracts that verify his signatures must agree on
// this encoding.
func WitnessMessage(msDigest Hash, p Purpose) []byte {
	msg := make([]byte, 0, HashSize+9)
	msg = append(msg, "ac3tw/v1"...)
	msg = append(msg, byte(p))
	msg = append(msg, msDigest[:]...)
	return msg
}

// SigLock is the AC3TW commitment scheme: the pair (ms(D), PK_T) of
// Algorithm 2. A secret is Trent's signature over WitnessMessage.
type SigLock struct {
	MSDigest   Hash    // digest of the multisigned graph ms(D)
	WitnessPub Address // Trent's address (derived from PK_T)
	Purpose    Purpose // RD or RF
}

// VerifySig reports whether sig is a valid witness signature for this
// lock: correct message, valid signature, and signed by the trusted
// witness identity the lock was created with.
func (l SigLock) VerifySig(sig Signature) bool {
	if !sig.Verify(WitnessMessage(l.MSDigest, l.Purpose)) {
		return false
	}
	return sig.Signer() == l.WitnessPub
}

// Verify is VerifySig over an encoded signature (EncodeSignature), the
// form in which the secret reaches a contract call.
func (l SigLock) Verify(secret []byte) bool {
	sig, err := DecodeSignature(secret)
	if err != nil {
		return false
	}
	return l.VerifySig(sig)
}

// EncodeSignature serializes a Signature for use as a SigLock secret.
func EncodeSignature(sig Signature) []byte {
	return sig.AppendTo(make([]byte, 0, sig.EncodedLen()))
}

// DecodeSignature reverses EncodeSignature. The result aliases b.
func DecodeSignature(b []byte) (Signature, error) {
	var sig Signature
	r := wire.NewReader(b)
	sig.DecodeFrom(&r)
	if err := r.Finish(); err != nil {
		return Signature{}, fmt.Errorf("crypto: signature: %w", err)
	}
	return sig, nil
}
