package crypto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/wire"
)

// MultiSig is the multisignature ms(D) of Equation 1: every
// participant of an AC2T signs the digest of the timestamped
// transaction graph (D, t). The paper notes the order of signatures is
// irrelevant — any complete set proves all participants agreed on D at
// t — so we model ms(D) as an order-independent signature set rather
// than the nested form, and derive an order-independent identifier.
type MultiSig struct {
	Digest Hash // digest of the canonical encoding of (D, t)
	Sigs   []Signature
}

// NewMultiSig starts a multisignature over the given graph digest.
func NewMultiSig(digest Hash) *MultiSig {
	return &MultiSig{Digest: digest}
}

// Add appends k's signature over the digest. Adding the same signer
// twice is a no-op: one signature per participant suffices.
func (m *MultiSig) Add(k *KeyPair) {
	for _, s := range m.Sigs {
		if s.Signer() == k.Addr {
			return
		}
	}
	m.Sigs = append(m.Sigs, k.Sign(m.Digest[:]))
}

// AddSignature appends an externally produced signature (for
// participants signing on remote sites). Invalid or duplicate
// signatures are rejected — duplicate and malformed ones before any
// curve arithmetic is spent on them.
func (m *MultiSig) AddSignature(sig Signature) error {
	for _, s := range m.Sigs {
		if s.Signer() == sig.Signer() {
			return fmt.Errorf("crypto: multisig: duplicate signer %s", sig.Signer())
		}
	}
	if !sig.Verify(m.Digest[:]) {
		return fmt.Errorf("crypto: multisig: invalid signature from %s", sig.Signer())
	}
	m.Sigs = append(m.Sigs, sig.Clone())
	return nil
}

// Signers returns the sorted addresses that have signed.
func (m *MultiSig) Signers() []Address {
	out := make([]Address, 0, len(m.Sigs))
	for _, s := range m.Sigs {
		out = append(out, s.Signer())
	}
	sortAddresses(out)
	return out
}

// signerSet returns the set of signing addresses, or false when any
// signature is malformed. It is the structural half of Complete and
// CompleteThreshold, run before allValid so a multisignature that
// cannot pass is rejected without any curve arithmetic.
func (m *MultiSig) signerSet() (map[Address]bool, bool) {
	have := make(map[Address]bool, len(m.Sigs))
	for _, s := range m.Sigs {
		if !s.wellFormed() {
			return nil, false
		}
		have[s.Signer()] = true
	}
	return have, true
}

// allValid reports whether every carried signature verifies, reading
// the verdicts b holds (nil: none) for the bytes they were computed on.
func (m *MultiSig) allValid(b *SigBook) bool {
	for _, s := range m.Sigs {
		if !b.Verify(s, m.Digest) {
			return false
		}
	}
	return true
}

// Complete reports whether every required participant has validly
// signed the digest. Extra signatures from non-participants do not
// make an incomplete multisignature complete, but are tolerated (the
// paper only requires that all participants agree).
func (m *MultiSig) Complete(required []Address) bool { return m.CompleteWith(required, nil) }

// CompleteWith is Complete taking the verdicts b holds (nil: none) for
// signatures that carry the bytes they were computed on (ADR-021).
func (m *MultiSig) CompleteWith(required []Address, b *SigBook) bool {
	have, ok := m.signerSet()
	if !ok {
		return false
	}
	for _, r := range required {
		if !have[r] {
			return false
		}
	}
	return m.allValid(b)
}

// CompleteThreshold reports whether at least m of the required
// participants have validly signed the digest (an m-of-n quorum, the
// primitive a 2/3+ witness set needs where Complete's all-of-n is too
// strong). Like Complete, any invalid signature poisons the whole
// multisignature, and signatures from addresses outside the required
// set never count toward the quorum. m must be positive and at most
// len(required); out-of-range thresholds are unsatisfiable by
// definition and report false.
func (m *MultiSig) CompleteThreshold(required []Address, threshold int) bool {
	if threshold <= 0 || threshold > len(required) {
		return false
	}
	have, ok := m.signerSet()
	if !ok {
		return false
	}
	count := 0
	for _, r := range required {
		if have[r] {
			delete(have, r) // a repeated required address counts once
			count++
		}
	}
	return count >= threshold && m.allValid(nil)
}

// ID returns an order-independent identifier for this ms(D): the hash
// of the graph digest together with the sorted signer set. Two
// multisignatures over the same (D, t) by the same participants have
// the same ID regardless of signing order, matching the paper's remark
// that "the order of participant signatures in ms(D) is not important".
func (m *MultiSig) ID() Hash { return MultiSigID(m.Digest, m.Signers()) }

// MultiSigID derives the ID of the ms(D) that signers produce over
// digest from their addresses alone, so a participant can check a
// published multisignature's identity without anyone's private key.
func MultiSigID(digest Hash, signers []Address) Hash {
	sorted := append([]Address(nil), signers...)
	sortAddresses(sorted)
	var stack [256]byte
	buf := append(stack[:0], digest[:]...)
	for _, a := range sorted {
		buf = append(buf, a[:]...)
	}
	return Sum(buf)
}

// minSignatureLen is the least a carried signature occupies on the
// wire (two empty byte strings); it bounds a decoded signature count.
const minSignatureLen = 2 * wire.LenPrefix

// EncodedLen is the size of the wire form: digest, u32 signature
// count, signatures in carried order.
func (m *MultiSig) EncodedLen() int {
	n := HashSize + wire.LenPrefix
	for _, s := range m.Sigs {
		n += s.EncodedLen()
	}
	return n
}

// AppendTo appends the wire form to dst.
func (m *MultiSig) AppendTo(dst []byte) []byte {
	dst = append(dst, m.Digest[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Sigs)))
	for _, s := range m.Sigs {
		dst = s.AppendTo(dst)
	}
	return dst
}

// DecodeFrom reads the wire form; the signatures alias the reader's
// input.
func (m *MultiSig) DecodeFrom(r *wire.Reader) {
	r.Fill(m.Digest[:])
	m.Sigs = make([]Signature, r.Count(minSignatureLen))
	for i := range m.Sigs {
		m.Sigs[i].DecodeFrom(r)
	}
}

// Clone deep-copies the multisignature.
func (m *MultiSig) Clone() *MultiSig {
	out := &MultiSig{Digest: m.Digest, Sigs: make([]Signature, len(m.Sigs))}
	for i, s := range m.Sigs {
		out.Sigs[i] = s.Clone()
	}
	return out
}

func sortAddresses(as []Address) {
	slices.SortFunc(as, func(a, b Address) int { return bytes.Compare(a[:], b[:]) })
}
