// Package crypto provides the cryptographic substrate of the
// reproduction: hashing, Ed25519 identities and signatures, graph
// multisignatures ms(D), and the commitment-scheme abstraction that
// Section 3 of the paper builds atomic-swap contracts on.
//
// The paper's protocols need only standard assumptions — collision
// resistant hashing, unforgeable signatures, and binding/hiding
// commitments — so stdlib crypto/ed25519 and crypto/sha256 stand in
// for the secp256k1 machinery of production chains (see DESIGN.md,
// substitution table).
package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/wire"
)

// HashSize is the byte length of all digests in the system.
const HashSize = sha256.Size

// Hash is a SHA-256 digest. It identifies blocks, transactions,
// contracts and commitment values.
type Hash [HashSize]byte

// ZeroHash is the all-zero digest, used as the genesis parent.
//
//ac3:globalstate zero-value sentinel compared by value; never written
var ZeroHash Hash

// Sum hashes the concatenation of the given byte slices without
// touching the heap: a single part is hashed in place, parts totalling
// at most 256 bytes (a merkle node, a multisig id) are gathered on the
// stack, and anything longer is streamed through the hasher part by
// part — a transaction body is never copied just to be hashed.
func Sum(parts ...[]byte) Hash {
	if len(parts) == 1 {
		return sha256.Sum256(parts[0])
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	var stack [256]byte
	if total <= len(stack) {
		buf := stack[:0]
		for _, p := range parts {
			buf = append(buf, p...)
		}
		return sha256.Sum256(buf)
	}
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// Bytes returns the digest as a slice.
func (h Hash) Bytes() []byte { return h[:] }

// IsZero reports whether h is the zero digest.
func (h Hash) IsZero() bool { return h == ZeroHash }

// String renders the first 8 bytes in hex, enough to eyeball identity
// in logs and test failures.
func (h Hash) String() string { return hex.EncodeToString(h[:8]) }

// Address identifies an end-user (or a contract) on a chain. For users
// it is the hash of the public key, as in the paper's data model where
// "identities are typically implemented using public keys".
type Address [AddressSize]byte

// AddressSize is the byte length of an address.
const AddressSize = 20

// ZeroAddress is the empty address; contracts transferring to it burn
// assets, so validation rejects it as a transaction output owner.
//
//ac3:globalstate zero-value sentinel compared by value; never written
var ZeroAddress Address

// String renders the address in hex.
func (a Address) String() string { return hex.EncodeToString(a[:]) }

// IsZero reports whether a is the zero address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// AddressFromPub derives the address of a public key.
func AddressFromPub(pub ed25519.PublicKey) Address {
	h := Sum(pub)
	var a Address
	copy(a[:], h[:20])
	return a
}

// KeyPair is an end-user identity: an Ed25519 key pair plus its
// derived address. Participants hold one KeyPair per blockchain they
// transact on (the paper's application-layer end-users). Pub is a view
// of the private key's second half, as in ed25519.PrivateKey.
type KeyPair struct {
	Pub  ed25519.PublicKey
	priv ed25519.PrivateKey
	Addr Address
}

// MustGenerateKey creates a key pair from the given randomness source,
// as ed25519.GenerateKey would from it, and panics if the source fails.
// Deterministic sources (sim.RNG via an io.Reader adapter) cannot fail
// and make whole simulations reproducible.
func MustGenerateKey(rand io.Reader) *KeyPair {
	k, priv := new(KeyPair), make([]byte, ed25519.PrivateKeySize)
	if _, err := io.ReadFull(rand, priv[:ed25519.SeedSize]); err != nil {
		panic(fmt.Errorf("crypto: generate key: %w", err))
	}
	k.derive(priv)
	return k
}

// derive makes k the key pair whose seed is priv's first half, writing
// the private key into priv.
func (k *KeyPair) derive(priv []byte) {
	copy(priv, ed25519.NewKeyFromSeed(priv[:ed25519.SeedSize]))
	k.priv, k.Pub = priv, priv[ed25519.SeedSize:]
	k.Addr = AddressFromPub(k.Pub)
}

// Sign signs msg with the private key.
func (k *KeyPair) Sign(msg []byte) Signature {
	return Signature{Pub: append(ed25519.PublicKey(nil), k.Pub...), Sig: ed25519.Sign(k.priv, msg)}
}

// Signature is a public key together with an Ed25519 signature. The
// embedded key lets verifiers check both validity and *who* signed,
// which the multisignature ms(D) and Trent's witness signatures need.
type Signature struct {
	Pub ed25519.PublicKey
	Sig []byte
}

// wellFormed reports whether the key and signature have the right
// lengths — the structural check that needs no curve arithmetic.
func (s Signature) wellFormed() bool {
	return len(s.Pub) == ed25519.PublicKeySize && len(s.Sig) == ed25519.SignatureSize
}

// Verify reports whether the signature is valid for msg.
func (s Signature) Verify(msg []byte) bool {
	return s.wellFormed() && ed25519.Verify(s.Pub, msg, s.Sig)
}

// Signer returns the address of the signing key.
func (s Signature) Signer() Address { return AddressFromPub(s.Pub) }

// Equal reports whether two signatures are byte-identical.
func (s Signature) Equal(o Signature) bool {
	return bytes.Equal(s.Pub, o.Pub) && bytes.Equal(s.Sig, o.Sig)
}

// EncodedLen is the size of the signature's wire form: the public key
// and the signature bytes, each behind a u32 length.
func (s Signature) EncodedLen() int { return 2*wire.LenPrefix + len(s.Pub) + len(s.Sig) }

// AppendTo appends the wire form to dst.
func (s Signature) AppendTo(dst []byte) []byte {
	return wire.AppendBytes(wire.AppendBytes(dst, s.Pub), s.Sig)
}

// DecodeFrom reads the wire form; Pub and Sig alias the reader's input.
func (s *Signature) DecodeFrom(r *wire.Reader) {
	s.Pub = r.Bytes()
	s.Sig = r.Bytes()
}

// RandReader adapts any Uint64 source (such as *sim.RNG) into an
// io.Reader suitable for key generation.
type RandReader struct {
	Next func() uint64
	buf  [8]byte
	n    int
}

// NewRandReader wraps next as an io.Reader.
func NewRandReader(next func() uint64) *RandReader {
	return &RandReader{Next: next, n: 8}
}

// Read fills p with deterministic pseudo-random bytes.
func (r *RandReader) Read(p []byte) (int, error) {
	for i := range p {
		if r.n == 8 {
			v := r.Next()
			for j := 0; j < 8; j++ {
				r.buf[j] = byte(v >> (8 * j))
			}
			r.n = 0
		}
		p[i] = r.buf[r.n]
		r.n++
	}
	return len(p), nil
}
