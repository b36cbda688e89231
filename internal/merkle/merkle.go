// Package merkle implements the Merkle trees and inclusion proofs that
// back the paper's cross-chain evidence (Section 4.3): a validator
// contract checks that "the transaction of interest indeed took place"
// in a block by verifying a Merkle path against the block header's
// transaction root, exactly as Bitcoin SPV clients do.
package merkle

import (
	"encoding/binary"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/wire"
)

// leafPrefix and nodePrefix domain-separate leaf and interior hashes,
// preventing the classic second-preimage attack where an interior node
// is presented as a leaf.
//
//ac3:globalstate domain-separation constants (slices only because Go has no const []byte); never written
var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// LeafHash hashes a leaf value.
func LeafHash(data []byte) crypto.Hash {
	return crypto.Sum(leafPrefix, data)
}

// nodeHash hashes two children.
func nodeHash(l, r crypto.Hash) crypto.Hash {
	return crypto.Sum(nodePrefix, l[:], r[:])
}

// Root computes the Merkle root over the leaves. An empty leaf set has
// the zero root (an empty block). Odd levels promote the unpaired node
// (no duplication, avoiding Bitcoin's CVE-2012-2459 ambiguity).
func Root(leaves []crypto.Hash) crypto.Hash {
	if len(leaves) == 0 {
		return crypto.ZeroHash
	}
	level := append([]crypto.Hash(nil), leaves...)
	for len(level) > 1 {
		next := make([]crypto.Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

// Proof is an inclusion proof for one leaf: the sibling hashes from
// the leaf to the root, plus each sibling's side.
type Proof struct {
	Index    int           // leaf position in the original leaf list
	Leaf     crypto.Hash   // the (already leaf-hashed) value proven
	Siblings []crypto.Hash // bottom-up sibling path
	Lefts    []bool        // Lefts[i] == true when Siblings[i] is a left sibling
}

// Prove builds an inclusion proof for leaves[index].
func Prove(leaves []crypto.Hash, index int) (*Proof, error) {
	if index < 0 || index >= len(leaves) {
		return nil, fmt.Errorf("merkle: index %d out of range [0,%d)", index, len(leaves))
	}
	p := &Proof{Index: index, Leaf: leaves[index]}
	level := append([]crypto.Hash(nil), leaves...)
	pos := index
	for len(level) > 1 {
		var next []crypto.Hash
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		if sib := pos ^ 1; sib < len(level) {
			p.Siblings = append(p.Siblings, level[sib])
			p.Lefts = append(p.Lefts, sib < pos)
		}
		pos /= 2
		level = next
	}
	return p, nil
}

// Verify reports whether the proof links its leaf to root. Leaf is
// trusted as a genuine leaf hash: a caller holding untrusted data must
// use VerifyData, which recomputes LeafHash(data) and so gets the
// leaf/node domain separation that blocks interior-node-as-leaf
// second-preimage forgeries. Verify alone cannot distinguish a leaf
// from an interior node.
func (p *Proof) Verify(root crypto.Hash) bool {
	if p == nil || len(p.Siblings) != len(p.Lefts) {
		return false
	}
	h := p.Leaf
	for i, sib := range p.Siblings {
		if p.Lefts[i] {
			h = nodeHash(sib, h)
		} else {
			h = nodeHash(h, sib)
		}
	}
	return h == root
}

// VerifyData reports whether the proof proves the raw payload data
// under root.
func (p *Proof) VerifyData(root crypto.Hash, data []byte) bool {
	if p == nil || p.Leaf != LeafHash(data) {
		return false
	}
	return p.Verify(root)
}

// siblingLen is the wire size of one path step: the sibling hash and
// its side byte.
const siblingLen = crypto.HashSize + 1

// EncodedLen is the size of the proof's wire form: u32 leaf index,
// leaf hash, u32 sibling count, then (sibling, side byte) bottom-up,
// the side byte being 1 for a left sibling and 0 for a right one.
func (p *Proof) EncodedLen() int {
	return wire.LenPrefix + crypto.HashSize + wire.LenPrefix + len(p.Siblings)*siblingLen
}

// AppendTo appends the wire form to dst. The proof must be well formed
// (one side per sibling), as every proof from Prove or DecodeProof is.
func (p *Proof) AppendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.Index))
	dst = append(dst, p.Leaf[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Siblings)))
	for i, s := range p.Siblings {
		dst = append(dst, s[:]...)
		side := byte(0)
		if p.Lefts[i] {
			side = 1
		}
		dst = append(dst, side)
	}
	return dst
}

// Encode serializes the proof for use as a contract-call argument.
func (p *Proof) Encode() []byte { return p.AppendTo(make([]byte, 0, p.EncodedLen())) }

// DecodeFrom reads the wire form. A side byte other than 0 or 1 is
// malformed.
func (p *Proof) DecodeFrom(r *wire.Reader) {
	p.Index = int(r.U32())
	r.Fill(p.Leaf[:])
	p.Siblings, p.Lefts = nil, nil
	if n := r.Count(siblingLen); n > 0 {
		p.Siblings = make([]crypto.Hash, n)
		p.Lefts = make([]bool, n)
		for i := range p.Siblings {
			r.Fill(p.Siblings[i][:])
			p.Lefts[i] = r.Bool()
		}
	}
}

// DecodeProof reverses Encode.
func DecodeProof(b []byte) (*Proof, error) {
	p := &Proof{}
	r := wire.NewReader(b)
	p.DecodeFrom(&r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("merkle: proof: %w", err)
	}
	return p, nil
}
