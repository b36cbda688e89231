// Package merkle implements the Merkle trees and inclusion proofs that
// back the paper's cross-chain evidence (Section 4.3): a validator
// contract checks that "the transaction of interest indeed took place"
// in a block by verifying a Merkle path against the block header's
// transaction root, exactly as Bitcoin SPV clients do.
package merkle

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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

// stackLeaves is how many leaves Root and Prove copy on the stack; a
// larger tree copies to the heap once.
const stackLeaves = 16

// Root computes the Merkle root over the leaves. An empty leaf set has
// the zero root (an empty block). Odd levels promote the unpaired node
// (no duplication, avoiding Bitcoin's CVE-2012-2459 ambiguity). leaves
// is not modified.
func Root(leaves []crypto.Hash) crypto.Hash {
	var stack [stackLeaves]crypto.Hash
	return Fold(append(stack[:0], leaves...))
}

// Fold is Root computed in place: each level overwrites the front of
// the one below it, so level holds garbage afterwards.
func Fold(level []crypto.Hash) crypto.Hash {
	if len(level) == 0 {
		return crypto.ZeroHash
	}
	for len(level) > 1 {
		level = up(level)
	}
	return level[0]
}

// up overwrites the front of level with the level above it.
func up(level []crypto.Hash) []crypto.Hash {
	n := 0
	for i := 0; i < len(level); i, n = i+2, n+1 {
		if i+1 < len(level) {
			level[n] = nodeHash(level[i], level[i+1])
		} else {
			level[n] = level[i]
		}
	}
	return level[:n]
}

// Proof is an inclusion proof for one leaf: the sibling hashes from
// the leaf to the root, plus each sibling's side.
type Proof struct {
	Index    int           // leaf position in the original leaf list
	Leaf     crypto.Hash   // the (already leaf-hashed) value proven
	Siblings []crypto.Hash // bottom-up sibling path
	Lefts    []bool        // Lefts[i] == true when Siblings[i] is a left sibling
}

// Prove builds an inclusion proof for leaves[index]. It folds one copy
// of the leaves as Fold does, reading each level's sibling before the
// level is folded; the path is sized to the tree's depth.
func Prove(leaves []crypto.Hash, index int) (*Proof, error) {
	if index < 0 || index >= len(leaves) {
		return nil, fmt.Errorf("merkle: index %d out of range [0,%d)", index, len(leaves))
	}
	p := &Proof{Index: index, Leaf: leaves[index]}
	if len(leaves) == 1 {
		return p, nil
	}
	var stack [stackLeaves]crypto.Hash
	level := append(stack[:0], leaves...)
	depth := bits.Len(uint(len(leaves) - 1))
	p.Siblings, p.Lefts = make([]crypto.Hash, 0, depth), make([]bool, 0, depth)
	for pos := index; len(level) > 1; pos /= 2 {
		if sib := pos ^ 1; sib < len(level) {
			p.Siblings = append(p.Siblings, level[sib])
			p.Lefts = append(p.Lefts, sib < pos)
		}
		level = up(level)
	}
	return p, nil
}

// Verify reports whether the proof links its leaf to root. Leaf is
// trusted as a genuine leaf hash: a caller holding untrusted data must
// also compare Leaf with LeafHash(data), as the callers of ReadRoot do,
// and so gets the leaf/node domain separation that blocks
// interior-node-as-leaf second-preimage forgeries. Verify alone cannot
// distinguish a leaf from an interior node.
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
// (one side per sibling), as every proof from Prove or DecodeFrom is.
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

// ReadRoot reads a proof's wire form as strictly as DecodeFrom and
// keeps no path, allocating nothing: it returns the proof's leaf and the
// root its path folds the leaf to. The proof proves data under a root
// when leaf is LeafHash(data) and root is that root.
func ReadRoot(r *wire.Reader) (leaf, root crypto.Hash) {
	r.U32() // the leaf index, which verification does not read
	r.Fill(leaf[:])
	root = leaf
	for n := r.Count(siblingLen); n > 0; n-- {
		var sib crypto.Hash
		r.Fill(sib[:])
		if r.Bool() { // a left sibling is hashed first
			sib, root = root, sib
		}
		root = nodeHash(root, sib)
	}
	return leaf, root
}
