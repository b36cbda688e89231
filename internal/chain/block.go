package chain

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"math/bits"
	"slices"

	"repro/internal/crypto"
	"repro/internal/merkle"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Header is a block header: the portion of a block that light clients
// download and that SPV evidence (Section 4.3) carries across chains.
type Header struct {
	ChainID ID
	Parent  crypto.Hash
	Height  uint64
	Time    sim.Time
	TxRoot  crypto.Hash // Merkle root over transaction ids
	Bits    uint8       // required leading zero bits of the header hash
	Nonce   uint64      // ground until Hash() satisfies Bits
}

// HeaderFixedLen is the encoded size of a header apart from its chain
// id: terminator, parent, height, time, tx root, bits, nonce.
const HeaderFixedLen = 1 + crypto.HashSize + 8 + 8 + crypto.HashSize + 1 + 8

// headerStackLen sizes the stack buffers Hash and Seal encode into;
// it holds any header whose chain id is up to 38 bytes, and a longer
// one merely spills to the heap.
const headerStackLen = 128

// EncodedLen is the size of the header's canonical encoding.
func (h *Header) EncodedLen() int { return len(h.ChainID) + HeaderFixedLen }

// AppendTo appends the canonical encoding of the header to dst. The
// nonce is the last 8 bytes, which is what lets Seal patch it in place.
func (h *Header) AppendTo(dst []byte) []byte {
	dst = append(dst, h.ChainID...)
	dst = append(dst, 0) // chain-id terminator
	dst = append(dst, h.Parent[:]...)
	dst = binary.BigEndian.AppendUint64(dst, h.Height)
	dst = binary.BigEndian.AppendUint64(dst, uint64(h.Time))
	dst = append(dst, h.TxRoot[:]...)
	dst = append(dst, h.Bits)
	return binary.BigEndian.AppendUint64(dst, h.Nonce)
}

// Encode serializes the header canonically.
func (h *Header) Encode() []byte { return h.AppendTo(make([]byte, 0, h.EncodedLen())) }

// DecodeFrom reads one header. The chain id is a view into r's input
// (package wire); every other field is copied into the header.
func (h *Header) DecodeFrom(r *wire.Reader) {
	h.ChainID = ID(r.StringZ())
	r.Fill(h.Parent[:])
	h.Height = r.U64()
	h.Time = sim.Time(r.U64())
	r.Fill(h.TxRoot[:])
	h.Bits = r.U8()
	h.Nonce = r.U64()
}

// DecodeHeader reverses Encode. It inlines, so a caller that does not
// keep the header holds it on its stack.
func DecodeHeader(b []byte) (*Header, error) {
	h := new(Header)
	if err := h.decode(b); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *Header) decode(b []byte) error {
	r := wire.NewReader(b)
	h.DecodeFrom(&r)
	if err := r.Finish(); err != nil {
		return fmt.Errorf("chain: decode header: %w", err)
	}
	return nil
}

// Hash returns the proof-of-work digest of the header. It is computed
// from the fields on every call — they are public and mutable, and
// headers are copied by value — so holders that hash one header
// repeatedly keep the digest themselves (Block.Hash).
func (h *Header) Hash() crypto.Hash {
	var stack [headerStackLen]byte
	return crypto.Sum(h.AppendTo(stack[:0]))
}

// MeetsTarget reports whether a header digest has at least zeroBits
// leading zero bits. Callers that already hold the digest check the
// proof of work through it instead of hashing again in CheckPoW.
func MeetsTarget(digest crypto.Hash, zeroBits uint8) bool {
	n := 0
	for _, b := range digest {
		if b == 0 {
			n += 8
			continue
		}
		n += bits.LeadingZeros8(b)
		break
	}
	return n >= int(zeroBits)
}

// CheckPoW reports whether the header hash meets its difficulty
// target. This is the verification SPV evidence runs for every header
// it carries ("the function ... verifies the proof of work of each
// header", Section 4.3).
func (h *Header) CheckPoW() bool { return MeetsTarget(h.Hash(), h.Bits) }

// Seal grinds the nonce, from start upwards, until the header meets
// its difficulty target. The expected work is 2^Bits hash evaluations;
// simulation difficulty is kept low so sealing is cheap while
// verification stays real. The header is encoded once and only its 8
// nonce bytes are rewritten per attempt.
func (h *Header) Seal(start uint64) {
	var stack [headerStackLen]byte
	enc := h.AppendTo(stack[:0])
	nonce := enc[len(enc)-8:]
	for h.Nonce = start; ; h.Nonce++ {
		binary.BigEndian.PutUint64(nonce, h.Nonce)
		if MeetsTarget(crypto.Sum(enc), h.Bits) {
			return
		}
	}
}

// Sealer is Seal for a miner, which seals many headers: each attempt
// resumes from the SHA-256 midstate of the bytes before the last 64-byte
// boundary ahead of the nonce, one compression instead of two. It lands
// where Seal lands and allocates nothing after its first call.
type Sealer struct {
	h        hash.Hash
	enc, mid [headerStackLen]byte // the header; its midstate, marshalled
	sum      crypto.Hash
}

// Seal grinds h's nonce from start, as h.Seal(start) does.
func (s *Sealer) Seal(h *Header, start uint64) {
	if s.h == nil {
		s.h = sha256.New()
	}
	enc := h.AppendTo(s.enc[:0])
	cut := (len(enc) - 8) &^ 63
	s.h.Reset()
	s.h.Write(enc[:cut])
	mid, _ := s.h.(encoding.BinaryAppender).AppendBinary(s.mid[:0])
	for h.Nonce = start; ; h.Nonce++ {
		binary.BigEndian.PutUint64(enc[len(enc)-8:], h.Nonce)
		_ = s.h.(encoding.BinaryUnmarshaler).UnmarshalBinary(mid)
		s.h.Write(enc[cut:])
		if MeetsTarget(crypto.Hash(s.h.Sum(s.sum[:0])), h.Bits) {
			return
		}
	}
}

// Block is a full block: header plus ordered transactions.
type Block struct {
	Header *Header
	Txs    []*Tx

	hash    crypto.Hash // memoized header hash
	hashSet bool
}

// NewBlock assembles a block and computes its transaction root. The
// header is not sealed; call Header.Seal. Block and header are one
// allocation.
func NewBlock(header Header, txs []*Tx) *Block {
	bh := new(struct {
		b Block
		h Header
	})
	return bh.b.assemble(&bh.h, header, txs)
}

// assemble fills b, whose header is to live at h, with header and txs,
// and computes the transaction root: the one way a block is put
// together (NewBlock, BuildBlock).
func (b *Block) assemble(h *Header, header Header, txs []*Tx) *Block {
	header.TxRoot = TxRoot(txs)
	*h = header
	b.Header, b.Txs = h, txs
	return b
}

// TxRoot computes the Merkle root over the transactions' ids.
func TxRoot(txs []*Tx) crypto.Hash {
	var stack [txLeavesOnStack]crypto.Hash
	return merkle.Fold(appendTxLeaves(stack[:0], txs))
}

// txLeavesOnStack is how many Merkle leaves TxRoot and ProveTx build on
// the stack; a larger block builds them on the heap.
const txLeavesOnStack = 16

// appendTxLeaves appends the Merkle leaves of txs, their leaf-hashed
// ids, to dst.
func appendTxLeaves(dst []crypto.Hash, txs []*Tx) []crypto.Hash {
	for _, tx := range txs {
		id := tx.ID()
		dst = append(dst, merkle.LeafHash(id[:]))
	}
	return dst
}

// Hash returns the block's (memoized) header hash.
func (b *Block) Hash() crypto.Hash {
	if !b.hashSet {
		b.hash = b.Header.Hash()
		b.hashSet = true
	}
	return b.hash
}

// FindTx returns the index of the transaction with the given id, or
// -1.
func (b *Block) FindTx(id crypto.Hash) int {
	for i, tx := range b.Txs {
		if tx.ID() == id {
			return i
		}
	}
	return -1
}

// Touches reports whether the block carries one of the transactions
// txs, or deploys or calls one of the contracts addrs — what a watcher
// of a few contracts and in-flight transactions asks of every block
// that joins its chain. The lists are short, so they are scanned.
func (b *Block) Touches(addrs []crypto.Address, txs []crypto.Hash) bool {
	if len(addrs) == 0 && len(txs) == 0 {
		return false
	}
	for _, tx := range b.Txs {
		switch {
		case tx.Kind == TxCall && slices.Contains(addrs, tx.Contract),
			tx.Kind == TxDeploy && len(addrs) > 0 && slices.Contains(addrs, tx.ContractAddr()),
			len(txs) > 0 && slices.Contains(txs, tx.ID()):
			return true
		}
	}
	return false
}

// ProveTx builds a Merkle inclusion proof for the transaction at
// index.
func (b *Block) ProveTx(index int) (*merkle.Proof, error) {
	if index < 0 || index >= len(b.Txs) {
		return nil, fmt.Errorf("chain: tx index %d out of range", index)
	}
	var stack [txLeavesOnStack]crypto.Hash
	return merkle.Prove(appendTxLeaves(stack[:0], b.Txs), index)
}
