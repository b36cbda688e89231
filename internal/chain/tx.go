package chain

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/vm"
	"repro/internal/wire"
)

// TxKind discriminates the transaction flavours of Section 2.3.
type TxKind byte

// Transaction kinds.
const (
	// TxGenesis mints the initial asset allocation in the genesis
	// block. Valid only at height 0.
	TxGenesis TxKind = iota
	// TxCoinbase mints the block reward to the miner; first tx of
	// every non-genesis block.
	TxCoinbase
	// TxTransfer moves assets between identities, merging or
	// splitting them (Figure 2).
	TxTransfer
	// TxDeploy publishes a smart contract, optionally locking assets
	// in it (the deployment message of Section 2.3).
	TxDeploy
	// TxCall invokes a smart-contract function, optionally sending
	// assets along.
	TxCall
)

// String names the kind.
func (k TxKind) String() string {
	switch k {
	case TxGenesis:
		return "genesis"
	case TxCoinbase:
		return "coinbase"
	case TxTransfer:
		return "transfer"
	case TxDeploy:
		return "deploy"
	case TxCall:
		return "call"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// OutPoint identifies one transaction output.
type OutPoint struct {
	TxID  crypto.Hash
	Index uint32
}

// String renders the outpoint.
func (o OutPoint) String() string { return fmt.Sprintf("%s:%d", o.TxID, o.Index) }

// Compare orders outpoints canonically: by transaction id bytes, then
// output index. Where a set of outpoints becomes a sequence (a client's
// funding selection) it is sorted with this, never left in map
// iteration order. (Genesis layout sorts addresses, not outpoints:
// genesisTx has its own comparator.)
func (o OutPoint) Compare(p OutPoint) int {
	if c := bytes.Compare(o.TxID[:], p.TxID[:]); c != 0 {
		return c
	}
	switch {
	case o.Index < p.Index:
		return -1
	case o.Index > p.Index:
		return 1
	}
	return 0
}

// TxOut is an asset owned by an identity.
type TxOut struct {
	Value vm.Amount
	Owner crypto.Address
}

// TxIn spends a previous output. The transaction-level signature must
// be by the owner of every input (miners validate that "end-users can
// transact only on their own assets").
type TxIn struct {
	Prev OutPoint
}

// Tx is a transaction. Exactly which fields are meaningful depends on
// Kind; Validate* in apply.go enforces the shape.
type Tx struct {
	Kind  TxKind
	Nonce uint64 // distinguishes otherwise-identical transactions

	Ins  []TxIn  // inputs (transfer, deploy, call-with-value)
	Outs []TxOut // outputs (genesis, coinbase, transfer, change)

	// Deploy fields.
	ContractType string // registry type name
	Params       []byte // encoded constructor parameters

	// Call fields.
	Contract crypto.Address // target contract
	Fn       string         // function name
	Args     []byte         // encoded arguments

	// Value is the asset amount locked into the contract (deploy) or
	// sent with the call (msg.val). Funded from Ins minus change Outs.
	Value vm.Amount

	// Sig signs SigHash(); its signer must own every input. Genesis and
	// coinbase transactions are unsigned. The constructors below leave its
	// bytes to the verdict (sigOK): its claimant writes them — a checker
	// offered it at miner.Client.Submit, or the first reader inline — and
	// everyone else reads them through Encode or VerifySig. Tamper on a
	// DecodeTx copy.
	Sig crypto.Signature

	// Memoized pure derivations. Transactions are immutable once
	// constructed (but for the signature bytes above; DecodeTx returns
	// finished values), and the same *Tx is validated by every node's
	// chain view in a simulated network — re-hashing the body and
	// re-verifying the ed25519 signature per view dominated run time
	// before these caches.
	memoID        crypto.Hash
	sigOK         crypto.Verdict // the one field a second goroutine touches; see VerifySig
	memoIDSet     bool
	memoAddr      crypto.Address
	memoAddrSet   bool
	memoSigner    crypto.Address
	memoSignerSet bool
	form          byte // idForm when decoded from an id form: Args hold their digest, and ApplyTx refuses it
}

// Wire sizes of the fixed-width pieces of a transaction, and the id form's flag.
const (
	txInLen  = crypto.HashSize + 4    // previous tx id, output index
	txOutLen = 8 + crypto.AddressSize // value, owner
	// txBaseLen is the body size of an empty transaction: kind, nonce,
	// input and output counts, four length prefixes (contract type,
	// params, fn, args), the contract address and the value.
	txBaseLen = 1 + 8 + 6*wire.LenPrefix + crypto.AddressSize + 8
	idForm    = 0x80 // flags the kind byte of an id form (AppendIDForm)
)

// bodyLen is the size of the signed portion of the encoding.
func (tx *Tx) bodyLen() int {
	return txBaseLen + len(tx.Ins)*txInLen + len(tx.Outs)*txOutLen +
		len(tx.ContractType) + len(tx.Params) + len(tx.Fn) + len(tx.Args)
}

// idArgs returns the id form's arguments and kind byte: Args no longer
// than a digest, else their SHA-256 digest, written to d, flagged idForm.
func (tx *Tx) idArgs(d *crypto.Hash) ([]byte, byte) {
	if tx.form == 0 && len(tx.Args) > crypto.HashSize {
		*d = crypto.Sum(tx.Args)
		return d[:], byte(tx.Kind) | idForm
	}
	return tx.Args, byte(tx.Kind) | tx.form
}

// appendHead appends the body up to and including the length prefix of
// Params, appendMid the part between Params and args (with the length
// prefix of args), appendTail what follows args. The split lets SigHash
// hash Params and args where they lie.
func (tx *Tx) appendHead(dst []byte, kind byte) []byte {
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, tx.Nonce)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tx.Ins)))
	for i := range tx.Ins {
		dst = append(dst, tx.Ins[i].Prev.TxID[:]...)
		dst = binary.BigEndian.AppendUint32(dst, tx.Ins[i].Prev.Index)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tx.Outs)))
	for i := range tx.Outs {
		dst = binary.BigEndian.AppendUint64(dst, tx.Outs[i].Value)
		dst = append(dst, tx.Outs[i].Owner[:]...)
	}
	dst = wire.AppendString(dst, tx.ContractType)
	return binary.BigEndian.AppendUint32(dst, uint32(len(tx.Params)))
}

func (tx *Tx) appendMid(dst, args []byte) []byte {
	dst = append(dst, tx.Contract[:]...)
	dst = wire.AppendString(dst, tx.Fn)
	return binary.BigEndian.AppendUint32(dst, uint32(len(args)))
}

func (tx *Tx) appendTail(dst []byte) []byte {
	return binary.BigEndian.AppendUint64(dst, tx.Value)
}

// SigHash returns the digest the transaction signature covers,
// computed once and cached (the body is immutable after construction):
// the hash of the id form's body. Params are hashed in place; Args —
// kilobytes of evidence on a decision or redeem call — by their digest.
func (tx *Tx) SigHash() crypto.Hash {
	if !tx.memoIDSet {
		var stack [256]byte
		var d crypto.Hash
		args, kind := tx.idArgs(&d)
		head := tx.appendHead(stack[:0], kind)
		mid := tx.appendMid(head[len(head):], args)
		tail := tx.appendTail(mid[len(mid):])
		tx.memoID = crypto.Sum(head, tx.Params, mid, args, tail)
		tx.memoIDSet = true
	}
	return tx.memoID
}

// ID returns the transaction identifier. It covers the signed body
// only; the Nonce field disambiguates intentional duplicates, and
// signature malleability is irrelevant in this simulation.
func (tx *Tx) ID() crypto.Hash { return tx.SigHash() }

// VerifySig reports whether Sig validly signs the transaction body. The
// verdict (and, for a transaction built here, the signature) is computed
// once per object, by crypto.Signature.Verify, by whoever claims it first
// — a checker the signature was offered to (CheckSigAhead) or the first
// caller, inline — and every later caller reads it: each chain view that
// applies this transaction asks the same question about the same value,
// and ed25519 is the single most expensive operation in the simulation.
// A caller never waits longer than one computation, and who computed the
// verdict is invisible to the simulation (ADR-021).
func (tx *Tx) VerifySig() bool { return tx.verifySig(&crypto.SigTally{}) }

func (tx *Tx) verifySig(t *crypto.SigTally) bool { return tx.sigOK.Assume(tx.Sig, tx.SigHash(), t) }

// CheckSigAhead offers the signature to ck (nil: to nobody) so that the
// verdict is ready when a block builder first asks. The digest is taken
// here, on the caller's goroutine; ck never touches the transaction.
func (tx *Tx) CheckSigAhead(ck *crypto.SigChecker) {
	if len(tx.Sig.Sig) > 0 {
		ck.Offer(&tx.sigOK, tx.Sig, tx.SigHash())
	}
}

// Signer returns the address of the key that signed the transaction —
// a hash of the public key, derived once and cached: every validation
// of every candidate asks for it, rejected candidates included.
func (tx *Tx) Signer() crypto.Address {
	if !tx.memoSignerSet {
		tx.memoSigner = tx.Sig.Signer()
		tx.memoSignerSet = true
	}
	return tx.memoSigner
}

// EncodedLen is the size of the full encoding (body + signature).
func (tx *Tx) EncodedLen() int { return tx.bodyLen() + tx.Sig.EncodedLen() }

// AppendTo appends the full encoding to dst (or the id form it was decoded from).
func (tx *Tx) AppendTo(dst []byte) []byte { return tx.appendForm(dst, tx.Args, byte(tx.Kind)|tx.form) }

// IDFormLen is the size of the id form (AppendIDForm).
func (tx *Tx) IDFormLen() int {
	return tx.EncodedLen() - len(tx.Args) + min(len(tx.Args), crypto.HashSize)
}

// AppendIDForm appends the id form: the encoding with Args longer than a
// digest replaced by their digest. The id is the hash of its body, so it
// proves the transaction; DecodeTx reads it, ApplyTx refuses it.
func (tx *Tx) AppendIDForm(dst []byte) []byte {
	var d crypto.Hash
	args, kind := tx.idArgs(&d)
	return tx.appendForm(dst, args, kind)
}

func (tx *Tx) appendForm(dst, args []byte, kind byte) []byte {
	tx.VerifySig() // the signature bytes are final once the verdict is
	dst = append(tx.appendHead(dst, kind), tx.Params...)
	dst = append(tx.appendMid(dst, args), args...)
	return tx.Sig.AppendTo(tx.appendTail(dst))
}

// Encode serializes the full transaction (body + signature) for
// embedding in blocks and SPV evidence, in one exact-size allocation.
func (tx *Tx) Encode() []byte { return tx.AppendTo(make([]byte, 0, tx.EncodedLen())) }

// DecodeTx reverses Encode and AppendIDForm. The transaction aliases b
// — Params, Args, the signature and the two names are views into it —
// so b must not be written to while it is in use (package wire).
func DecodeTx(b []byte) (*Tx, error) {
	r := wire.NewReader(b)
	k := r.U8()
	tx := &Tx{Kind: TxKind(k &^ idForm), form: k & idForm, Nonce: r.U64()}
	if n := r.Count(txInLen); n > 0 {
		tx.Ins = make([]TxIn, n)
		for i := range tx.Ins {
			r.Fill(tx.Ins[i].Prev.TxID[:])
			tx.Ins[i].Prev.Index = r.U32()
		}
	}
	if n := r.Count(txOutLen); n > 0 {
		tx.Outs = make([]TxOut, n)
		for i := range tx.Outs {
			tx.Outs[i].Value = r.U64()
			r.Fill(tx.Outs[i].Owner[:])
		}
	}
	tx.ContractType = r.String()
	tx.Params = r.Bytes()
	r.Fill(tx.Contract[:])
	tx.Fn = r.String()
	tx.Args = r.Bytes()
	tx.Value = r.U64()
	tx.Sig.DecodeFrom(&r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("chain: decode tx: %w", err)
	}
	return tx, nil
}

// signedTx is a transaction built here and its signature's bytes: one
// allocation, 320 + 96 bytes in the 416-byte size class.
type signedTx struct {
	tx  Tx
	sig [crypto.SignedLen]byte
}

// sign leaves the signature to key, written when its verdict is claimed.
func (s *signedTx) sign(key *crypto.KeyPair) *Tx {
	s.tx.Sig = s.tx.sigOK.SignLater(key, &s.sig)
	return &s.tx
}

// NewTransfer builds a transfer spending ins (owned by key) into outs,
// signed by key when its verdict is first claimed (Sig).
func NewTransfer(key *crypto.KeyPair, nonce uint64, ins []TxIn, outs []TxOut) *Tx {
	return (&signedTx{tx: Tx{Kind: TxTransfer, Nonce: nonce, Ins: ins, Outs: outs}}).sign(key)
}

// NewDeploy builds a contract deployment, signed like NewTransfer's,
// locking value into a new contract of the given registry type. change
// receives any excess input value.
func NewDeploy(key *crypto.KeyPair, nonce uint64, ins []TxIn, change []TxOut, contractType string, params []byte, value vm.Amount) *Tx {
	return (&signedTx{tx: Tx{
		Kind:         TxDeploy,
		Nonce:        nonce,
		Ins:          ins,
		Outs:         change,
		ContractType: contractType,
		Params:       params,
		Value:        value,
	}}).sign(key)
}

// NewCall builds a contract function call, signed like NewTransfer's.
// ins/change fund value when non-zero.
func NewCall(key *crypto.KeyPair, nonce uint64, contract crypto.Address, fn string, args []byte, ins []TxIn, change []TxOut, value vm.Amount) *Tx {
	return (&signedTx{tx: Tx{
		Kind:     TxCall,
		Nonce:    nonce,
		Ins:      ins,
		Outs:     change,
		Contract: contract,
		Fn:       fn,
		Args:     args,
		Value:    value,
	}}).sign(key)
}

// ContractAddr returns the address the contract deployed by this
// transaction lives at, derived from the id once and cached. Only
// meaningful for TxDeploy.
func (tx *Tx) ContractAddr() crypto.Address {
	if !tx.memoAddrSet {
		tx.memoAddr = vm.ContractAddress(tx.ID())
		tx.memoAddrSet = true
	}
	return tx.memoAddr
}
