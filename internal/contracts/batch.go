package contracts

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/merkle"
	"repro/internal/vm"
	"repro/internal/wire"
)

// TypeBatchWitness is the registry name of the batch-commitment
// witness contract, and FnCommitBatch its single state transition.
const (
	TypeBatchWitness = "ac3wn.batch"
	FnCommitBatch    = "commit_batch"
)

// DecisionRecord is one AC2T decision inside a batch: the address of
// the per-AC2T witness contract SCw and the authorized direction. The
// record — not the SCw contract's own state — is what batched
// redeem/refund verification consumes.
type DecisionRecord struct {
	SCw      crypto.Address
	Decision WitnessState // RedeemAuthorized or RFauth only
}

// DecisionLeaf is the canonical merkle leaf payload for one decision:
// the SCw address bytes followed by the decision byte. Asset-chain
// verification recomputes exactly this payload for the membership
// proof, so the encoding is part of the protocol.
func DecisionLeaf(scw crypto.Address, decision WitnessState) []byte {
	out := make([]byte, len(scw)+1)
	copy(out, scw[:])
	out[len(scw)] = byte(decision)
	return out
}

// BatchLeaves maps a canonical-ordered record set to its merkle
// leaves. Shared by the contract (root verification), the coordinator
// (root construction), and participants (membership-proof derivation
// from chain state after a crash).
func BatchLeaves(records []DecisionRecord) []crypto.Hash {
	leaves := make([]crypto.Hash, len(records))
	for i, r := range records {
		leaves[i] = merkle.LeafHash(DecisionLeaf(r.SCw, r.Decision))
	}
	return leaves
}

// BatchRoot computes the commitment root over a canonical-ordered
// record set.
func BatchRoot(records []DecisionRecord) crypto.Hash {
	return merkle.Root(BatchLeaves(records))
}

// SortDecisionRecords puts records into canonical order: strictly
// ascending by SCw address bytes. The contract rejects any other
// order, making the root — and therefore every membership proof —
// independent of submission order.
func SortDecisionRecords(records []DecisionRecord) {
	for i := 1; i < len(records); i++ {
		for j := i; j > 0 && bytes.Compare(records[j].SCw[:], records[j-1].SCw[:]) < 0; j-- {
			records[j], records[j-1] = records[j-1], records[j]
		}
	}
}

// BatchCommit is the commit_batch argument: the decision set in
// canonical order, the merkle root over it, and the witness quorum's
// threshold attestation of that root. Per-AC2T SPV evidence does not
// appear on-chain — verifying it is the attesting witnesses' duty —
// which is where the bytes-per-decision win comes from.
type BatchCommit struct {
	Records     []DecisionRecord
	Root        crypto.Hash
	Attestation crypto.MultiSig
}

// decisionRecordLen is the wire size of one record: SCw, decision byte.
const decisionRecordLen = crypto.AddressSize + 1

// EncodedLen is the size of the wire form: u32 record count, records
// (SCw, decision byte), Root, Attestation.
func (bc *BatchCommit) EncodedLen() int {
	return wire.LenPrefix + len(bc.Records)*decisionRecordLen + crypto.HashSize + bc.Attestation.EncodedLen()
}

// AppendTo appends the wire form to dst.
func (bc *BatchCommit) AppendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(bc.Records)))
	for _, r := range bc.Records {
		dst = append(dst, r.SCw[:]...)
		dst = append(dst, byte(r.Decision))
	}
	dst = append(dst, bc.Root[:]...)
	return bc.Attestation.AppendTo(dst)
}

// EncodeBatchCommit encodes the commit_batch call argument.
func EncodeBatchCommit(bc *BatchCommit) []byte {
	return bc.AppendTo(make([]byte, 0, bc.EncodedLen()))
}

// DecodeBatchCommit reverses EncodeBatchCommit. The attestation's keys
// and signatures are views into b (package wire).
func DecodeBatchCommit(b []byte) (*BatchCommit, error) {
	r := wire.NewReader(b)
	bc := &BatchCommit{Records: make([]DecisionRecord, r.Count(decisionRecordLen))}
	for i := range bc.Records {
		r.Fill(bc.Records[i].SCw[:])
		bc.Records[i].Decision = WitnessState(r.U8())
	}
	r.Fill(bc.Root[:])
	bc.Attestation.DecodeFrom(&r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("batch commit: %w", err)
	}
	return bc, nil
}

// BatchWitnessParams are the constructor parameters of the batch
// contract: the witness set whose threshold attestation authorizes a
// commitment.
type BatchWitnessParams struct {
	Witnesses []crypto.Address
	Threshold int
}

// EncodedLen is the size of the wire form: u32 witness count,
// addresses, Threshold as an int.
func (p BatchWitnessParams) EncodedLen() int {
	return wire.LenPrefix + len(p.Witnesses)*crypto.AddressSize + wire.IntLen
}

// AppendTo appends the wire form to dst.
func (p BatchWitnessParams) AppendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Witnesses)))
	for i := range p.Witnesses {
		dst = append(dst, p.Witnesses[i][:]...)
	}
	return wire.AppendInt(dst, p.Threshold)
}

// Encode serializes the parameters for a deployment transaction.
func (p BatchWitnessParams) Encode() []byte { return p.AppendTo(make([]byte, 0, p.EncodedLen())) }

// Decode reverses Encode; Witnesses is a fresh slice.
func (p *BatchWitnessParams) Decode(b []byte) error {
	r := wire.NewReader(b)
	p.Witnesses = make([]crypto.Address, r.Count(crypto.AddressSize))
	for i := range p.Witnesses {
		r.Fill(p.Witnesses[i][:])
	}
	p.Threshold = r.Int()
	return r.Finish()
}

// BatchWitnessSC is the batch-commitment coordinator: one contract per
// world that replaces per-AC2T SCw decision transactions with one
// merkle-committed transaction per decision set (the Celestia
// QGB-style data commitment shape). Its Decisions map is the decision
// ledger: a (SCw → direction) entry exists exactly when a committed
// batch contained it, and a batch carrying a record that conflicts
// with an existing entry fails whole — since miners exclude failing
// calls from blocks, on-chain inclusion of a commit_batch implies
// every record in it is conflict-free, preserving Lemma 5.1's mutual
// exclusion without per-AC2T transactions.
type BatchWitnessSC struct {
	Witnesses []crypto.Address
	Threshold int
	Decisions map[crypto.Address]WitnessState
}

// Type implements vm.Contract.
func (b *BatchWitnessSC) Type() string { return TypeBatchWitness }

// Init validates and stores the witness set.
func (b *BatchWitnessSC) Init(ctx *vm.Ctx, params []byte) error {
	var p BatchWitnessParams
	if err := p.Decode(params); err != nil {
		return fmt.Errorf("batch: params: %w", err)
	}
	if len(p.Witnesses) == 0 {
		return errors.New("batch: empty witness set")
	}
	seen := make(map[crypto.Address]bool, len(p.Witnesses))
	for _, w := range p.Witnesses {
		if w.IsZero() {
			return errors.New("batch: zero witness address")
		}
		if seen[w] {
			return fmt.Errorf("batch: duplicate witness %s", w)
		}
		seen[w] = true
	}
	if p.Threshold < 1 || p.Threshold > len(p.Witnesses) {
		return fmt.Errorf("batch: threshold %d outside [1,%d]", p.Threshold, len(p.Witnesses))
	}
	b.Witnesses = p.Witnesses // decoded into its own slice
	b.Threshold = p.Threshold
	b.Decisions = make(map[crypto.Address]WitnessState)
	return nil
}

// Call dispatches commit_batch: verify the canonical order, the root,
// the threshold attestation, and conflict-freedom, then record every
// decision. Any failure rejects the entire batch.
func (b *BatchWitnessSC) Call(ctx *vm.Ctx, fn string, args []byte) error {
	if fn != FnCommitBatch {
		return vm.ErrUnknownFunction(TypeBatchWitness, fn)
	}
	bc, err := DecodeBatchCommit(args)
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if len(bc.Records) == 0 {
		return errors.New("batch: empty decision set")
	}
	for i, r := range bc.Records {
		if r.Decision != WitnessRedeemAuthorized && r.Decision != WitnessRefundAuthorized {
			return fmt.Errorf("batch: record %d has non-decision state %s", i, r.Decision)
		}
		if i > 0 && bytes.Compare(bc.Records[i-1].SCw[:], r.SCw[:]) >= 0 {
			return fmt.Errorf("batch: records not in canonical order at %d", i)
		}
	}
	root := BatchRoot(bc.Records)
	if bc.Root != root {
		return errors.New("batch: declared root does not match decision set")
	}
	if bc.Attestation.Digest != root {
		return errors.New("batch: attestation digest is not the batch root")
	}
	if !bc.Attestation.CompleteThreshold(b.Witnesses, b.Threshold) {
		return fmt.Errorf("batch: attestation below %d-of-%d threshold", b.Threshold, len(b.Witnesses))
	}
	// Conflict check before any mutation: one conflicting record
	// invalidates the whole batch, so a committed batch never
	// contradicts the decision ledger. Re-recording the same decision
	// is idempotent — a republished batch after a reorg may overlap
	// records that already landed elsewhere.
	for _, r := range bc.Records {
		if prev, ok := b.Decisions[r.SCw]; ok && prev != r.Decision {
			return fmt.Errorf("batch: record for %s conflicts with recorded %s", r.SCw, prev)
		}
	}
	for _, r := range bc.Records {
		b.Decisions[r.SCw] = r.Decision
	}
	return nil
}

// Clone implements vm.Contract.
func (b *BatchWitnessSC) Clone() vm.Contract {
	cp := &BatchWitnessSC{
		Witnesses: append([]crypto.Address(nil), b.Witnesses...),
		Threshold: b.Threshold,
		Decisions: make(map[crypto.Address]WitnessState, len(b.Decisions)),
	}
	for k, v := range b.Decisions {
		cp.Decisions[k] = v
	}
	return cp
}
