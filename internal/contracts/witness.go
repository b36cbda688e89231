package contracts

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/spv"
	"repro/internal/vm"
	"repro/internal/wire"
)

// ChainCheckpoint anchors evidence verification for one validated
// blockchain: the header of a stable block (Section 4.3) and the
// confirmation depth evidence from that chain must demonstrate.
type ChainCheckpoint struct {
	Chain chain.ID
	// Header is the encoded stable-block header.
	Header []byte
	// EvidenceDepth is the burial depth deploy-evidence from this
	// chain must prove.
	EvidenceDepth int
}

// WitnessParams are the constructor parameters of Algorithm 3's
// coordinator contract SCw.
type WitnessParams struct {
	// Edges and Timestamp reconstruct the AC2T graph D.
	Edges     []graph.Edge
	Timestamp int64
	// Multisig is ms(D): every participant's signature over the graph
	// digest. The constructor rejects incomplete multisignatures.
	Multisig crypto.MultiSig
	// Checkpoints holds one stable-block anchor per asset chain,
	// sorted by chain id (a deterministic encoding keeps deployment
	// transactions reproducible).
	Checkpoints []ChainCheckpoint
	// WitnessDepth is the depth d at which participants will accept
	// SCw state-change evidence; asset contracts must be deployed
	// with the same value (VerifyContracts checks it).
	WitnessDepth int
}

// minCheckpointLen is the least a checkpoint occupies on the wire: two
// length prefixes and the depth.
const minCheckpointLen = 2*wire.LenPrefix + wire.IntLen

// EncodedLen is the size of the wire form: u32 edge count and edges,
// Timestamp (64-bit two's complement), Multisig, u32 checkpoint count
// and checkpoints (Chain and Header behind u32 lengths, EvidenceDepth
// as an int), WitnessDepth as an int.
func (p WitnessParams) EncodedLen() int {
	n := wire.LenPrefix + 8 + p.Multisig.EncodedLen() + wire.LenPrefix + wire.IntLen
	for i := range p.Edges {
		n += p.Edges[i].EncodedLen()
	}
	for _, cp := range p.Checkpoints {
		n += minCheckpointLen + len(cp.Chain) + len(cp.Header)
	}
	return n
}

// AppendTo appends the wire form to dst.
func (p WitnessParams) AppendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Edges)))
	for i := range p.Edges {
		dst = p.Edges[i].AppendTo(dst)
	}
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.Timestamp))
	dst = p.Multisig.AppendTo(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Checkpoints)))
	for _, cp := range p.Checkpoints {
		dst = wire.AppendString(dst, string(cp.Chain))
		dst = wire.AppendBytes(dst, cp.Header)
		dst = wire.AppendInt(dst, cp.EvidenceDepth)
	}
	return wire.AppendInt(dst, p.WitnessDepth)
}

// Encode serializes the parameters for a deployment transaction.
func (p WitnessParams) Encode() []byte { return p.AppendTo(make([]byte, 0, p.EncodedLen())) }

// Decode reverses Encode. Chain ids, checkpoint headers and the
// multisignature's keys and signatures are views into b (package wire).
func (p *WitnessParams) Decode(b []byte) error {
	r := wire.NewReader(b)
	p.Edges = make([]graph.Edge, r.Count(graph.MinEdgeLen))
	for i := range p.Edges {
		p.Edges[i].DecodeFrom(&r)
	}
	p.Timestamp = int64(r.U64())
	p.Multisig.DecodeFrom(&r)
	p.Checkpoints = make([]ChainCheckpoint, r.Count(minCheckpointLen))
	for i := range p.Checkpoints {
		cp := &p.Checkpoints[i]
		cp.Chain = chain.ID(r.String())
		cp.Header = r.Bytes()
		cp.EvidenceDepth = r.Int()
	}
	p.WitnessDepth = r.Int()
	return r.Finish()
}

// WitnessSC is the AC2T coordinator of Algorithm 3, deployed on the
// witness network. Its state is the commit/abort decision: miners
// only record a transition P→RDauth after verifying evidence that
// every asset contract in the AC2T is published and correct, and only
// one of the two transitions can ever occur on a given chain.
type WitnessSC struct {
	Participants []crypto.Address
	Edges        []graph.Edge
	Timestamp    int64
	MSID         crypto.Hash // order-independent id of ms(D)
	Checkpoints  []ChainCheckpoint
	WitnessDepth int
	State        WitnessState
}

// Type implements vm.Contract.
func (w *WitnessSC) Type() string { return TypeWitness }

// Init implements Algorithm 3's constructor: store the participants'
// identities and the multisigned graph after verifying it.
func (w *WitnessSC) Init(ctx *vm.Ctx, params []byte) error {
	var p WitnessParams
	if err := p.Decode(params); err != nil {
		return fmt.Errorf("witness: params: %w", err)
	}
	g, err := graph.New(p.Timestamp, p.Edges...)
	if err != nil {
		return fmt.Errorf("witness: graph: %w", err)
	}
	if !g.VerifyMultisig(&p.Multisig, ctx.Sigs) {
		return errors.New("witness: multisignature incomplete or invalid")
	}
	if p.WitnessDepth < 0 {
		return errors.New("witness: negative witness depth")
	}
	// Every asset chain needs a checkpoint anchor.
	anchored := make(map[chain.ID]bool, len(p.Checkpoints))
	for _, cp := range p.Checkpoints {
		if _, err := chain.DecodeHeader(cp.Header); err != nil {
			return fmt.Errorf("witness: checkpoint for %s: %w", cp.Chain, err)
		}
		if cp.EvidenceDepth < 0 {
			return fmt.Errorf("witness: negative evidence depth for %s", cp.Chain)
		}
		anchored[cp.Chain] = true
	}
	for _, id := range g.Chains() {
		if !anchored[id] {
			return fmt.Errorf("witness: no checkpoint for chain %s", id)
		}
	}
	// p views the deployment transaction; state keeps its own copies of
	// the checkpoints, and the edges share the checkpoints' chain ids
	// (every edge chain was just shown to have one).
	w.Checkpoints = make([]ChainCheckpoint, len(p.Checkpoints))
	for i, cp := range p.Checkpoints {
		cp.Chain = chain.ID(strings.Clone(string(cp.Chain)))
		cp.Header = bytes.Clone(cp.Header)
		w.Checkpoints[i] = cp
	}
	for i := range g.Edges {
		for _, cp := range w.Checkpoints {
			if cp.Chain == g.Edges[i].Chain {
				g.Edges[i].Chain = cp.Chain
				break
			}
		}
	}
	w.Participants = g.Participants
	w.Edges = g.Edges
	w.Timestamp = p.Timestamp
	w.MSID = p.Multisig.ID()
	w.WitnessDepth = p.WitnessDepth
	w.State = WitnessPublished
	return nil
}

// Call dispatches the two state transitions. Any other transition is
// structurally impossible — the mutual-exclusion property Lemma 5.1
// relies on.
func (w *WitnessSC) Call(ctx *vm.Ctx, fn string, args []byte) error {
	switch fn {
	case FnAuthorizeRedeem:
		if w.State != WitnessPublished {
			return fmt.Errorf("witness: authorize_redeem in state %s", w.State)
		}
		if err := w.verifyContracts(ctx, args); err != nil {
			return fmt.Errorf("witness: %w", err)
		}
		w.State = WitnessRedeemAuthorized
		return nil
	case FnAuthorizeRefund:
		if w.State != WitnessPublished {
			return fmt.Errorf("witness: authorize_refund in state %s", w.State)
		}
		w.State = WitnessRefundAuthorized
		return nil
	default:
		return vm.ErrUnknownFunction(TypeWitness, fn)
	}
}

// checkpointFor finds the anchor for a chain. The header is returned by
// value, so the caller holds it on its stack.
func (w *WitnessSC) checkpointFor(id chain.ID) (chain.Header, int, error) {
	for _, cp := range w.Checkpoints {
		if cp.Chain == id {
			h, err := chain.DecodeHeader(cp.Header)
			if err != nil {
				return chain.Header{}, 0, err
			}
			return *h, cp.EvidenceDepth, nil
		}
	}
	return chain.Header{}, 0, fmt.Errorf("no checkpoint for chain %s", id)
}

// verifyContracts is Algorithm 3's VerifyContracts: the evidence must
// prove, for every edge e ∈ D.E, that a matching PermissionlessSC is
// published on e.BC — right asset, right sender and recipient, and
// redemption/refund conditioned on *this* SCw at the agreed depth.
func (w *WitnessSC) verifyContracts(ctx *vm.Ctx, args []byte) error {
	evs, err := DecodeEvidenceList(args)
	if err != nil {
		return err
	}
	if len(evs) != len(w.Edges) {
		return fmt.Errorf("evidence for %d contracts, need %d", len(evs), len(w.Edges))
	}
	selfAddr := ctx.Self
	var stack [8]crypto.Hash
	proven := stack[:0] // edge j's deployment, so that no two edges share one
	for i, e := range w.Edges {
		cp, depth, err := w.checkpointFor(e.Chain)
		if err != nil {
			return fmt.Errorf("edge %d: %w", i, err)
		}
		tx, err := spv.Verify(evs[i], e.Chain, &cp, depth)
		if err != nil {
			return fmt.Errorf("edge %d: %w", i, err)
		}
		if err := matchDeployToEdge(tx, e, selfAddr, string(ctx.ChainID), w.WitnessDepth); err != nil {
			return fmt.Errorf("edge %d: %w", i, err)
		}
		for j, id := range proven {
			if id == tx.ID() && w.Edges[j].Chain == e.Chain {
				return fmt.Errorf("edge %d: deployment %s already proves edge %d", i, id, j)
			}
		}
		proven = append(proven, tx.ID())
	}
	return nil
}

// matchDeployToEdge checks a proven deployment transaction against
// its edge specification.
func matchDeployToEdge(tx *chain.Tx, e graph.Edge, scw crypto.Address, witnessChain string, witnessDepth int) error {
	if tx.Kind != chain.TxDeploy || tx.ContractType != TypePermissionless {
		return fmt.Errorf("not a %s deployment", TypePermissionless)
	}
	if tx.Value != e.Asset {
		return fmt.Errorf("locks %d, edge specifies %d", tx.Value, e.Asset)
	}
	if tx.Sig.Signer() != e.From {
		return fmt.Errorf("deployed by %s, edge source is %s", tx.Sig.Signer(), e.From)
	}
	var p PermissionlessParams
	if err := p.Decode(tx.Params); err != nil {
		return fmt.Errorf("constructor params: %w", err)
	}
	switch {
	case p.Recipient != e.To:
		return fmt.Errorf("recipient %s, edge specifies %s", p.Recipient, e.To)
	case p.SCw != scw:
		return errors.New("conditioned on a different witness contract")
	case string(p.WitnessChain) != witnessChain:
		return fmt.Errorf("conditioned on witness chain %s, want %s", p.WitnessChain, witnessChain)
	case p.Depth != witnessDepth:
		return fmt.Errorf("uses witness depth %d, agreed %d", p.Depth, witnessDepth)
	}
	return nil
}

// Clone implements vm.Contract.
func (w *WitnessSC) Clone() vm.Contract {
	cp := *w
	cp.Participants = append([]crypto.Address(nil), w.Participants...)
	cp.Edges = append([]graph.Edge(nil), w.Edges...)
	cp.Checkpoints = append([]ChainCheckpoint(nil), w.Checkpoints...)
	return &cp
}

// EncodeEvidenceList packs encoded values — per-edge SPV evidence, or
// an [evidence, membership proof] pair — into one call argument: a u32
// count, then each item behind its u32 length. Items are appended
// straight into the one buffer, never encoded on their own first.
func EncodeEvidenceList(items ...wire.Appender) []byte {
	n := wire.LenPrefix
	for _, it := range items {
		n += wire.LenPrefix + it.EncodedLen()
	}
	out := binary.BigEndian.AppendUint32(make([]byte, 0, n), uint32(len(items)))
	for _, it := range items {
		out = binary.BigEndian.AppendUint32(out, uint32(it.EncodedLen()))
		out = it.AppendTo(out)
	}
	return out
}

// DecodeEvidenceList reverses EncodeEvidenceList. The items are views
// into b (package wire).
func DecodeEvidenceList(b []byte) ([][]byte, error) {
	r := wire.NewReader(b)
	out := make([][]byte, r.Count(wire.LenPrefix))
	for i := range out {
		out[i] = r.Bytes()
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("evidence list: %w", err)
	}
	return out, nil
}
