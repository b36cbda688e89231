package contracts

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// verifyContracts is Algorithm 3's VerifyContracts: the evidence must
// prove, for every edge e ∈ D.E, a PermissionlessSC deployment on e.BC
// whose lock MatchEdges accepts — conditioned on *this* SCw, on this
// witness chain, at the agreed depth, and on no batch contract.
func (w *WitnessSC) verifyContracts(ctx *vm.Ctx, args []byte) error {
	evs, err := DecodeEvidenceList(args)
	if err != nil {
		return err
	}
	if len(evs) != len(w.Edges) {
		return fmt.Errorf("evidence for %d contracts, need %d", len(evs), len(w.Edges))
	}
	var stack [8]Lock
	locks := stack[:0]
	for i, e := range w.Edges {
		l, err := w.provenLock(e.Chain, evs[i])
		if err != nil {
			return fmt.Errorf("edge %d: %w", i, err)
		}
		locks = append(locks, l)
	}
	return MatchEdges(w.Edges, locks, Binding{Witness: ctx.Self, Chain: chain.ID(ctx.ChainID), Depth: w.WitnessDepth})
}

// provenLock is the lock a PermissionlessSC deployment on chain id
// makes, as ev proves it against SCw's checkpoint for that chain.
func (w *WitnessSC) provenLock(id chain.ID, ev []byte) (Lock, error) {
	k := slices.IndexFunc(w.Checkpoints, func(cp ChainCheckpoint) bool { return cp.Chain == id })
	if k < 0 {
		return Lock{}, fmt.Errorf("no checkpoint for chain %s", id)
	}
	h, err := chain.DecodeHeader(w.Checkpoints[k].Header)
	if err != nil {
		return Lock{}, err
	}
	tx, err := spv.Verify(ev, id, h, w.Checkpoints[k].EvidenceDepth)
	if err != nil {
		return Lock{}, err
	}
	if tx.Kind != chain.TxDeploy || tx.ContractType != TypePermissionless {
		return Lock{}, fmt.Errorf("not a %s deployment", TypePermissionless)
	}
	var p PermissionlessParams
	if err := p.Decode(tx.Params); err != nil {
		return Lock{}, fmt.Errorf("constructor params: %w", err)
	}
	return Lock{
		ID: tx.ContractAddr(), Sender: tx.Sig.Signer(), Recipient: p.Recipient, Asset: tx.Value,
		Binding: Binding{Witness: p.SCw, Chain: p.WitnessChain, Depth: p.Depth, Batch: p.Batch},
	}, nil
}

// Lock is one asset contract as Algorithm 3's validator sees it, on
// its edge's chain: SCw fills one from each deployment SPV-proven on
// that chain, Trent from each CentralizedSC he reads there at depth.
type Lock struct {
	ID        crypto.Address // the contract's address on its chain
	Sender    crypto.Address
	Recipient crypto.Address
	Asset     vm.Amount
	Binding   Binding
}

// Binding is what a contract's redeem and refund are conditioned on:
// SCw, its witness chain and d (AC3WN), or Trent's key and ms(D)
// (AC3TW) — and, for a batched AC3WN contract, a batch contract.
type Binding struct {
	Witness crypto.Address // SCw's address, or Trent's key
	MSID    crypto.Hash    // ms(D)'s id (AC3TW)
	Chain   chain.ID       // the witness chain (AC3WN)
	Depth   int            // d (AC3WN)
	Batch   crypto.Address // zero in every binding SCw and Trent want
}

// MatchEdges is the rule SCw and Trent both decide by (ADR-025): lock i
// proves edge i — same sender, recipient and asset, and bound exactly
// as want — and no contract proves two edges on one chain. Its checks
// run in that order, so the first failing one names the error.
func MatchEdges(edges []graph.Edge, locks []Lock, want Binding) error {
	if len(locks) != len(edges) {
		return fmt.Errorf("%d contracts for %d edges", len(locks), len(edges))
	}
	for i, e := range edges {
		l := &locks[i]
		switch {
		case l.Sender != e.From:
			return fmt.Errorf("edge %d: locked by %s, edge source is %s", i, l.Sender, e.From)
		case l.Recipient != e.To:
			return fmt.Errorf("edge %d: recipient %s, edge specifies %s", i, l.Recipient, e.To)
		case l.Asset != e.Asset:
			return fmt.Errorf("edge %d: locks %d, edge specifies %d", i, l.Asset, e.Asset)
		case l.Binding != want:
			return fmt.Errorf("edge %d: conditioned on %+v, agreed %+v", i, l.Binding, want)
		}
		for j := range i {
			if locks[j].ID == l.ID && edges[j].Chain == e.Chain {
				return fmt.Errorf("edge %d: contract %s already proves edge %d", i, l.ID, j)
			}
		}
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
