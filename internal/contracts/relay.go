package contracts

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/spv"
	"repro/internal/vm"
	"repro/internal/wire"
)

// RelayParams configure a HeaderRelay: which transaction in which
// validated chain the contract waits for, anchored at which stable
// block, at what confirmation depth.
type RelayParams struct {
	ValidatedChain chain.ID
	// Checkpoint is the encoded stable-block header of the validated
	// chain (the red rectangle inside SC in Figure 6).
	Checkpoint []byte
	// TargetTx is the transaction of interest (TX1 in Figure 6).
	TargetTx crypto.Hash
	// MinDepth is d.
	MinDepth int
}

// EncodedLen is the size of the wire form: ValidatedChain and
// Checkpoint behind u32 lengths, TargetTx, MinDepth as an int.
func (p RelayParams) EncodedLen() int {
	return wire.LenPrefix + len(p.ValidatedChain) + wire.LenPrefix + len(p.Checkpoint) + crypto.HashSize + wire.IntLen
}

// AppendTo appends the wire form to dst.
func (p RelayParams) AppendTo(dst []byte) []byte {
	dst = wire.AppendString(dst, string(p.ValidatedChain))
	dst = wire.AppendBytes(dst, p.Checkpoint)
	dst = append(dst, p.TargetTx[:]...)
	return wire.AppendInt(dst, p.MinDepth)
}

// Encode serializes the parameters for a deployment transaction.
func (p RelayParams) Encode() []byte { return p.AppendTo(make([]byte, 0, p.EncodedLen())) }

// Decode reverses Encode. ValidatedChain and Checkpoint are views into
// b (package wire).
func (p *RelayParams) Decode(b []byte) error {
	r := wire.NewReader(b)
	p.ValidatedChain = chain.ID(r.String())
	p.Checkpoint = r.Bytes()
	r.Fill(p.TargetTx[:])
	p.MinDepth = r.Int()
	return r.Finish()
}

// RelayState is the two-state machine of Figure 6.
type RelayState byte

// Relay states.
const (
	RelayS1 RelayState = iota // initial
	RelayS2                   // evidence accepted
)

// HeaderRelay is the standalone Section 4.3 validator contract
// (Figure 6): it stores a stable-block header of another blockchain
// and flips S1→S2 when submitted evidence proves the target
// transaction occurred after that block and is buried d deep. The
// AC3WN contracts embed the same logic; this contract exposes it
// directly, as a cross-chain building block in its own right (and for
// the evidence-strategy ablation).
type HeaderRelay struct {
	ValidatedChain chain.ID
	Checkpoint     []byte
	TargetTx       crypto.Hash
	MinDepth       int
	State          RelayState

	// Verified counts accepted evidence submissions (at most 1).
	Verified int
}

// Type implements vm.Contract.
func (r *HeaderRelay) Type() string { return TypeHeaderRelay }

// Init stores the anchor.
func (r *HeaderRelay) Init(ctx *vm.Ctx, params []byte) error {
	var p RelayParams
	if err := p.Decode(params); err != nil {
		return fmt.Errorf("relay: params: %w", err)
	}
	if _, err := chain.DecodeHeader(p.Checkpoint); err != nil {
		return fmt.Errorf("relay: checkpoint: %w", err)
	}
	if p.MinDepth < 0 {
		return errors.New("relay: negative depth")
	}
	// p views the deployment transaction; state keeps its own copies.
	r.ValidatedChain = chain.ID(strings.Clone(string(p.ValidatedChain)))
	r.Checkpoint = bytes.Clone(p.Checkpoint)
	r.TargetTx = p.TargetTx
	r.MinDepth = p.MinDepth
	r.State = RelayS1
	return nil
}

// Call handles submit_evidence (labeled 6 in Figure 6).
func (r *HeaderRelay) Call(ctx *vm.Ctx, fn string, args []byte) error {
	if fn != FnSubmitEvidence {
		return vm.ErrUnknownFunction(TypeHeaderRelay, fn)
	}
	if r.State != RelayS1 {
		return errors.New("relay: already validated")
	}
	ev, err := spv.Decode(args)
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	if ev.ChainID != r.ValidatedChain {
		return fmt.Errorf("relay: evidence from %s, want %s", ev.ChainID, r.ValidatedChain)
	}
	checkpoint, err := chain.DecodeHeader(r.Checkpoint)
	if err != nil {
		return fmt.Errorf("relay: stored checkpoint corrupt: %w", err)
	}
	tx, err := ev.Verify(checkpoint, r.MinDepth)
	if err != nil {
		return fmt.Errorf("relay: %w", err)
	}
	if tx.ID() != r.TargetTx {
		return fmt.Errorf("relay: proven tx %s is not the target %s", tx.ID(), r.TargetTx)
	}
	r.State = RelayS2
	r.Verified++
	return nil
}

// Clone implements vm.Contract.
func (r *HeaderRelay) Clone() vm.Contract {
	cp := *r
	cp.Checkpoint = append([]byte(nil), r.Checkpoint...)
	return &cp
}
