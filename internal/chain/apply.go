package chain

import (
	"errors"
	"fmt"

	"repro/internal/crypto"
	"repro/internal/vm"
)

// Validation errors, distinguishable by callers (miners drop
// ErrTxInvalid transactions from the mempool; invalid *blocks* are
// rejected outright).
var (
	ErrTxInvalid    = errors.New("chain: invalid transaction")
	ErrBlockInvalid = errors.New("chain: invalid block")
)

// txRejection is why a transaction was refused. Block building throws
// most of them away unread (a candidate that does not apply yet is
// simply retried or purged), so the reason is kept as its parts and
// only rendered if somebody asks.
type txRejection struct {
	format string
	args   []any
	clock  bool // the refusing contract had read the block's time
}

func (e *txRejection) Error() string {
	return ErrTxInvalid.Error() + ": " + fmt.Sprintf(e.format, e.args...)
}

func (e *txRejection) Unwrap() error { return ErrTxInvalid }

func txErr(format string, args ...any) error {
	return &txRejection{format: format, args: args}
}

func blockErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBlockInvalid, fmt.Sprintf(format, args...))
}

// ApplyTx validates tx against st and, if valid, writes its effects to
// st. st is any writable state — the overlay layer being built for the
// current block, or a private base. height/time describe that block.
// The registry instantiates deployed contracts.
//
// The miner-side rule of Section 2.3 is enforced here: signatures must
// be by the owner of every input, double spends are rejected, and
// value is conserved (inputs = outputs + locked value; genesis and
// coinbase mint by construction). A transaction is applied all or
// nothing — one ApplyTx rejects leaves st as it found it — so a block
// that carries a contract call proves the call succeeded.
func ApplyTx(st *State, reg *vm.Registry, chainID ID, height uint64, blockTime int64, tx *Tx) error {
	return applyTx(st, reg, chainID, height, blockTime, tx, &crypto.SigTally{}, new(vm.Ctx))
}

// applyTx is ApplyTx noting in sigs how the signature verdict was come by
// and running a deploy or call in ctx, made anew (NewCtx) each time.
// Every check reads st and none writes it; commit writes once they pass.
func applyTx(st *State, reg *vm.Registry, chainID ID, height uint64, blockTime int64, tx *Tx, sigs *crypto.SigTally, ctx *vm.Ctx) error {
	if tx.form != 0 { // same id and signature, but the call would run without its arguments
		return txErr("id form: arguments replaced by their digest")
	}
	switch tx.Kind {
	case TxGenesis:
		if height != 0 {
			return txErr("genesis tx at height %d", height)
		}
		return applyMint(st, tx)
	case TxCoinbase:
		if height == 0 {
			return txErr("coinbase in genesis block")
		}
		if len(tx.Ins) != 0 {
			return txErr("coinbase with inputs")
		}
		return applyMint(st, tx)
	case TxTransfer:
		return applyTransfer(st, tx, sigs)
	case TxDeploy:
		return applyDeploy(st, reg, chainID, blockTime, tx, sigs, ctx)
	case TxCall:
		return applyCall(st, chainID, blockTime, tx, sigs, ctx)
	default:
		return txErr("unknown kind %v", tx.Kind)
	}
}

// applyMint credits tx.Outs without consuming inputs (genesis and
// coinbase only).
func applyMint(st *State, tx *Tx) error {
	if len(tx.Outs) == 0 {
		return txErr("mint with no outputs")
	}
	for i, out := range tx.Outs {
		if out.Owner.IsZero() {
			return txErr("mint output %d to zero address", i)
		}
	}
	addOutputs(st, tx)
	return nil
}

// checkInputs validates tx.Ins and returns their total value. Every
// input must exist, be unspent, and be owned by the transaction's
// signer.
func checkInputs(st *State, tx *Tx, sigs *crypto.SigTally) (vm.Amount, error) {
	if len(tx.Ins) == 0 {
		return 0, nil
	}
	if !tx.verifySig(sigs) {
		return 0, txErr("bad signature")
	}
	signer := tx.Signer()
	var total vm.Amount
	seen := make(map[OutPoint]bool, len(tx.Ins))
	for _, in := range tx.Ins {
		if seen[in.Prev] {
			return 0, txErr("duplicate input %s", in.Prev)
		}
		seen[in.Prev] = true
		out, ok := st.UTXO(in.Prev)
		if !ok {
			return 0, txErr("input %s missing or spent", in.Prev)
		}
		if out.Owner != signer {
			return 0, txErr("input %s owned by %s, signed by %s", in.Prev, out.Owner, signer)
		}
		total += out.Value
	}
	return total, nil
}

// checkOutputs validates tx.Outs and returns their total value.
func checkOutputs(tx *Tx) (vm.Amount, error) {
	var total vm.Amount
	for i, out := range tx.Outs {
		if out.Owner.IsZero() {
			return 0, txErr("output %d to zero address", i)
		}
		if out.Value == 0 {
			return 0, txErr("output %d has zero value", i)
		}
		total += out.Value
	}
	return total, nil
}

func applyTransfer(st *State, tx *Tx, sigs *crypto.SigTally) error {
	if len(tx.Ins) == 0 || len(tx.Outs) == 0 {
		return txErr("transfer needs inputs and outputs")
	}
	if tx.Value != 0 || tx.ContractType != "" || len(tx.Params) != 0 || !tx.Contract.IsZero() || tx.Fn != "" || len(tx.Args) != 0 {
		return txErr("transfer carries contract fields")
	}
	in, err := checkInputs(st, tx, sigs)
	if err != nil {
		return err
	}
	out, err := checkOutputs(tx)
	if err != nil {
		return err
	}
	if in != out {
		return txErr("value not conserved: in=%d out=%d", in, out)
	}
	commit(st, tx, nil, nil)
	return nil
}

func applyDeploy(st *State, reg *vm.Registry, chainID ID, blockTime int64, tx *Tx, sigs *crypto.SigTally, ctx *vm.Ctx) error {
	if tx.ContractType == "" {
		return txErr("deploy without contract type")
	}
	if !tx.Contract.IsZero() || tx.Fn != "" || len(tx.Args) != 0 {
		return txErr("deploy carries call fields")
	}
	if len(tx.Sig.Sig) == 0 {
		return txErr("unsigned deploy")
	}
	// Deployments without inputs still need a valid signature to
	// establish msg.sender (the contract's owner).
	if len(tx.Ins) == 0 && !tx.verifySig(sigs) {
		return txErr("bad signature")
	}
	in, err := checkInputs(st, tx, sigs)
	if err != nil {
		return err
	}
	change, err := checkOutputs(tx)
	if err != nil {
		return err
	}
	if in != change+tx.Value {
		return txErr("deploy value not conserved: in=%d change=%d locked=%d", in, change, tx.Value)
	}
	if tx.Value > 0 && len(tx.Ins) == 0 {
		return txErr("deploy locks value without inputs")
	}
	addr := tx.ContractAddr()
	if _, exists := st.Contract(addr); exists {
		return txErr("contract %s already deployed", addr)
	}
	c, err := reg.New(tx.ContractType)
	if err != nil {
		return txErr("deploy: %v", err)
	}
	msg := vm.Msg{Sender: tx.Signer(), Value: tx.Value}
	*ctx = vm.NewCtx(string(chainID), addr, blockTime, msg, tx.Value)
	ctx.Sigs = reg.Sigs
	if err := c.Init(ctx, tx.Params); err != nil {
		return &txRejection{"constructor of %s failed: %v", []any{tx.ContractType, err}, ctx.ReadClock()}
	}
	commit(st, tx, c, ctx)
	return nil
}

func applyCall(st *State, chainID ID, blockTime int64, tx *Tx, sigs *crypto.SigTally, ctx *vm.Ctx) error {
	if tx.Fn == "" {
		return txErr("call without function name")
	}
	if tx.ContractType != "" || len(tx.Params) != 0 {
		return txErr("call carries deploy fields")
	}
	if len(tx.Sig.Sig) == 0 {
		return txErr("unsigned call")
	}
	// Calls without inputs still need a valid signature to establish
	// msg.sender.
	if len(tx.Ins) == 0 && !tx.verifySig(sigs) {
		return txErr("bad signature")
	}
	in, err := checkInputs(st, tx, sigs)
	if err != nil {
		return err
	}
	change, err := checkOutputs(tx)
	if err != nil {
		return err
	}
	if in != change+tx.Value {
		return txErr("call value not conserved: in=%d change=%d sent=%d", in, change, tx.Value)
	}
	stored, ok := st.Contract(tx.Contract)
	if !ok {
		return txErr("no contract at %s", tx.Contract)
	}
	// A stored contract object is shared by every state that holds it
	// and never written: the call runs on a copy, stored if it succeeds.
	c := stored.Clone()
	balance := st.Balance(tx.Contract) + tx.Value
	msg := vm.Msg{Sender: tx.Signer(), Value: tx.Value}
	*ctx = vm.NewCtx(string(chainID), tx.Contract, blockTime, msg, balance)
	if err := c.Call(ctx, tx.Fn, tx.Args); err != nil {
		return &txRejection{"call %s.%s failed: %v", []any{tx.Contract, tx.Fn, err}, ctx.ReadClock()}
	}
	commit(st, tx, c, ctx)
	return nil
}

// commit writes the effects of a transaction that passed every check:
// its inputs spent and its outputs added, then — for a deploy or a call,
// whose contract object c ran in ctx — the contract's payouts as UTXOs
// owned by the recipients, indexed after the transaction's own outputs
// so the two ranges never collide, and the contract and its balance
// stored at its address.
func commit(st *State, tx *Tx, c vm.Contract, ctx *vm.Ctx) {
	for _, in := range tx.Ins {
		st.Spend(in.Prev)
	}
	addOutputs(st, tx)
	if c == nil {
		return
	}
	id := tx.ID()
	base := uint32(1 << 16) // payout index space, disjoint from tx.Outs
	for i, p := range ctx.Payouts() {
		if p.Value != 0 {
			st.AddUTXO(OutPoint{TxID: id, Index: base + uint32(i)}, TxOut{Value: p.Value, Owner: p.To})
		}
	}
	st.PutContract(ctx.Self, c)
	st.SetBalance(ctx.Self, ctx.Balance())
}

// addOutputs adds tx.Outs as new UTXOs.
func addOutputs(st *State, tx *Tx) {
	id := tx.ID()
	for i, out := range tx.Outs {
		st.AddUTXO(OutPoint{TxID: id, Index: uint32(i)}, out)
	}
}

// ApplyBlock validates the block against the parent state and returns
// the child state. Any invalid transaction invalidates the whole
// block — which is why on-chain inclusion of a contract call implies
// the call succeeded (DESIGN.md decision 4).
func ApplyBlock(parent *State, reg *vm.Registry, params Params, b *Block) (*State, error) {
	return applyBlock(parent, reg, params, b, &crypto.SigTally{}, new(vm.Ctx))
}

func applyBlock(parent *State, reg *vm.Registry, params Params, b *Block, sigs *crypto.SigTally, ctx *vm.Ctx) (*State, error) {
	if b.Header.ChainID != params.ID {
		return nil, blockErr("chain id %q, want %q", b.Header.ChainID, params.ID)
	}
	if !MeetsTarget(b.Hash(), b.Header.Bits) {
		return nil, blockErr("header fails proof of work")
	}
	if b.Header.Bits != uint8(params.DifficultyBits) {
		return nil, blockErr("difficulty %d, want %d", b.Header.Bits, params.DifficultyBits)
	}
	if b.Header.TxRoot != TxRoot(b.Txs) {
		return nil, blockErr("tx root mismatch")
	}
	maxTxs := params.MaxBlockTxs + 1 // + coinbase
	if len(b.Txs) > maxTxs {
		return nil, blockErr("%d txs exceed capacity %d", len(b.Txs), maxTxs)
	}
	if b.Header.Height > 0 {
		if len(b.Txs) == 0 || b.Txs[0].Kind != TxCoinbase {
			return nil, blockErr("first tx must be coinbase")
		}
		var reward vm.Amount
		for _, o := range b.Txs[0].Outs {
			reward += o.Value
		}
		if reward != params.BlockReward {
			return nil, blockErr("coinbase mints %d, want %d", reward, params.BlockReward)
		}
	}
	st := parent.Child()
	seen := make(map[crypto.Hash]bool, len(b.Txs))
	for i, tx := range b.Txs {
		if i > 0 && tx.Kind == TxCoinbase {
			return nil, blockErr("coinbase at index %d", i)
		}
		id := tx.ID()
		if seen[id] {
			return nil, blockErr("duplicate tx %s", id)
		}
		seen[id] = true
		if err := applyTx(st, reg, params.ID, b.Header.Height, b.Header.Time, tx, sigs, ctx); err != nil {
			return nil, fmt.Errorf("%w: tx %d (%s): %v", ErrBlockInvalid, i, tx.Kind, err)
		}
	}
	return st, nil
}
