// Package vm defines the smart-contract runtime of the simulated
// blockchains. Following the paper (Section 2.3, which adopts
// Herlihy's notion of a contract as an object), a contract is a typed
// object with a constructor, named functions that may alter its state,
// and an asset balance locked at deployment. Miners execute contract
// transactions at block application; contract state is versioned per
// block by the chain package via Clone, making it reorg-safe.
//
// Contracts are Go types registered in a Registry by type name — the
// moral equivalent of deploying bytecode. A deployment transaction
// carries the type name plus encoded constructor parameters, so every
// miner independently instantiates an identical object, exactly as
// every EVM node runs the same initcode.
package vm

import (
	"fmt"
	"sort"

	"repro/internal/crypto"
)

// Amount is an asset quantity in the chain's smallest unit. It aliases
// uint64 so chain and vm interoperate without conversions.
type Amount = uint64

// Msg carries the implicit parameters of a deployment or call message
// (the paper's msg.sender and msg.val).
type Msg struct {
	Sender crypto.Address
	Value  Amount
}

// Payout is an asset transfer out of a contract, produced by Ctx.Pay.
// The chain package materializes payouts as new UTXOs owned by To.
type Payout struct {
	To    crypto.Address
	Value Amount
}

// Ctx is the execution context handed to a contract function. It
// exposes the chain environment (height, time), the message, and the
// contract's balance, and collects payouts.
type Ctx struct {
	ChainID string
	Self    crypto.Address // the contract's own address
	Msg     Msg
	Sigs    *crypto.SigBook // read-only verdicts computed ahead of need (Registry.Sigs)

	height    uint64 // of the block being applied; read through Height
	time      int64  // of the block being applied; read through Time
	readClock bool   // the contract asked for either (ADR-020)
	balance   Amount
	payouts   []Payout
}

// NewCtx builds an execution context. balance is the contract's
// balance before this call (including Msg.Value already credited).
func NewCtx(chainID string, self crypto.Address, height uint64, time int64, msg Msg, balance Amount) *Ctx {
	return &Ctx{ChainID: chainID, Self: self, height: height, time: time, Msg: msg, balance: balance}
}

// Height returns the height of the block being applied.
func (c *Ctx) Height() uint64 {
	c.readClock = true
	return c.height
}

// Time returns the timestamp of the block being applied.
func (c *Ctx) Time() int64 {
	c.readClock = true
	return c.time
}

// ReadClock reports whether the contract asked for Height or Time.
func (c *Ctx) ReadClock() bool { return c.readClock }

// Balance returns the contract's remaining balance.
func (c *Ctx) Balance() Amount { return c.balance }

// Pay transfers amt from the contract's balance to recipient. It fails
// if the balance is insufficient or the recipient is the zero address
// (which would burn assets).
func (c *Ctx) Pay(to crypto.Address, amt Amount) error {
	if to.IsZero() {
		return fmt.Errorf("vm: payout to zero address")
	}
	if amt > c.balance {
		return fmt.Errorf("vm: payout %d exceeds contract balance %d", amt, c.balance)
	}
	c.balance -= amt
	c.payouts = append(c.payouts, Payout{To: to, Value: amt})
	return nil
}

// Payouts returns the transfers queued by the executed function.
func (c *Ctx) Payouts() []Payout { return c.payouts }

// Contract is a deployed smart-contract object.
type Contract interface {
	// Type returns the registry type name this contract was deployed
	// as.
	Type() string
	// Init is the constructor, run exactly once at deployment with the
	// encoded constructor parameters from the deployment transaction.
	Init(ctx *Ctx, params []byte) error
	// Call executes a named function. Returning an error rejects the
	// whole transaction: miners exclude failing calls from blocks, so
	// on-chain inclusion implies success.
	Call(ctx *Ctx, fn string, args []byte) error
	// Clone returns a deep copy; the chain package clones contracts
	// into each block's state overlay before mutation (copy-on-write).
	Clone() Contract
}

// ErrUnknownFunction is a helper for contracts dispatching on fn.
func ErrUnknownFunction(typ, fn string) error {
	return fmt.Errorf("vm: contract %s has no function %q", typ, fn)
}

// Registry maps contract type names to factories. Each simulated
// chain is configured with a registry; deploying an unregistered type
// fails validation, like sending initcode a node refuses to run.
type Registry struct {
	factories map[string]func() Contract
	// Sigs is every deployment's Ctx.Sigs on the chain (nil: none).
	Sigs *crypto.SigBook
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]func() Contract)}
}

// Register adds a contract type. Re-registering a name panics: it is
// a programming error, not a runtime condition.
func (r *Registry) Register(typ string, factory func() Contract) {
	if typ == "" || factory == nil {
		panic("vm: Register with empty type or nil factory")
	}
	if _, dup := r.factories[typ]; dup {
		panic(fmt.Sprintf("vm: contract type %q registered twice", typ))
	}
	r.factories[typ] = factory
}

// New instantiates a contract of the given type.
func (r *Registry) New(typ string) (Contract, error) {
	f, ok := r.factories[typ]
	if !ok {
		return nil, fmt.Errorf("vm: unknown contract type %q", typ)
	}
	return f(), nil
}

// Types returns the registered type names, sorted.
func (r *Registry) Types() []string {
	out := make([]string, 0, len(r.factories))
	for t := range r.factories {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// ContractAddress derives the address of a contract deployed by the
// transaction with the given id, as Ethereum derives CREATE addresses
// from (sender, nonce).
func ContractAddress(txID crypto.Hash) crypto.Address {
	h := crypto.Sum([]byte("contract/"), txID[:])
	var a crypto.Address
	copy(a[:], h[:20])
	return a
}

// Codec is what a contract's parameter or argument type offers: the
// typed wire encoding of package wire (ADR-012).
type Codec interface {
	Encode() []byte
	Decode(b []byte) error
}

// EncodeGob and DecodeGob are what is left of the gob codec the
// contracts once used: the names, forwarding to the value's own typed
// codec. Nothing in this module calls them — code holding a concrete
// type calls its Encode/Decode — and they stay only because the frozen
// benchmark (benchmark/replay.go, the vm.gob_* probes) does; a
// benchmark change that renames the probe deletes them.
//
// Deprecated: call the value's Encode method.
func EncodeGob(v any) []byte {
	c, ok := v.(Codec)
	if !ok {
		panic(fmt.Sprintf("vm: %T has no wire codec", v))
	}
	return c.Encode()
}

// Deprecated: call the value's Decode method.
func DecodeGob(b []byte, v any) error {
	c, ok := v.(Codec)
	if !ok {
		return fmt.Errorf("vm: %T has no wire codec", v)
	}
	return c.Decode(b)
}
