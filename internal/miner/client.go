package miner

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// Subscription-registration errors. A halted (crashed) client cannot
// arm subscriptions: silently accepting them used to drop the callback
// on the floor, leaving callers waiting on something that could never
// fire. Callers learn at registration time and re-arm after Restart —
// exactly what a recovering protocol participant does anyway.
var (
	ErrHalted = errors.New("miner: client is halted")
	ErrClosed = errors.New("miner: client is closed")
)

// Client is the application-layer client library of Section 2.1: an
// end-user identity attached to one mining node for reads, that
// multicasts transactions to the storage layer, tracks confirmation
// depths, and manages a simple UTXO wallet.
//
// All waiting is notification-driven on the attached node's tip-change
// signal (Watch): subscribers run only when the node's canonical
// chain actually changed, never on a timer, are told what changed (a
// TipSummary), and re-derive what they wait for from chain state.
// Keeping a submitted transaction alive across reorgs, mempool purges
// and crashed miners is the subscriber's job too
// (protocol.Runtime.EnsureTx, batch.Coordinator), paced by
// ResubmitEvery — so "submitted" eventually means "committed at depth
// d" unless the client is halted, which is exactly the crash model the
// paper's Section 1 failure scenario needs.
type Client struct {
	Key  *crypto.KeyPair
	node *Node
	net  *Network
	sim  *sim.Sim
	rng  sim.RNG

	nonce    uint64
	reserved []chain.OutPoint // inputs SelectFunds handed out, until spent

	subs []*Sub
	one  [1]*Sub // subs' first backing array
	// waiter is the client's one registration on the node's tip signal,
	// made on the first arm (a client nobody watches never makes it) and
	// armed while subscriptions exist.
	waiter sim.Waiter
	made   bool
	armed  bool
	// seen is the tip the subscribers last heard about (the tip when the
	// waiter was armed); joined backs the summary of what came after it.
	seen      *chain.Block
	joined    []*chain.Block
	oneJoined [1]*chain.Block // joined's first backing array
	halted    bool
	closed    bool

	// ResubmitEvery is the resubmission cadence subscribers keep a
	// transaction alive at: one absent from the canonical chain for a
	// whole interval is re-multicast. Defaults to three block intervals.
	ResubmitEvery sim.Time
}

// TipSummary is what one dispatch of the tip-change signal tells a
// subscriber: how the canonical chain of the client's node moved since
// the previous dispatch, however many tip changes the signal coalesced.
// It is valid only during the callback.
type TipSummary struct {
	// Height is the canonical tip height now.
	Height uint64
	// Connected lists the blocks that joined above the previously
	// reported tip, oldest first. Empty when Reorg is set.
	Connected []*chain.Block
	// Reorg reports that a block canonical at the previous dispatch has
	// left the chain: everything read from it before may have changed.
	Reorg bool
}

// Sub is a persistent tip-change subscription (Client.Watch), owned by its
// caller: the zero value is ready, and a canceled Sub may be watched again.
type Sub struct {
	l        Listener
	c        *Client // the client listing it; nil while unlisted
	canceled bool
}

// Listener is told what each tip change of a Sub's client changed.
type Listener interface{ OnTip(TipSummary) }

// TipFunc adapts a func to a Listener.
type TipFunc func(TipSummary)

// OnTip calls f.
func (f TipFunc) OnTip(sum TipSummary) { f(sum) }

// Cancel detaches the subscription. Safe to call repeatedly, on an
// already-dead subscription, or on one that was registered while the
// client was halted.
func (s *Sub) Cancel() { s.canceled = true }

// NewClient attaches a fresh client identity to node i of the
// network.
func NewClient(net *Network, nodeIndex int, key *crypto.KeyPair) *Client {
	c := new(Client)
	c.Init(net, nodeIndex, key)
	return c
}

// Init is NewClient in place: it attaches c, a Client its caller holds by
// value, to node i of the network.
func (c *Client) Init(net *Network, nodeIndex int, key *crypto.KeyPair) {
	*c = Client{
		Key:           key,
		node:          net.Node(nodeIndex),
		net:           net,
		sim:           net.Sim,
		rng:           *net.Sim.RNG().Fork(),
		ResubmitEvery: 3 * net.Params.BlockInterval,
	}
	c.subs, c.joined = c.one[:0], c.oneJoined[:0]
}

// Chain returns the attached node's chain view (reads only).
func (c *Client) Chain() *chain.Chain { return c.node.Chain }

// Halt models an end-user site crash: subscriptions stop firing and no
// further submissions happen until Restart. Registration while halted
// fails with ErrHalted — a recovering participant re-arms its protocol
// from on-chain state after Restart, and the explicit error keeps a
// caller from waiting forever on a subscription that was never armed.
func (c *Client) Halt() {
	c.halted = true
	if c.armed {
		c.waiter.Cancel()
		c.armed = false
	}
	for _, s := range c.subs {
		s.canceled, s.c = true, nil
	}
	c.subs = nil
}

// Close permanently shuts the client down: like Halt, every
// subscription is canceled — but a closed client never comes back.
// Restart is a no-op and registrations after Close never arm a waiter
// in the first place, so nothing can leak past Close. Idempotent.
func (c *Client) Close() {
	c.closed = true
	c.Halt()
}

// Restart recovers a halted client. Subscriptions must be re-established by
// the caller (a recovering participant re-drives its protocol). A
// closed client cannot restart.
func (c *Client) Restart() {
	if c.closed {
		return
	}
	c.halted = false
}

// ensureArmed keeps exactly one waiter on the node's tip signal while
// the client has live subscriptions. One waiter serves them all: a tip
// change costs the client a single pass, not one wakeup per subscriber.
func (c *Client) ensureArmed() {
	if c.armed || c.halted || len(c.subs) == 0 {
		return
	}
	if !c.made {
		c.waiter, c.made = sim.NewWaiter(c.onTip), true
	}
	c.node.TipChanged().Rearm(&c.waiter)
	c.armed = true
	c.seen = c.node.Chain.Tip()
}

// onTip tells every subscriber what changed since the last dispatch,
// dropping the canceled ones, then re-arms. Callbacks may register new
// subscriptions; those join the list for the next tip change.
func (c *Client) onTip() {
	c.armed = false
	if c.halted {
		return
	}
	view := c.node.Chain
	sum := TipSummary{Height: view.Height()}
	sum.Connected, sum.Reorg = view.Since(c.seen, c.joined[:0])
	c.seen, c.joined = nil, sum.Connected
	batch := c.subs
	c.subs = nil // callbacks registering new subscriptions append to a fresh list
	kept := batch[:0]
	for _, s := range batch {
		if c.halted || s.canceled {
			// A callback may halt this client mid-pass; the batch is
			// detached from c.subs, so the rest is retired here.
			s.canceled, s.c = true, nil
			continue
		}
		s.l.OnTip(sum)
		kept = append(kept, s)
	}
	clear(c.joined) // the summary is spent; do not pin its blocks
	if c.halted {
		for _, s := range append(kept, c.subs...) {
			s.canceled, s.c = true, nil
		}
		c.subs = nil
		return
	}
	c.subs = append(kept, c.subs...)
	c.ensureArmed()
}

// Watch registers s, a persistent subscription: l runs after every
// canonical-tip change of the client's node, with a summary of what
// changed, until s is canceled or the client halts. This is what
// protocol reconcilers drive on instead of a cadence poller. A Sub this
// client still lists (canceled, not yet dropped) is revived in place, so
// it is never told twice; s must not be listed at another client. On a
// halted or closed client Watch fails with ErrHalted/ErrClosed.
func (c *Client) Watch(s *Sub, l Listener) error {
	switch {
	case c.closed:
		return ErrClosed
	case c.halted:
		return ErrHalted
	}
	s.l, s.canceled = l, false
	if s.c != c {
		s.c = c
		c.subs = append(c.subs, s)
	}
	c.ensureArmed()
	return nil
}

// Submit multicasts a signed transaction to the mining nodes,
// modeling the paper's end-user-to-storage-layer message passing. The
// multicast is one scheduled event delivering to all reachable nodes:
// it rides the same connectivity model as block gossip, so a miner
// that is crashed — or on the far side of a partition from the
// client's attached node — does not hear end-users either. (It used
// to reach every live mempool regardless of partitions, which
// silently neutered partition scenarios: a split network still saw
// every transaction everywhere.) Subscribers' keep-alive re-multicasts
// after heal, so a transaction submitted into a minority partition
// still commits eventually.
//
// Submit offers the verdict to the network's signature checker, if any:
// its claimant writes tx.Sig's bytes, everyone else reads them through
// Encode or VerifySig (tamper on a chain.DecodeTx copy).
//
// Deliberately NOT modeled: the miner overlay's loss and latency
// overlays. Client-to-miner submission is a reliable RPC with its own
// small delay (submitDelay), distinct from the gossip fabric —
// adversity degrades how miners replicate state, not whether a user's
// wallet call reaches its gateway. Suppressed submissions therefore
// also do not count toward p2p's Dropped.
func (c *Client) Submit(tx *chain.Tx) {
	if c.halted || tx == nil {
		return
	}
	tx.CheckSigAhead(c.net.Sigs)
	c.net.submits.After(c.submitDelay(), submission{c, tx})
}

// submitDelay samples a small client-to-miner latency.
func (c *Client) submitDelay() sim.Time {
	return 1 + c.rng.Int63n(50)
}

// SelectFunds reserves unspent outputs totalling at least amount and
// returns them with the change value. Reservations of already-spent
// outputs are pruned first.
func (c *Client) SelectFunds(amount vm.Amount) ([]chain.TxIn, vm.Amount, error) {
	st := c.Chain().TipState()
	c.reserved = slices.DeleteFunc(c.reserved, func(op chain.OutPoint) bool {
		_, live := st.UTXO(op)
		return !live
	})
	// Select in canonical outpoint order, AppendOwned's: the chosen
	// inputs are wire-visible (they pick the transaction's bytes, its
	// id, and any contract address derived from it), so they must not
	// depend on anything but the wallet's outputs.
	var stack [8]chain.Owned
	owned := st.AppendOwned(stack[:0], c.Key.Addr)
	picked, total := owned[:0], vm.Amount(0)
	for _, o := range owned {
		if slices.Contains(c.reserved, o.Op) {
			continue
		}
		picked, total = append(picked, o), total+o.Out.Value
		if total >= amount {
			break
		}
	}
	if total < amount {
		return nil, 0, fmt.Errorf("miner: %s has %d available, needs %d", c.Key.Addr, total, amount)
	}
	ins := make([]chain.TxIn, len(picked))
	for i, o := range picked {
		ins[i] = chain.TxIn{Prev: o.Op}
		c.reserved = append(c.reserved, o.Op)
	}
	return ins, total - amount, nil
}

// changeOuts builds the change output list.
func (c *Client) changeOuts(change vm.Amount) []chain.TxOut {
	if change == 0 {
		return nil
	}
	return []chain.TxOut{{Value: change, Owner: c.Key.Addr}}
}

// Deploy builds, signs and submits a contract deployment locking
// value, returning the transaction and the contract's future address.
func (c *Client) Deploy(contractType string, params []byte, value vm.Amount) (*chain.Tx, crypto.Address, error) {
	var ins []chain.TxIn
	var change vm.Amount
	if value > 0 {
		var err error
		ins, change, err = c.SelectFunds(value)
		if err != nil {
			return nil, crypto.Address{}, err
		}
	}
	c.nonce++
	tx := chain.NewDeploy(c.Key, c.nonce, ins, c.changeOuts(change), contractType, params, value)
	c.net.Signed[tx.Kind]++
	c.Submit(tx)
	return tx, tx.ContractAddr(), nil
}

// Call builds, signs and submits a contract function call sending
// value along.
func (c *Client) Call(contract crypto.Address, fn string, args []byte, value vm.Amount) (*chain.Tx, error) {
	var ins []chain.TxIn
	var change vm.Amount
	if value > 0 {
		var err error
		ins, change, err = c.SelectFunds(value)
		if err != nil {
			return nil, err
		}
	}
	c.nonce++
	tx := chain.NewCall(c.Key, c.nonce, contract, fn, args, ins, c.changeOuts(change), value)
	c.net.Signed[tx.Kind]++
	c.Submit(tx)
	return tx, nil
}

// ContractNow reads a contract's current state at the given depth.
func (c *Client) ContractNow(addr crypto.Address, depth int) (vm.Contract, bool) {
	return c.Chain().ContractAtDepth(addr, depth)
}
