package chain

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// buildReference is BuildBlock as it was before candidates were parked
// (ADR-020): every pending candidate is tried on every pass. It is what
// the parking builder must be indistinguishable from, and the only place
// the old behaviour survives.
func buildReference(c *Chain, miner crypto.Address, time sim.Time, mempool []*Tx) (*Block, *State, []*Tx) {
	parent := c.tip
	if time < parent.Header.Time {
		time = parent.Header.Time
	}
	params := c.exec.params
	parentState, _ := c.exec.stateOf(parent.Hash())
	st := parentState.Child()
	height := parent.Header.Height + 1
	coinbase := &Tx{Kind: TxCoinbase, Nonce: height, Outs: []TxOut{{Value: params.BlockReward, Owner: miner}}}
	txs := []*Tx{coinbase}
	if err := ApplyTx(st, c.exec.reg, params.ID, height, time, coinbase); err != nil {
		panic(err)
	}
	var invalid []*Tx
	pending := mempool
	for {
		var failed []*Tx
		progress, full := false, false
		for _, tx := range pending {
			if len(txs) >= params.MaxBlockTxs+1 {
				full = true
				break
			}
			if err := ApplyTx(st, c.exec.reg, params.ID, height, time, tx); err != nil {
				failed = append(failed, tx)
				continue
			}
			txs = append(txs, tx)
			progress = true
		}
		if full {
			break
		}
		if !progress || len(failed) == 0 {
			invalid = failed
			break
		}
		pending = failed
	}
	return NewBlock(Header{ChainID: params.ID, Parent: parent.Hash(), Height: height, Time: time, Bits: uint8(params.DifficultyBits)}, txs), st, invalid
}

// escrow is an HTLC-shaped test contract: before the deadline the key
// pays the recipient, from the deadline on anyone may send the asset
// back. Like contracts.Swap it checks its state before it looks at the
// clock, and its constructor looks at the clock last.
type escrow struct {
	Sender, Recipient crypto.Address
	Key               byte
	Deadline          int64
	State             string
}

func escrowParams(recipient crypto.Address, key byte, deadline sim.Time) []byte {
	b := append(slices.Clone(recipient[:]), key)
	return binary.BigEndian.AppendUint64(b, uint64(deadline))
}

func (e *escrow) Type() string { return "escrow" }

func (e *escrow) Init(ctx *vm.Ctx, params []byte) error {
	if len(params) != crypto.AddressSize+9 {
		return errors.New("escrow: bad params")
	}
	if ctx.Msg.Value == 0 {
		return errors.New("escrow: no asset locked")
	}
	e.Sender, e.Recipient = ctx.Msg.Sender, crypto.Address(params[:crypto.AddressSize])
	e.Key, e.Deadline = params[crypto.AddressSize], int64(binary.BigEndian.Uint64(params[crypto.AddressSize+1:]))
	e.State = "P"
	if e.Deadline <= ctx.Time() {
		return errors.New("escrow: deadline not in the future")
	}
	return nil
}

func (e *escrow) Call(ctx *vm.Ctx, fn string, args []byte) error {
	if fn != "redeem" && fn != "refund" {
		return vm.ErrUnknownFunction("escrow", fn)
	}
	if e.State != "P" {
		return errors.New("escrow: " + fn + " in state " + e.State)
	}
	if fn == "redeem" {
		if len(args) != 1 || args[0] != e.Key {
			return errors.New("escrow: wrong key")
		}
		if ctx.Time() >= e.Deadline {
			return errors.New("escrow: expired")
		}
		e.State = "RD"
		return ctx.Pay(e.Recipient, ctx.Balance())
	}
	if ctx.Time() < e.Deadline {
		return errors.New("escrow: not yet expired")
	}
	e.State = "RF"
	return ctx.Pay(e.Sender, ctx.Balance())
}

func (e *escrow) Clone() vm.Contract { cp := *e; return &cp }

// parkWorld is a few nodes over one executor without a network between
// them: each has a view, an arrival-ordered mempool kept the way
// miner.Node keeps it, and an inbox of blocks mined elsewhere that the
// test delivers when it pleases — which is where forks and reorgs of
// any depth come from.
type parkWorld struct {
	t     *testing.T
	purge int // failed builds a candidate survives
	exec  *Executor
	nodes []*parkNode
	keys  []*crypto.KeyPair
	rng   *sim.RNG
	now   sim.Time
	nonce uint64
}

type parkNode struct {
	w     *parkWorld
	view  *Chain
	key   *crypto.KeyPair
	pool  []*Tx
	fails map[crypto.Hash]int
	inbox []*Block
}

// parkMaxFailures is miner.maxTxFailures cut down so that purges are
// frequent; every fourth random world waits longer, so that a parked
// candidate lives to see a block from elsewhere release it.
const parkMaxFailures = 3

func newParkWorld(t *testing.T, seed uint64, nodes, maxBlockTxs int) *parkWorld {
	t.Helper()
	w := &parkWorld{t: t, rng: sim.NewRNG(seed), purge: parkMaxFailures}
	alloc := GenesisAlloc{}
	for range 3 {
		k := crypto.MustGenerateKey(crypto.NewRandReader(w.rng.Uint64))
		w.keys = append(w.keys, k)
		alloc[k.Addr] = 10_000
	}
	params := DefaultParams("testnet")
	params.DifficultyBits = 4
	params.MaxBlockTxs = maxBlockTxs
	reg := vm.NewRegistry()
	reg.Register("escrow", func() vm.Contract { return &escrow{} })
	exec, err := NewExecutor(params, reg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	w.exec = exec
	for range nodes {
		n := &parkNode{w: w, view: exec.NewView(), fails: map[crypto.Hash]int{},
			key: crypto.MustGenerateKey(crypto.NewRandReader(w.rng.Uint64))}
		// miner.Node.onTipEvent: what a reorg un-confirmed goes back to
		// the mempool unless the winning branch carries it too.
		n.view.OnTipChange(func(ev TipEvent) {
			for _, b := range ev.Disconnected {
				for _, tx := range b.Txs[1:] {
					if _, _, onChain := n.view.FindTx(tx.ID()); !onChain {
						n.submit(tx)
					}
				}
			}
		})
		w.nodes = append(w.nodes, n)
	}
	return w
}

// genesisCoin finds the output the genesis block minted to key.
func (w *parkWorld) genesisCoin(key *crypto.KeyPair) OutPoint {
	mint := w.exec.genesis.Txs[0]
	i := slices.IndexFunc(mint.Outs, func(o TxOut) bool { return o.Owner == key.Addr })
	return OutPoint{TxID: mint.ID(), Index: uint32(i)}
}

func (n *parkNode) submit(tx *Tx) {
	if !slices.Contains(n.pool, tx) {
		n.pool = append(n.pool, tx)
	}
}

func (n *parkNode) drop(tx *Tx) {
	if i := slices.Index(n.pool, tx); i >= 0 {
		n.pool = slices.Delete(n.pool, i, i+1)
	}
	delete(n.fails, tx.ID())
	n.view.Forget(tx.ID())
}

func ids(txs []*Tx) []crypto.Hash {
	out := make([]crypto.Hash, len(txs))
	for i, tx := range txs {
		out[i] = tx.ID()
	}
	return out
}

// build runs both builders on the node's view and mempool and fails the
// test unless block, state and invalid agree; it returns the parking
// builder's.
func (n *parkNode) build() (*Block, *State, []*Tx) {
	n.w.t.Helper()
	pool := slices.Clone(n.pool)
	rb, rst, rinv := buildReference(n.view, n.key.Addr, n.w.now, pool)
	b, st, inv := n.view.BuildBlock(n.key.Addr, n.w.now, pool)
	if !slices.Equal(ids(b.Txs), ids(rb.Txs)) {
		n.w.t.Fatalf("height %d: block carries %d txs, the never-skip builder's %d", b.Header.Height, len(b.Txs), len(rb.Txs))
	}
	if !slices.Equal(ids(inv), ids(rinv)) {
		n.w.t.Fatalf("height %d: %d invalid, the never-skip builder reports %d", b.Header.Height, len(inv), len(rinv))
	}
	if *b.Header != *rb.Header {
		n.w.t.Fatalf("height %d: headers differ", b.Header.Height)
	}
	if !reflect.DeepEqual(st.utxos, rst.utxos) || !reflect.DeepEqual(st.spent, rst.spent) ||
		!reflect.DeepEqual(st.contracts, rst.contracts) || !reflect.DeepEqual(st.balances, rst.balances) {
		n.w.t.Fatalf("height %d: built states differ", b.Header.Height)
	}
	n.checkParked()
	return b, st, inv
}

// checkParked holds the bookkeeping invariants: a record only for a
// transaction in the mempool, and the key index and the records in step.
func (n *parkNode) checkParked() {
	n.w.t.Helper()
	parked, byKey := n.view.parked, n.view.parkedBy
	for id, tx := range parked {
		if !slices.Contains(n.pool, tx) {
			n.w.t.Fatalf("parked %s is not in the mempool", id)
		}
		for _, k := range tx.touched(nil)[1:] {
			if !slices.Contains(byKey[k], id) {
				n.w.t.Fatalf("parked %s is missing under one of its keys", id)
			}
		}
	}
	for k, list := range byKey {
		if len(list) == 0 {
			n.w.t.Fatalf("empty list left under key %s", k)
		}
		for _, id := range list {
			if tx := parked[id]; tx == nil || !slices.Contains(tx.touched(nil)[1:], k) {
				n.w.t.Fatalf("key %s lists %s, which is not parked on it", k, id)
			}
		}
	}
}

// mine builds and, unless discard, adopts: the node's own bookkeeping
// as miner.Node.mineOne and punishInvalid do it, the block into every
// other node's inbox.
func (n *parkNode) mine(discard bool) *Block {
	n.w.t.Helper()
	b, st, inv := n.build()
	for _, tx := range inv {
		if n.fails[tx.ID()]++; n.fails[tx.ID()] > n.w.purge {
			n.drop(tx)
		}
	}
	if discard {
		return b
	}
	b.Header.Seal(n.w.rng.Uint64())
	if _, err := n.view.AddMinedBlock(b, st); err != nil {
		n.w.t.Fatal(err)
	}
	for _, tx := range b.Txs[1:] {
		n.drop(tx)
	}
	for _, o := range n.w.nodes {
		if o != n {
			o.inbox = append(o.inbox, b)
		}
	}
	return b
}

// deliver hands the node the first k blocks of its inbox.
func (n *parkNode) deliver(k int) {
	n.w.t.Helper()
	for _, b := range n.inbox[:k] {
		if _, err := n.view.AddBlock(b); err != nil {
			n.w.t.Fatal(err)
		}
		for _, tx := range b.Txs[1:] {
			n.drop(tx)
		}
	}
	n.inbox = n.inbox[k:]
	n.checkParked()
}

// TestParkedBuilderMatchesNeverSkipBuilder is the differential property:
// over random mempools (conflicting spends, chains of unconfirmed
// outputs, duplicate redeems, calls arriving before their deploy,
// refunds before and after the deadline, escrows deployed too late) and
// random tip histories (blocks built and thrown away, late delivery,
// reorgs, purges and re-announcements), BuildBlock returns at every step
// what a builder that tries every candidate every time returns.
func TestParkedBuilderMatchesNeverSkipBuilder(t *testing.T) {
	var skips, reorgs uint64
	for seed := uint64(1); seed <= 24; seed++ {
		capacity := 1000
		if seed%4 == 0 {
			capacity = 3 // full blocks: nothing is invalid, parked or not
		}
		w := newParkWorld(t, seed, 2+int(seed%2), capacity)
		if seed%4 == 1 {
			w.purge = 25
		}
		g := &txGen{w: w}
		for _, k := range w.keys {
			g.coins = append(g.coins, coin{w.genesisCoin(k), k, 10_000})
		}
		for step := 0; step < 400; step++ {
			n := w.nodes[w.rng.Intn(len(w.nodes))]
			switch r := w.rng.Intn(10); {
			case r < 4:
				tx := g.next()
				for _, o := range w.nodes {
					if w.rng.Intn(4) > 0 {
						o.submit(tx)
					}
				}
			case r < 8:
				w.now += sim.Time(w.rng.Intn(20)) * sim.Second
				n.mine(w.rng.Intn(5) == 0)
			default:
				if len(n.inbox) > 0 {
					n.deliver(1 + w.rng.Intn(len(n.inbox)))
				}
			}
		}
		skips += w.exec.stats.ParkedSkips
		for _, n := range w.nodes {
			reorgs += uint64(n.view.Reorgs)
		}
	}
	t.Logf("%d parked offers skipped, %d reorgs", skips, reorgs)
	// The property is vacuous if nothing was ever skipped or reorged.
	if skips < 1000 || reorgs < 50 {
		t.Fatalf("only %d parked skips and %d reorgs: the generator no longer exercises parking", skips, reorgs)
	}
}

// txGen draws transactions that are as often wrong as right.
type txGen struct {
	w       *parkWorld
	coins   []coin // outputs of anything generated, confirmed or not, spent or not
	escrows []escrowRef
	held    []*Tx // deploys generated but not submitted yet: their calls arrive first
}

type coin struct {
	op    OutPoint
	key   *crypto.KeyPair
	value vm.Amount
}

type escrowRef struct {
	addr crypto.Address
	key  byte
}

func (g *txGen) next() *Tx {
	w := g.w
	w.nonce++
	switch r := w.rng.Intn(10); {
	case r < 3 || len(g.escrows) == 0 && r < 6: // transfer, perhaps of a coin already spent or not minted yet
		c := g.coins[w.rng.Intn(len(g.coins))]
		to := w.keys[w.rng.Intn(len(w.keys))]
		tx := NewTransfer(c.key, w.nonce, []TxIn{{Prev: c.op}}, []TxOut{{Value: c.value, Owner: to.Addr}})
		g.coins = append(g.coins, coin{OutPoint{TxID: tx.ID()}, to, c.value})
		return tx
	case r < 5 || len(g.escrows) == 0: // deploy, perhaps with its deadline already behind, perhaps held back
		c := g.coins[w.rng.Intn(len(g.coins))]
		key := byte(w.rng.Intn(256))
		deadline := w.now + sim.Time(w.rng.Intn(120)-20)*sim.Second
		lock := c.value/2 + 1
		var change []TxOut
		if c.value > lock {
			change = []TxOut{{Value: c.value - lock, Owner: c.key.Addr}}
		}
		tx := NewDeploy(c.key, w.nonce, []TxIn{{Prev: c.op}}, change, "escrow",
			escrowParams(w.keys[w.rng.Intn(len(w.keys))].Addr, key, deadline), lock)
		if change != nil {
			g.coins = append(g.coins, coin{OutPoint{TxID: tx.ID()}, c.key, c.value - lock})
		}
		g.escrows = append(g.escrows, escrowRef{tx.ContractAddr(), key})
		if w.rng.Intn(3) == 0 {
			g.held = append(g.held, tx)
			return g.call()
		}
		return tx
	case r < 6 && len(g.held) > 0:
		tx := g.held[0]
		g.held = g.held[1:]
		return tx
	default:
		return g.call()
	}
}

// call redeems or refunds some escrow, again and again: the duplicates
// are what a real mempool is full of.
func (g *txGen) call() *Tx {
	w := g.w
	e := g.escrows[w.rng.Intn(len(g.escrows))]
	signer := w.keys[w.rng.Intn(len(w.keys))]
	if w.rng.Intn(3) == 0 {
		return NewCall(signer, w.nonce, e.addr, "refund", nil, nil, nil, 0)
	}
	key := e.key
	if w.rng.Intn(8) == 0 {
		key++
	}
	return NewCall(signer, w.nonce, e.addr, "redeem", []byte{key}, nil, nil, 0)
}

// parkFixture is a two-node world with one escrow deployed and buried
// under one block everywhere; redeem and refund mint calls to it.
type parkFixture struct {
	*parkWorld
	a, b   *parkNode
	deploy *Tx
}

func newParkFixture(t *testing.T, deadline sim.Time) *parkFixture {
	t.Helper()
	w := newParkWorld(t, 99, 2, 1000)
	f := &parkFixture{parkWorld: w, a: w.nodes[0], b: w.nodes[1]}
	f.deploy = NewDeploy(w.keys[0], 1, []TxIn{{Prev: w.genesisCoin(w.keys[0])}}, nil, "escrow", escrowParams(w.keys[1].Addr, 7, deadline), 10_000)
	return f
}

func (f *parkFixture) call(nonce uint64, fn string) *Tx {
	var args []byte
	if fn == "redeem" {
		args = []byte{7}
	}
	return NewCall(f.keys[2], nonce, f.deploy.ContractAddr(), fn, args, nil, nil, 0)
}

func (f *parkFixture) tick() { f.now += 10 * sim.Second }

// A second redeem is parked as "in state RD" and costs nothing while the
// first stays confirmed; when a reorg disconnects the block carrying the
// first, the second is tried again and mined on the new branch.
func TestParkedRedeemMinedAfterDisconnect(t *testing.T) {
	f := newParkFixture(t, sim.Hour)
	f.a.submit(f.deploy)
	f.tick()
	f.a.mine(false)
	f.b.deliver(1)

	first, second := f.call(2, "redeem"), f.call(3, "redeem")
	f.a.submit(first)
	f.tick()
	if b := f.a.mine(false); b.FindTx(first.ID()) < 0 {
		t.Fatal("first redeem not mined")
	}
	f.a.submit(second)
	for range 3 {
		f.tick()
		if b := f.a.mine(true); len(b.Txs) != 1 {
			t.Fatal("second redeem mined while the first is confirmed")
		}
	}
	if st := f.exec.stats; f.a.view.Parked() != 1 || st.ParkedSkips != 2 || st.Rejected != 1 {
		t.Fatalf("parked %d, skipped %d, rejected %d; want 1, 2, 1", f.a.view.Parked(), st.ParkedSkips, st.Rejected)
	}

	// Node b never saw the redeem's block and out-mines it.
	f.b.inbox = nil
	f.tick()
	f.b.mine(false)
	f.tick()
	f.b.mine(false)
	f.a.deliver(2)
	if f.a.view.Reorgs != 1 {
		t.Fatalf("%d reorgs, want 1", f.a.view.Reorgs)
	}
	if f.a.view.Parked() != 0 {
		t.Fatal("the disconnected block wrote the contract; the second redeem must be released")
	}
	// The reorg re-announced the first behind the second: the second wins.
	f.tick()
	if b := f.a.mine(false); b.FindTx(second.ID()) < 0 || b.FindTx(first.ID()) >= 0 {
		t.Fatal("second redeem not mined on the new branch")
	}
}

// A call that arrived before its deploy is parked on the contract's
// address, and the deploy accepted later in the same pass releases it:
// one block carries both, as when a reorg re-announces a deploy behind
// the call that needs it.
func TestParkedCallPacksWithLaterDeploy(t *testing.T) {
	f := newParkFixture(t, sim.Hour)
	redeem := f.call(2, "redeem")
	f.a.submit(redeem)
	f.tick()
	f.a.mine(true)
	if f.a.view.Parked() != 1 {
		t.Fatal("call to a missing contract not parked")
	}
	f.a.submit(f.deploy)
	f.tick()
	if b := f.a.mine(false); b.FindTx(f.deploy.ID()) != 1 || b.FindTx(redeem.ID()) != 2 {
		t.Fatalf("block packs %d txs, want coinbase, deploy, call", len(b.Txs))
	}
}

// A block mined elsewhere writes as well: the call parked on a missing
// contract is tried again once the deploy arrives confirmed.
func TestParkedCallReleasedByConnectedBlock(t *testing.T) {
	f := newParkFixture(t, sim.Hour)
	redeem := f.call(2, "redeem")
	f.a.submit(redeem)
	f.b.submit(f.deploy)
	f.tick()
	f.a.mine(true)
	f.b.mine(false)
	if f.a.view.Parked() != 1 {
		t.Fatal("call to a missing contract not parked")
	}
	f.a.deliver(1)
	f.tick()
	if b := f.a.mine(false); f.a.view.Parked() != 0 || b.FindTx(redeem.ID()) < 0 {
		t.Fatal("the block that deployed the contract did not release the call")
	}
}

// A refund submitted before the deadline consulted the clock, so it is
// never parked: it is retried every block and lands in the first one
// whose time has reached the deadline — the height the never-skip
// builder gives it (build compares the two at every block).
func TestRefundBeforeDeadlineIsNotParked(t *testing.T) {
	f := newParkFixture(t, 35*sim.Second)
	f.a.submit(f.deploy)
	f.tick()
	f.a.mine(false)
	refund := f.call(2, "refund")
	f.a.submit(refund)
	for {
		f.tick()
		b := f.a.mine(false)
		if f.a.view.Parked() != 0 {
			t.Fatal("a verdict that read the clock was parked")
		}
		if b.FindTx(refund.ID()) >= 0 {
			if b.Header.Height != 4 || b.Header.Time != 40*sim.Second {
				t.Fatalf("refund landed at height %d, time %d; want 4, %d", b.Header.Height, b.Header.Time, 40*sim.Second)
			}
			return
		}
		if b.Header.Height > 4 {
			t.Fatal("refund never landed")
		}
	}
}

// A block that is built and not adopted leaves no verdict behind that
// depended on it: the same mempool builds the same block again, and a
// candidate rejected only because of a transaction of the discarded
// block is accepted once that transaction is gone.
func TestBuildBlockTwiceWithoutAdopting(t *testing.T) {
	f := newParkFixture(t, sim.Hour)
	first, second := f.call(2, "redeem"), f.call(3, "redeem")
	for _, tx := range []*Tx{second, f.deploy, first} {
		f.a.submit(tx)
	}
	f.tick()
	b1 := f.a.mine(true)
	b2 := f.a.mine(true)
	if !slices.Equal(ids(b1.Txs), ids(b2.Txs)) || len(b1.Txs) != 3 {
		t.Fatalf("second build packs %d txs, first %d, want 3 both times", len(b2.Txs), len(b1.Txs))
	}
	// first lost to second in both builds; alone with the deploy it wins.
	f.a.drop(second)
	if b := f.a.mine(true); b.FindTx(first.ID()) < 0 {
		t.Fatal("a verdict given against a discarded block outlived it")
	}
}

// Parked or tried, a candidate that keeps failing is reported invalid by
// every build that had room, so it is purged after the same number of
// builds as before.
func TestParkedCandidateStillCountsAsInvalid(t *testing.T) {
	f := newParkFixture(t, sim.Hour)
	orphan := f.call(2, "redeem") // its contract is never deployed
	f.a.submit(orphan)
	for i := 1; i <= parkMaxFailures+1; i++ {
		if len(f.a.pool) != 1 {
			t.Fatalf("purged after %d builds, want %d", i-1, parkMaxFailures+1)
		}
		f.tick()
		f.a.mine(false)
	}
	if len(f.a.pool) != 0 || f.a.view.Parked() != 0 {
		t.Fatalf("after %d failed builds: %d in the mempool, %d parked; want 0, 0", parkMaxFailures+1, len(f.a.pool), f.a.view.Parked())
	}
	if st := f.exec.stats; st.Rejected != 1 || st.ParkedSkips != parkMaxFailures {
		t.Fatalf("tried %d times and skipped %d, want 1 and %d", st.Rejected, st.ParkedSkips, parkMaxFailures)
	}
}

func TestTouchedKeys(t *testing.T) {
	f := newParkFixture(t, sim.Hour)
	in := f.deploy.Ins[0].Prev.TxID
	redeem := f.call(2, "redeem")
	transfer := NewTransfer(f.keys[0], 3, []TxIn{{Prev: OutPoint{TxID: in}}, {Prev: OutPoint{TxID: in, Index: 1}}}, nil)
	for _, tc := range []struct {
		tx   *Tx
		want []crypto.Hash
	}{
		{f.deploy, []crypto.Hash{f.deploy.ID(), addrKey(f.deploy.ContractAddr()), in}},
		{redeem, []crypto.Hash{redeem.ID(), addrKey(f.deploy.ContractAddr())}},
		{transfer, []crypto.Hash{transfer.ID(), in, in}},
	} {
		if got := tc.tx.touched(nil); !slices.Equal(got, tc.want) {
			t.Errorf("%v: touched = %v, want %v", tc.tx.Kind, got, tc.want)
		}
	}
}
