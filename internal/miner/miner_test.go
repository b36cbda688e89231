package miner

import (
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/vm"
)

// testNet builds a network with nMiners and one funded user key.
func testNet(t *testing.T, seed uint64, nMiners int, latency p2p.LatencyModel) (*sim.Sim, *Network, *crypto.KeyPair) {
	t.Helper()
	s := sim.New(seed)
	rng := s.RNG().Fork()
	user := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	params := chain.DefaultParams("testnet")
	params.DifficultyBits = 6
	params.BlockInterval = 10 * sim.Second
	net, err := NewNetwork(s, Config{
		Params:  params,
		Miners:  nMiners,
		Latency: latency,
		Alloc:   chain.GenesisAlloc{user.Addr: 1_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, net, user
}

// transfer builds, signs and submits a payment of amount from c's key
// to to, the way Deploy and Call fund and submit theirs.
func transfer(c *Client, to crypto.Address, amount vm.Amount) (*chain.Tx, error) {
	ins, change, err := c.SelectFunds(amount)
	if err != nil {
		return nil, err
	}
	c.nonce++
	outs := append([]chain.TxOut{{Value: amount, Owner: to}}, c.changeOuts(change)...)
	tx := chain.NewTransfer(c.Key, c.nonce, ins, outs)
	c.net.Signed[tx.Kind]++
	c.Submit(tx)
	return tx, nil
}

// converged reports whether all live nodes agree on the canonical tip.
func converged(n *Network) bool {
	var tip crypto.Hash
	first := true
	for _, node := range n.Nodes {
		if !node.Alive() {
			continue
		}
		h := node.Chain.Tip().Hash()
		if first {
			tip, first = h, false
			continue
		}
		if h != tip {
			return false
		}
	}
	return true
}

// whenTxAtDepth runs fn once tx is canonical and buried at least depth
// blocks on the client's view, re-checking on every tip change — the
// wait a reconciler builds from OnTipChange plus a chain read.
func whenTxAtDepth(t *testing.T, c *Client, tx *chain.Tx, depth int, fn func()) {
	t.Helper()
	var sub *Sub
	sub, err := c.OnTipChange(func(TipSummary) {
		if d, ok := c.Chain().TxDepth(tx.ID()); ok && d >= depth {
			sub.Cancel()
			fn()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMiningAdvancesChain(t *testing.T) {
	s, net, _ := testNet(t, 1, 3, p2p.LatencyModel{Base: 100})
	net.Start()
	s.RunUntil(10 * sim.Minute)
	if net.Node(0).Chain.Height() < 30 { // ~60 expected at 10s interval
		t.Fatalf("height %d after 10 virtual minutes, want >= 30", net.Node(0).Chain.Height())
	}
}

func TestNetworkConverges(t *testing.T) {
	s, net, _ := testNet(t, 2, 5, p2p.LatencyModel{Base: 50, Jitter: 100})
	net.Start()
	s.RunUntil(20 * sim.Minute)
	// Give propagation a moment with mining stopped.
	for _, n := range net.Nodes {
		n.mining = false
	}
	s.RunUntil(s.Now() + 10*sim.Second)
	if !converged(net) {
		t.Fatal("nodes disagree on tip after quiescence")
	}
	// All views should agree on canonical history, not just the tip.
	ref := net.Node(0).Chain
	for i := 1; i < len(net.Nodes); i++ {
		for h := uint64(0); h <= ref.Height(); h++ {
			a, _ := ref.CanonicalAt(h)
			b, ok := net.Node(i).Chain.CanonicalAt(h)
			if !ok || a.Hash() != b.Hash() {
				t.Fatalf("node %d disagrees at height %d", i, h)
			}
		}
	}
}

func TestHighLatencyCausesForksButConverges(t *testing.T) {
	// Propagation ~ block interval: frequent forks, still one chain.
	s, net, _ := testNet(t, 3, 5, p2p.LatencyModel{Base: 5 * sim.Second, Jitter: 5 * sim.Second})
	net.Start()
	s.RunUntil(30 * sim.Minute)
	if net.TotalReorgs() == 0 {
		t.Fatal("expected reorgs under near-interval propagation latency")
	}
	for _, n := range net.Nodes {
		n.mining = false
	}
	s.RunUntil(s.Now() + sim.Minute)
	if !converged(net) {
		t.Fatal("network did not converge after mining stopped")
	}
}

func TestTransferThroughClient(t *testing.T) {
	s, net, user := testNet(t, 4, 3, p2p.LatencyModel{Base: 100})
	net.Start()
	alice := NewClient(net, 0, user)
	rng := s.RNG().Fork()
	bob := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	var confirmedAt sim.Time
	tx, err := transfer(alice, bob.Addr, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	whenTxAtDepth(t, alice, tx, 3, func() { confirmedAt = s.Now() })
	s.RunUntil(20 * sim.Minute)

	if confirmedAt == 0 {
		t.Fatal("transfer never confirmed at depth 3")
	}
	var bobTotal vm.Amount
	for _, o := range net.Node(1).Chain.TipState().UTXOsOwnedBy(bob.Addr) {
		bobTotal += o.Value
	}
	if bobTotal != 5_000 {
		t.Fatalf("bob owns %d, want 5000", bobTotal)
	}
}

func TestClientBalanceAndFundSelection(t *testing.T) {
	_, net, user := testNet(t, 5, 1, p2p.LatencyModel{Base: 1})
	alice := NewClient(net, 0, user)
	var funds vm.Amount
	for _, out := range alice.Chain().TipState().UTXOsOwnedBy(user.Addr) {
		funds += out.Value
	}
	if funds != 1_000_000 {
		t.Fatalf("balance = %d", funds)
	}
	ins, change, err := alice.SelectFunds(400_000)
	if err != nil || len(ins) == 0 {
		t.Fatalf("SelectFunds: %v", err)
	}
	if change != 600_000 {
		t.Fatalf("change = %d", change)
	}
	// The reserved output cannot be selected again.
	if _, _, err := alice.SelectFunds(1); err == nil {
		t.Fatal("reserved funds selected twice")
	}
}

func TestCrashedMinerStopsAndRecovers(t *testing.T) {
	s, net, _ := testNet(t, 6, 3, p2p.LatencyModel{Base: 100})
	net.Start()
	s.RunUntil(5 * sim.Minute)
	victim := net.Node(0)
	victim.Crash()
	minedAtCrash := victim.Mined
	s.RunUntil(15 * sim.Minute)
	if victim.Mined != minedAtCrash {
		t.Fatal("crashed miner kept mining")
	}
	victim.Recover()
	s.RunUntil(40 * sim.Minute)
	// After recovery the victim catches up with the others.
	for _, n := range net.Nodes {
		n.mining = false
	}
	s.RunUntil(s.Now() + sim.Minute)
	if !converged(net) {
		t.Fatalf("recovered miner did not converge: victim height %d, peer height %d",
			victim.Chain.Height(), net.Node(1).Chain.Height())
	}
	if victim.Mined <= minedAtCrash {
		t.Fatal("recovered miner never mined again")
	}
}

func TestPartitionDivergesThenHeals(t *testing.T) {
	s, net, _ := testNet(t, 7, 4, p2p.LatencyModel{Base: 100})
	net.Start()
	s.RunUntil(5 * sim.Minute)
	net.P2P.Partition([]p2p.NodeID{0, 1}, []p2p.NodeID{2, 3})
	s.RunUntil(25 * sim.Minute)
	if net.Node(0).Chain.Tip().Hash() == net.Node(2).Chain.Tip().Hash() {
		t.Fatal("partitioned halves still agree (no divergence?)")
	}
	net.P2P.Heal()
	s.RunUntil(60 * sim.Minute)
	for _, n := range net.Nodes {
		n.mining = false
	}
	s.RunUntil(s.Now() + sim.Minute)
	if !converged(net) {
		t.Fatalf("network did not converge after heal: %d vs %d",
			net.Node(0).Chain.Height(), net.Node(2).Chain.Height())
	}
}

func TestHaltedClientStopsWatching(t *testing.T) {
	s, net, user := testNet(t, 9, 1, p2p.LatencyModel{Base: 10})
	net.Start()
	alice := NewClient(net, 0, user)
	rng := s.RNG().Fork()
	bob := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))

	tx, _ := transfer(alice, bob.Addr, 100)
	fired := false
	whenTxAtDepth(t, alice, tx, 1, func() { fired = true })
	alice.Halt()
	s.RunUntil(30 * sim.Minute)
	if fired {
		t.Fatal("halted client's watch fired")
	}
	if _, err := transfer(alice, bob.Addr, 100); err == nil {
		// Transfer builds but Submit is suppressed; ensure no watch
		// can fire and no panic occurred. The tx must not confirm.
		if _, _, found := net.Node(0).Chain.FindTx(tx.ID()); found {
			// first tx may have confirmed before halt; that is fine —
			// the watch still must not fire (checked above).
			_ = found
		}
	}
}

func TestDeployAndCallThroughClient(t *testing.T) {
	s := sim.New(10)
	rng := s.RNG().Fork()
	user := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	reg := vm.NewRegistry()
	reg.Register("box", func() vm.Contract { return &box{} })
	params := chain.DefaultParams("testnet")
	params.DifficultyBits = 6
	net, err := NewNetwork(s, Config{
		Params:   params,
		Miners:   2,
		Latency:  p2p.LatencyModel{Base: 100},
		Alloc:    chain.GenesisAlloc{user.Addr: 10_000},
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	alice := NewClient(net, 0, user)

	_, addr, err := alice.Deploy("box", nil, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	deployed := false
	_, err = alice.OnTipChange(func(TipSummary) {
		if _, ok := alice.ContractNow(addr, 2); !ok || deployed {
			return
		}
		deployed = true
		if _, err := alice.Call(addr, "set", []byte{42}, 0); err != nil {
			t.Errorf("call: %v", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(30 * sim.Minute)
	if !deployed {
		t.Fatal("contract never observed at depth 2")
	}
	ct, ok := alice.ContractNow(addr, 0)
	if !ok || ct.(*box).V != 42 {
		t.Fatalf("box state not updated: ok=%v", ok)
	}
}

// box is a trivial contract for client tests.
type box struct{ V byte }

func (b *box) Type() string                          { return "box" }
func (b *box) Init(ctx *vm.Ctx, params []byte) error { return nil }
func (b *box) Call(ctx *vm.Ctx, fn string, args []byte) error {
	if fn != "set" || len(args) != 1 {
		return vm.ErrUnknownFunction("box", fn)
	}
	b.V = args[0]
	return nil
}
func (b *box) Clone() vm.Contract { cp := *b; return &cp }
