package xchain

import (
	"errors"
	"testing"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/miner"
	"repro/internal/sim"
	"repro/internal/vm"
)

func buildTwoChainWorld(t *testing.T, seed uint64) (*World, *Participant, *Participant) {
	t.Helper()
	b := NewBuilder(seed)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	b.Chain(DefaultChainSpec("c1"))
	b.Chain(DefaultChainSpec("c2"))
	b.Fund(alice, "c1", 100_000)
	b.Fund(bob, "c2", 100_000)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w, alice, bob
}

// funds sums the outputs p owns at the tip of chain id.
func funds(w *World, id chain.ID, p *Participant) vm.Amount {
	var total vm.Amount
	for _, o := range w.View(id).TipState().AppendOwned(nil, p.Addr()) {
		total += o.Out.Value
	}
	return total
}

// refused is the error p's client on chain id answers a subscription
// with: miner.ErrHalted or miner.ErrClosed when it is down, nil when it
// is up (the probe subscription is canceled at once).
func refused(p *Participant, id chain.ID) error {
	var sub miner.Sub
	err := p.Client(id).Watch(&sub, miner.TipFunc(func(miner.TipSummary) {}))
	sub.Cancel()
	return err
}

func TestBuilderWiresClientsAndFunding(t *testing.T) {
	w, alice, bob := buildTwoChainWorld(t, 1)
	if len(w.Chains()) != 2 {
		t.Fatalf("chains = %v", w.Chains())
	}
	if got := funds(w, "c1", alice); got != 100_000 {
		t.Fatalf("alice c1 balance = %d", got)
	}
	if funds(w, "c2", alice) != 0 {
		t.Fatal("alice funded on the wrong chain")
	}
	if funds(w, "c2", bob) != 100_000 {
		t.Fatal("bob not funded")
	}
	// Mining started.
	w.RunUntil(5 * sim.Minute)
	if w.View("c1").Height() == 0 || w.View("c2").Height() == 0 {
		t.Fatal("chains not mining")
	}
}

// TestFundIsPerParticipant: genesis funds go to the participant Fund
// names, not to every participant of that name.
func TestFundIsPerParticipant(t *testing.T) {
	b := NewBuilder(4)
	x1, x2 := b.Participant("x"), b.Participant("x")
	b.Chain(DefaultChainSpec("a"))
	b.Fund(x1, "a", 100)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, other := funds(w, "a", x1), funds(w, "a", x2); got != 100 || other != 0 {
		t.Fatalf("funded x owns %d, the other x %d; want 100 and 0", got, other)
	}
}

// TestLifecycleReachesEveryChain: a participant's client on each chain
// of the world is the one attached to that chain's network, and Crash,
// Recover and Retire reach every one of them.
func TestLifecycleReachesEveryChain(t *testing.T) {
	b := NewBuilder(5)
	p := b.Participant("p")
	ids := []chain.ID{"e", "b", "d", "a", "c"}
	for _, id := range ids {
		b.Chain(DefaultChainSpec(id))
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	every := func(want error) {
		t.Helper()
		for _, id := range ids {
			if err := refused(p, id); !errors.Is(err, want) {
				t.Fatalf("chain %s: a subscription met %v, want %v", id, err, want)
			}
		}
	}
	for _, id := range ids {
		if c := p.Client(id); c.Chain() != w.Net(id).Node(0).Chain {
			t.Fatalf("chain %s: the client reads another network's view", id)
		}
	}
	every(nil)
	p.Crash()
	every(miner.ErrHalted)
	p.Recover()
	every(nil)
	p.Retire()
	every(miner.ErrClosed)
}

func TestParticipantClientPanicsOnUnknownChain(t *testing.T) {
	_, alice, _ := buildTwoChainWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown chain")
		}
	}()
	alice.Client("nope")
}

// TestCrashHaltsClientsAndBusAndRecoverRestores: a Tell is delivered, a
// crashed participant neither hears nor speaks until it recovers, and a
// retired one is deaf for good with every client closed.
func TestCrashHaltsClientsAndBusAndRecoverRestores(t *testing.T) {
	w, alice, bob := buildTwoChainWorld(t, 3)
	got := 0
	bob.OnMessage(func(_, from *Participant, msg any) { got++ })

	alice.Tell(bob, "hello")
	w.RunFor(sim.Second)
	if got != 1 {
		t.Fatalf("got %d messages, want 1", got)
	}

	bob.Crash()
	alice.Tell(bob, "lost")
	w.RunFor(sim.Second)
	if got != 1 {
		t.Fatal("crashed participant received messages")
	}
	if err := refused(bob, "c2"); !errors.Is(err, miner.ErrHalted) {
		t.Fatalf("crash did not halt clients: a subscription met %v", err)
	}
	// Crashed participants cannot send either.
	bob.Tell(alice, "ghost")

	bob.Recover()
	alice.Tell(bob, "back")
	w.RunFor(sim.Second)
	if got != 2 {
		t.Fatalf("got %d after recovery, want 2", got)
	}
	if alice.Crashed() || bob.Crashed() {
		t.Fatal("crash state wrong")
	}

	bob.Retire()
	alice.Tell(bob, "gone")
	w.RunFor(sim.Second)
	if got != 2 || !bob.Crashed() || !errors.Is(refused(bob, "c1"), miner.ErrClosed) || !errors.Is(refused(bob, "c2"), miner.ErrClosed) {
		t.Fatalf("retired participant: %d messages, crashed %v, subscriptions met %v/%v",
			got, bob.Crashed(), refused(bob, "c1"), refused(bob, "c2"))
	}
	bob.Recover()
	if err := refused(bob, "c2"); !errors.Is(err, miner.ErrClosed) {
		t.Fatalf("a retired participant's client came back: a subscription met %v", err)
	}
}

func TestOutcomeGrading(t *testing.T) {
	e := func(st contracts.SwapState, deployed bool) EdgeOutcome {
		return EdgeOutcome{State: st, Deployed: deployed}
	}
	cases := []struct {
		name               string
		edges              []EdgeOutcome
		committed, aborted bool
		violated           bool
	}{
		{"all redeemed", []EdgeOutcome{e(contracts.StateRedeemed, true), e(contracts.StateRedeemed, true)}, true, false, false},
		{"all refunded", []EdgeOutcome{e(contracts.StateRefunded, true), e(contracts.StateRefunded, true)}, false, true, false},
		{"mixed = violation", []EdgeOutcome{e(contracts.StateRedeemed, true), e(contracts.StateRefunded, true)}, false, false, true},
		{"pending is neither", []EdgeOutcome{e(contracts.StatePublished, true), e(contracts.StateRedeemed, true)}, false, false, false},
		{"undeployed + refunded = aborted", []EdgeOutcome{e(contracts.StatePublished, false), e(contracts.StateRefunded, true)}, false, true, false},
		{"empty", nil, false, false, false},
	}
	for _, c := range cases {
		out := &Outcome{Edges: c.edges}
		if out.Committed() != c.committed || out.Aborted() != c.aborted || out.AtomicityViolated() != c.violated {
			t.Errorf("%s: committed=%v aborted=%v violated=%v", c.name,
				out.Committed(), out.Aborted(), out.AtomicityViolated())
		}
	}
	o := &Outcome{Start: 100, End: 350}
	if o.Latency() != 250 {
		t.Fatalf("latency = %d", o.Latency())
	}
}

func TestCountContractOps(t *testing.T) {
	w, alice, _ := buildTwoChainWorld(t, 5)
	client := alice.Client("c1")
	// Deploy an HTLC and redeem it.
	params := contracts.HTLCParams{
		Recipient: alice.Addr(),
		Hashlock:  crypto.Sum([]byte("s")),
		Timelock:  int64(2 * sim.Hour),
	}.Encode()
	tx, addr, err := client.Deploy(contracts.TypeHTLC, params, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	err = client.Watch(new(miner.Sub), miner.TipFunc(func(miner.TipSummary) {
		if d, ok := client.Chain().TxDepth(tx.ID()); done || !ok || d < 2 {
			return
		}
		if _, err := client.Call(addr, contracts.FnRedeem, []byte("s"), 0); err != nil {
			t.Errorf("redeem: %v", err)
		}
		done = true
	}))
	if err != nil {
		t.Fatal(err)
	}
	w.RunUntil(30 * sim.Minute)
	if !done {
		t.Fatal("deploy never confirmed")
	}
	d, c := w.View("c1").ContractOps(map[crypto.Address]bool{addr: true})
	if d != 1 || c != 1 {
		t.Fatalf("ops = %d deploys, %d calls; want 1/1", d, c)
	}
	// Unrelated contracts are not counted.
	d, c = w.View("c1").ContractOps(map[crypto.Address]bool{{9, 9}: true})
	if d != 0 || c != 0 {
		t.Fatalf("phantom ops counted: %d/%d", d, c)
	}
}

// TestParticipantsInOneBatch: participants created in one batch, shared
// with a checker, are the ones created one at a time: same names, same
// identities, in order, and the builder's RNG is left where those calls
// leave it.
func TestParticipantsInOneBatch(t *testing.T) {
	names := []string{"alice", "bob", "carol", "dave", "erin"}
	ck := crypto.NewSigChecker(1)
	defer ck.Close()
	batch, serial := NewBuilderOn(sim.New(7), ck), NewBuilder(7)
	ps := batch.Participants(names...)
	for i, name := range names {
		if p := serial.Participant(name); ps[i].Name != name || ps[i].Addr() != p.Addr() {
			t.Fatalf("participant %d: %s %s, want %s %s", i, ps[i].Name, ps[i].Addr(), name, p.Addr())
		}
	}
	if a, b := batch.Participant("frank"), serial.Participant("frank"); a.Addr() != b.Addr() || len(batch.participants) != len(names)+1 {
		t.Fatal("the builders' RNGs part after a batch")
	}
}

// TestTellAndDeliveryAllocateNothing: an off-chain message rides the
// world's recycled records, so once warm a Tell and its delivery
// allocate nothing; a recipient down at delivery time hears nothing.
func TestTellAndDeliveryAllocateNothing(t *testing.T) {
	w, alice, bob := buildTwoChainWorld(t, 9)
	w.StopMining()
	w.Sim.Run() // drain: every pending tick returns without another
	heard := 0
	bob.OnMessage(func(to, from *Participant, msg any) {
		if to != bob || from != alice || msg != any(alice) {
			t.Fatalf("bob heard %v from %s", msg, from.Name)
		}
		heard++
	})
	var msg any = alice
	alice.Tell(bob, msg)
	w.Sim.Run()
	if n := testing.AllocsPerRun(100, func() { alice.Tell(bob, msg); w.Sim.Run() }); n != 0 {
		t.Fatalf("Tell + delivery: %v allocations, want 0", n)
	}
	if heard != 102 {
		t.Fatalf("bob heard %d messages, want 102", heard)
	}
	alice.Tell(bob, msg)
	bob.Crash()
	w.Sim.Run()
	if heard != 102 {
		t.Fatal("a crashed recipient heard a message in flight")
	}
}
