package xchain

import (
	"testing"

	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/miner"
	"repro/internal/sim"
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

func TestBuilderWiresClientsAndFunding(t *testing.T) {
	w, alice, bob := buildTwoChainWorld(t, 1)
	if len(w.Chains()) != 2 {
		t.Fatalf("chains = %v", w.Chains())
	}
	if alice.Client("c1").Balance() != 100_000 {
		t.Fatalf("alice c1 balance = %d", alice.Client("c1").Balance())
	}
	if alice.Client("c2").Balance() != 0 {
		t.Fatal("alice funded on the wrong chain")
	}
	if bob.Client("c2").Balance() != 100_000 {
		t.Fatal("bob not funded")
	}
	// Mining started.
	w.RunUntil(5 * sim.Minute)
	if w.View("c1").Height() == 0 || w.View("c2").Height() == 0 {
		t.Fatal("chains not mining")
	}
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
	bob.OnMessage(func(from *Participant, msg any) { got++ })

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
	if !bob.Client("c2").Halted() {
		t.Fatal("crash did not halt clients")
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
	if got != 2 || !bob.Crashed() || !bob.Client("c1").Closed() || !bob.Client("c2").Closed() {
		t.Fatalf("retired participant: %d messages, crashed %v, clients closed %v/%v",
			got, bob.Crashed(), bob.Client("c1").Closed(), bob.Client("c2").Closed())
	}
	bob.Recover()
	if !bob.Client("c2").Halted() {
		t.Fatal("a retired participant's client came back")
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
	_, err = client.OnTipChange(func(miner.TipSummary) {
		if d, ok := client.Chain().TxDepth(tx.ID()); done || !ok || d < 2 {
			return
		}
		if _, err := client.Call(addr, contracts.FnRedeem, []byte("s"), 0); err != nil {
			t.Errorf("redeem: %v", err)
		}
		done = true
	})
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
