package protocol

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/chain"
	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/vm"
	"repro/internal/xchain"
)

// world builds a one-chain world with two funded participants.
func world(t *testing.T, seed uint64) (*xchain.World, *xchain.Participant, *xchain.Participant) {
	t.Helper()
	b := xchain.NewBuilder(seed)
	alice := b.Participant("alice")
	bob := b.Participant("bob")
	b.Chain(xchain.DefaultChainSpec("c0"))
	b.Fund(alice, "c0", 1_000_000)
	b.Fund(bob, "c0", 1_000_000)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return w, alice, bob
}

// pay submits a payment of amount from p to to on chain c0, funded and
// submitted through p's client the way its deploys and calls are.
func pay(t *testing.T, p, to *xchain.Participant, amount vm.Amount) *chain.Tx {
	t.Helper()
	c := p.Client("c0")
	ins, change, err := c.SelectFunds(amount)
	if err != nil {
		t.Fatal(err)
	}
	tx := chain.NewTransfer(c.Key, 0, ins, []chain.TxOut{{Value: amount, Owner: to.Addr()}, {Value: change, Owner: p.Addr()}})
	c.Submit(tx)
	return tx
}

// swapOnC0 is the two-party AC2T the runtime tests run on: both edges
// on the world's one chain.
func swapOnC0(t *testing.T, alice, bob *xchain.Participant) *graph.Graph {
	t.Helper()
	g, err := graph.TwoParty(1, alice.Addr(), bob.Addr(), 1_000, "c0", 2_000, "c0")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A step function that declares it watches the tips (WatchTips) is
// driven by every tip change of every subscribed chain, once per chain.
func TestRuntimeDrivesOnTipChanges(t *testing.T) {
	w, alice, bob := world(t, 1)
	drives := map[string]int{}
	var rt *Runtime
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Chains:       []chain.ID{"c0", "c0"}, // duplicate must collapse
		Protocol:     steps(func(p *xchain.Participant) { drives[p.Name]++; rt.WatchTips(p) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	if drives["alice"] != 1 || drives["bob"] != 1 {
		t.Fatalf("initial drive missing: %v", drives)
	}
	w.RunFor(2 * sim.Minute) // ~12 blocks
	if drives["alice"] < 5 || drives["bob"] < 5 {
		t.Fatalf("tip changes did not re-drive: %v", drives)
	}
	// Duplicate chain ids must not double-drive: both participants see
	// the same notification count.
	if drives["alice"] != drives["bob"] {
		t.Fatalf("asymmetric drive counts: %v", drives)
	}
}

func TestRuntimeCrashResumeLifecycle(t *testing.T) {
	w, alice, bob := world(t, 2)
	drives := 0
	var rt *Runtime
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol: steps(func(p *xchain.Participant) {
			rt.WatchTips(p)
			if p == bob {
				drives++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	w.RunFor(time30s)
	bob.Crash()
	at := drives
	w.RunFor(2 * sim.Minute)
	if drives != at {
		t.Fatalf("crashed participant was driven %d more times", drives-at)
	}
	bob.Recover()
	rt.Resume(bob)
	w.RunFor(sim.Minute)
	if drives <= at+1 {
		t.Fatal("resume did not re-arm subscriptions")
	}
}

// TestArmedRowLandsBetweenSteps: a row armed at the commit push fires
// once, at the first push (Reach), in the same virtual instant but
// after the step that pushed — a victim that pushed itself is still up
// for the rest of its step — and a later push fires nothing. A row
// armed at the other point never fires on it.
func TestArmedRowLandsBetweenSteps(t *testing.T) {
	w, alice, bob := world(t, 3)
	run := steps(nil)
	var upAfterPush []bool
	run.step = func(p *xchain.Participant) {
		if p == bob {
			run.rt.Reach(AtCommitPush)
			upAfterPush = append(upAfterPush, !bob.Crashed())
		}
	}
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol:     run,
	})
	if err != nil {
		t.Fatal(err)
	}
	run.rt = rt
	var fired []string
	rt.Arm(AtCommitPush, func(p Protocol) {
		who, comesBack := p.Crash()
		fired = append(fired, fmt.Sprintf("%s at %d, back %v", who, w.Sim.Now(), comesBack))
	})
	pushedAt := w.Sim.Now()
	rt.Start() // bob's first drive pushes
	if len(fired) != 0 || !slices.Equal(upAfterPush, []bool{true}) {
		t.Fatalf("the crash ran inside the pushing step: fired %q, up after the push %v", fired, upAfterPush)
	}
	w.RunFor(sim.Second)
	if want := []string{fmt.Sprintf("bob at %d, back true", pushedAt)}; !slices.Equal(fired, want) || !bob.Crashed() {
		t.Fatalf("fired %q (bob down: %v), want %q", fired, bob.Crashed(), want)
	}
	bob.Recover()
	rt.Resume(bob) // pushes again
	w.RunFor(sim.Second)
	if len(fired) != 1 || bob.Crashed() {
		t.Fatalf("a second push fired the crash again: %q", fired)
	}
	rt.Arm(AtDecisionWindow, func(Protocol) { fired = append(fired, "at the window") })
	rt.Resume(bob) // pushes again; the window never opens
	w.RunFor(sim.Second)
	if len(fired) != 1 {
		t.Fatalf("a row armed at the decision window fired at the push: %q", fired)
	}
}

// TestLateArmFiresAtOnce: a row armed after the run passed its point —
// AC3WN opens its decision window inside Start, before any driver can
// arm — fires once, after a zero delay in the instant of the Arm, and
// not inside the Arm itself.
func TestLateArmFiresAtOnce(t *testing.T) {
	w, alice, bob := world(t, 4)
	run := steps(nil)
	run.step = func(p *xchain.Participant) {
		if p == alice {
			run.rt.Reach(AtDecisionWindow)
		}
	}
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol:     run,
	})
	if err != nil {
		t.Fatal(err)
	}
	run.rt = rt
	rt.Start() // alice's first drive opens the window
	w.RunFor(sim.Minute)
	var fired []sim.Time
	armedAt := w.Sim.Now()
	rt.Arm(AtDecisionWindow, func(Protocol) { fired = append(fired, w.Sim.Now()) })
	if len(fired) != 0 {
		t.Fatal("the late row fired inside Arm")
	}
	w.RunFor(sim.Second)
	if !slices.Equal(fired, []sim.Time{armedAt}) {
		t.Fatalf("a row armed after its point fired at %v, want once at %d", fired, armedAt)
	}
}

// TestRuntimeStartWithCrashedParticipant is the audit regression for
// the miner.Client halt fix: a participant already down at Start (the
// decline-abort scenario) gets no subscriptions — previously the
// clients silently swallowed the registrations; now the runtime skips
// them — and a later Recover+Resume arms real ones.
func TestRuntimeStartWithCrashedParticipant(t *testing.T) {
	w, alice, bob := world(t, 6)
	drives, skipped := 0, 0
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol: steps(func(p *xchain.Participant) {
			if p == bob {
				drives++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.skipped = func(p *xchain.Participant) {
		if p == bob {
			skipped++
		}
	}
	bob.Crash() // declines before the run begins
	rt.Start()
	w.RunFor(2 * sim.Minute)
	if drives+skipped != 0 {
		t.Fatalf("crashed participant woken %d times (%d driven): it holds subscriptions", drives+skipped, drives)
	}
	bob.Recover()
	rt.Resume(bob) // drives once itself
	w.RunFor(2 * sim.Minute)
	if drives+skipped <= 1 {
		t.Fatal("Resume armed no subscriptions for the recovered participant")
	}
	if drives == 0 {
		t.Fatal("recovered participant never driven")
	}
}

// TestResumeOfALiveParticipantWakesOncePerChain pins the hazard of
// caller-owned subscriptions: Resume on a participant that never
// crashed watches again the subscriptions its clients still list. Each
// tip change must still wake it at most once per chain — exactly as
// often as a probe subscription on the same client is told — and none
// after Stop.
func TestResumeOfALiveParticipantWakesOncePerChain(t *testing.T) {
	b := xchain.NewBuilder(8)
	alice, bob := b.Participant("alice"), b.Participant("bob")
	b.Chain(xchain.DefaultChainSpec("c0"))
	b.Chain(xchain.DefaultChainSpec("c1"))
	b.Fund(alice, "c0", 1_000_000)
	b.Fund(bob, "c0", 1_000_000)
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// wakes counts bob's drives and the wake-ups the gate declined, asked
	// the drives Start and Resume make themselves, told what his probes
	// heard.
	wakes, asked, told := 0, 0, 0
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Chains:       []chain.ID{"c1"},
		Protocol: steps(func(p *xchain.Participant) {
			if p == bob {
				wakes++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.skipped = func(p *xchain.Participant) {
		if p == bob {
			wakes++
		}
	}
	probe := miner.TipFunc(func(miner.TipSummary) { told++ })
	for _, id := range []chain.ID{"c0", "c1"} {
		if err := bob.Client(id).Watch(new(miner.Sub), probe); err != nil {
			t.Fatal(err)
		}
	}
	rt.Start()
	asked++
	for i := 0; i < 4; i++ {
		rt.Resume(bob)
		rt.Resume(bob)
		asked += 2
		w.RunFor(sim.Minute)
		if wakes-asked != told {
			t.Fatalf("after %d double resumes: bob woken %d times, his clients told %d", i+1, wakes-asked, told)
		}
	}
	if told == 0 {
		t.Fatal("no tip change reached the clients")
	}
	rt.Stop()
	at, toldAt := wakes, told
	w.RunFor(2 * sim.Minute)
	if wakes != at || told == toldAt {
		t.Fatalf("after Stop: %d more wake-ups over %d tip changes told, want none", wakes-at, told-toldAt)
	}
}

func TestRuntimeStopRetiresEverything(t *testing.T) {
	w, alice, bob := world(t, 3)
	drives := 0
	var rt *Runtime
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol: steps(func(p *xchain.Participant) {
			drives++
			rt.WakeAt(p, "later", rt.Now()+time30s)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	w.RunFor(sim.Minute)
	rt.Stop()
	if !rt.Stopped() {
		t.Fatal("Stopped() false after Stop")
	}
	at := drives
	w.RunFor(3 * sim.Minute) // tip changes and armed wakes fire into the void
	if drives != at {
		t.Fatalf("stopped runtime drove %d more times", drives-at)
	}
	rt.Stop() // idempotent
}

func TestThrottleAndWakeAt(t *testing.T) {
	w, alice, bob := world(t, 4)
	var actions, wakes int
	var rt *Runtime
	due := sim.Time(0)
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol: steps(func(p *xchain.Participant) {
			if p != alice {
				return
			}
			rt.Throttle(p, "act", sim.Minute, func() { actions++ })
			if due == 0 {
				due = rt.Now() + 2*sim.Minute
			}
			if rt.Now() >= due {
				wakes++
			} else {
				// Re-armed on every drive; must stay one pending timer.
				rt.WakeAt(p, "due", due)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	w.RunUntil(5 * sim.Minute)
	// One throttled action per minute at most (plus the initial one).
	if actions > 6 {
		t.Fatalf("throttle leaked: %d actions in 5 minutes", actions)
	}
	if actions < 3 {
		t.Fatalf("throttle starved: %d actions in 5 minutes", actions)
	}
	if wakes == 0 {
		t.Fatal("WakeAt never fired")
	}
}

// TestWarmWakeAtAllocatesNothing: WakeAt's timers ride the world's
// pool, so once a timer has fired, arming and firing the next allocates
// nothing, and an arm while one is pending is still ignored.
func TestWarmWakeAtAllocatesNothing(t *testing.T) {
	w, alice, bob := world(t, 6)
	drives := 0
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol: steps(func(p *xchain.Participant) {
			if p == alice {
				drives++
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	w.StopMining()
	w.Sim.Run() // nothing left scheduled
	wake := func() {
		rt.WakeAt(alice, "due", w.Sim.Now()+sim.Second)
		rt.WakeAt(alice, "due", w.Sim.Now()) // pending: ignored
		w.Sim.Run()
	}
	wake()
	before := drives
	if n := testing.AllocsPerRun(100, wake); n != 0 {
		t.Errorf("warm WakeAt armed and fired: %v allocations, want 0", n)
	}
	if got := drives - before; got != 101 {
		t.Fatalf("101 timers armed twice each drove alice %d times, want once each", got)
	}
}

func TestEnsureTxConfirmsAndResubmits(t *testing.T) {
	w, alice, bob := world(t, 5)
	client := alice.Client("c0")
	// Build a payment but never submit it: EnsureTx's keep-alive must
	// eventually multicast it and then report depth-2 confirmation.
	ins, change, err := client.SelectFunds(1_000)
	if err != nil {
		t.Fatal(err)
	}
	outs := []chain.TxOut{{Value: 1_000, Owner: bob.Addr()}}
	if change > 0 {
		outs = append(outs, chain.TxOut{Value: change, Owner: alice.Addr()})
	}
	tx := chain.NewTransfer(alice.Key, 1, ins, outs)

	confirmed := false
	var rt *Runtime
	rt, err = New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol: steps(func(p *xchain.Participant) {
			if p == alice && !confirmed {
				confirmed = rt.EnsureTx(p, "c0", tx, 2)
			}
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	w.RunFor(10 * sim.Minute)
	if !confirmed {
		t.Fatal("EnsureTx never confirmed the kept-alive transaction")
	}
	if _, _, found := client.Chain().FindTx(tx.ID()); !found {
		t.Fatal("transaction not on the canonical chain")
	}
}

// TestEnsureTxResubmitsAReorgDropAtOnce: a transaction the participant
// saw canonical and then finds gone was dropped by a reorg, not delayed
// in flight, so the drive that sees it gone multicasts it again — with
// the resubmit window an hour long, a window-paced keep-alive would sit
// on it. Alice's node mines alone on the minority side of a partition,
// so her payment lands on a fork the heal throws away; the majority's
// miners hear of it only from her resubmission.
func TestEnsureTxResubmitsAReorgDropAtOnce(t *testing.T) {
	w, alice, bob := world(t, 5)
	client := alice.Client("c0") // attached to node 0
	client.ResubmitEvery = sim.Hour
	net := w.Net("c0")
	net.P2P.Partition([]p2p.NodeID{0}, []p2p.NodeID{1, 2})
	tx := pay(t, alice, bob, 1_000)

	var (
		rt        *Runtime
		err       error
		sawIt     bool     // alice's last drive found tx canonical
		droppedAt sim.Time // the drive that found it gone after that
		resubmits xchain.Resubmits
	)
	rt, err = New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol: steps(func(p *xchain.Participant) {
			if p != alice {
				return
			}
			rt.EnsureTx(p, "c0", tx, 1000) // never deep enough: kept alive throughout
			_, _, found := client.Chain().FindTx(tx.ID())
			if sawIt && !found && droppedAt == 0 {
				droppedAt, resubmits = rt.Now(), w.Resubmits
			}
			sawIt = found
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	w.RunFor(5 * sim.Minute)
	if _, _, found := client.Chain().FindTx(tx.ID()); !found {
		t.Fatal("fixture: the payment did not land on the minority side")
	}
	net.P2P.Heal()
	for i := 0; i < 60 && droppedAt == 0; i++ {
		w.RunFor(10 * sim.Second)
	}
	if droppedAt == 0 {
		t.Fatal("fixture: the heal never reorged the payment out of alice's view")
	}
	if resubmits.Window != 0 || resubmits.Dropped != 1 {
		t.Fatalf("the drive that found the payment dropped left %+v resubmits; want one, for the drop", resubmits)
	}
	w.RunFor(sim.Second)
	for _, i := range []int{1, 2} {
		n := net.Node(i)
		if _, _, onChain := n.Chain.FindTx(tx.ID()); !onChain && n.MempoolSize() == 0 {
			t.Errorf("majority node %d has not heard of the payment a second after the drop", i)
		}
	}
}

const time30s = 30 * sim.Second

// TestTimelineReturnsCopy: the slice Events returns must be a
// snapshot — mutating it (or appending to the runtime afterwards) must
// not alias the runtime's internal events. Regression: it used to
// return the live slice.
func TestTimelineReturnsCopy(t *testing.T) {
	w, alice, bob := world(t, 7)
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol:     steps(func(p *xchain.Participant) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Event(-1, "first")
	rt.Event(0, "second")
	snap := rt.Events()
	if len(snap) != 2 {
		t.Fatalf("timeline has %d events, want 2", len(snap))
	}
	// Mutating the snapshot must not corrupt the runtime's timeline.
	snap[0].Label = "tampered"
	if got := rt.Events()[0].Label; got != "first" {
		t.Fatalf("snapshot mutation leaked into the runtime: %q", got)
	}
	// Later appends must not grow (or reallocate under) the snapshot.
	rt.Event(-1, "third")
	if len(snap) != 2 {
		t.Fatalf("snapshot grew to %d after a later Event", len(snap))
	}
	if snap[1].Label != "second" {
		t.Fatalf("snapshot changed under a later Event: %q", snap[1].Label)
	}
}

// TestMarkFirstWins: Mark records each phase point once, at the first
// call's virtual time; Marks returns an independent copy.
func TestMarkFirstWins(t *testing.T) {
	w, alice, bob := world(t, 8)
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol:     steps(func(p *xchain.Participant) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Mark(PointDeploySubmitted)
	w.RunFor(time30s)
	rt.Mark(PointDeploySubmitted) // retry: must not move the boundary
	rt.Mark(PointDeployConfirmed)
	marks := rt.Marks()
	if len(marks) != 2 {
		t.Fatalf("got %d marks, want 2", len(marks))
	}
	if marks[0].Point != PointDeploySubmitted || marks[0].At != 0 {
		t.Fatalf("first mark = %+v, want deploy_submitted at t=0", marks[0])
	}
	if marks[1].Point != PointDeployConfirmed || marks[1].At != time30s {
		t.Fatalf("second mark = %+v, want deploy_confirmed at t=30s", marks[1])
	}
	if rt.Decided() {
		t.Fatal("Decided reports a point that was never marked")
	}
	// The returned slice is a copy.
	marks[0].Point = PointDecisionTriggered
	if rt.Marks()[0].Point != PointDeploySubmitted {
		t.Fatal("Marks() returned the live slice")
	}
}

// Nothing deployed: no asset ever moved, which grades as a clean abort
// (the nothing side of all-or-nothing), never as commit or violation.
func TestGradeNothingDeployed(t *testing.T) {
	w, alice, bob := world(t, 9)
	rt, err := New(Config{
		World:        w,
		Graph:        swapOnC0(t, alice, bob),
		Participants: []*xchain.Participant{alice, bob},
		Initiator:    alice,
		Protocol:     steps(func(p *xchain.Participant) {}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	w.RunFor(time30s)
	out := rt.Grade()
	if out.Committed() || out.AtomicityViolated() || !out.Aborted() {
		t.Fatalf("empty grading misjudged: %+v", out.Edges)
	}
	if len(out.Edges) != 2 || out.Edges[0].Deployed || out.Edges[1].Deployed || out.Deploys+out.Calls != 0 {
		t.Fatalf("phantom deployment: %+v, %d deploys, %d calls", out.Edges, out.Deploys, out.Calls)
	}
}
