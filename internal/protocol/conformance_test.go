package protocol_test

// Cross-protocol conformance: one seeded scenario grid — commit,
// decline-abort, crash-at-decision (with recovery), decision race,
// and witness crash — run against AC3WN, AC3TW, and the HTLC
// baseline on 2-party and 3-cycle graphs, all through the shared
// reconciler runtime. The paper's comparison reproduces
// deterministically:
//
//   - AC3WN settles every scenario with zero atomicity violations;
//     crashed participants resume and still redeem.
//   - AC3TW tolerates participant crashes (Resume works), but blocks
//     when its centralized witness crashes — and unblocks when the
//     witness recovers.
//   - HTLC loses the crashed victim's assets: recovery resumes the
//     reconciler, but the timelocked refunds already executed — the
//     Section 1 fragility.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/batch"
	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/p2p"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/swap"
	"repro/internal/xchain"
)

const (
	confDepth    = 2
	confAbortAt  = 15 * sim.Minute
	confDowntime = 30 * sim.Minute // far beyond every HTLC timelock
	// confPartitionFor is the decision-window split duration: long
	// enough to outlive every HTLC timelock at Delta=90s — the ring
	// timelocks run to (2n−k+1)·Δ ≈ 9-10.5 minutes from the start, so
	// an 8-minute blackout starting at the reveal pushes the victim's
	// redeem past its refund deadline (the expiry-loss hazard) —
	// while AC3WN's post-heal reconciliation still finishes well
	// inside the observation window (minority forks stay ~16 blocks,
	// under the 30-deep stable anchors).
	confPartitionFor = 8 * sim.Minute
	// confLoss / confLossUntil: sustained gossip loss on every
	// network for the first stretch of the run — the orphan
	// re-request and resubmission paths must carry the protocol.
	confLoss      = 0.3
	confLossUntil = 20 * sim.Minute
)

// split isolates the given miner of the chain's gossip network from
// the rest now, healing confPartitionFor later via the schedule API.
// The miner is chosen to starve a specific participant's attached
// node, since clients read their own node's view while submissions
// reach every mempool on their side of the split.
func split(w *xchain.World, id chain.ID, isolate int) {
	w.Net(id).P2P.ScheduleIsolation(w.Sim.Now(), confPartitionFor, isolate)
}

// splitWhen splits the chain's network (split) once trigger reports
// true, checked every 100ms: for a moment that is no protocol point.
func splitWhen(w *xchain.World, id chain.ID, isolate int, trigger func() bool) {
	w.Sim.After(100*sim.Millisecond, func() {
		if trigger() {
			split(w, id, isolate)
			return
		}
		splitWhen(w, id, isolate, trigger)
	})
}

// decisionsSeen hands decisions on to the batch coordinator and notes
// that one arrived: from then until the window closes, a decision is
// pending there.
type decisionsSeen struct {
	*batch.Coordinator
	any bool
}

func (d *decisionsSeen) Submit(scw crypto.Address, decision contracts.WitnessState) {
	d.any = true
	d.Coordinator.Submit(scw, decision)
}

// lossyWorld pushes a loss overlay on every network and lifts it at
// confLossUntil.
func lossyWorld(w *xchain.World) {
	for _, id := range w.Chains() {
		ov := w.Net(id).P2P.PushOverlay(p2p.LatencyModel{Loss: confLoss})
		w.Sim.At(confLossUntil, ov.Remove)
	}
}

// gridWorld builds an n-ring world: participant i funded on chain i,
// edge i = ps[i] -> ps[i+1] on chain i, plus a witness chain.
func gridWorld(t *testing.T, seed uint64, n int) (*xchain.World, []*xchain.Participant, *graph.Graph) {
	t.Helper()
	b := xchain.NewBuilder(seed)
	ps := make([]*xchain.Participant, n)
	ids := make([]chain.ID, n)
	for i := range ps {
		ps[i] = b.Participant(fmt.Sprintf("p%d", i))
		ids[i] = chain.ID(fmt.Sprintf("c%d", i))
		b.Chain(xchain.DefaultChainSpec(ids[i]))
	}
	b.Chain(xchain.DefaultChainSpec("witness"))
	edges := make([]graph.Edge, n)
	for i := range ps {
		b.Fund(ps[i], ids[i], 1_000_000)
		edges[i] = graph.Edge{From: ps[i].Addr(), To: ps[(i+1)%n].Addr(), Asset: 10_000, Chain: ids[i]}
	}
	w, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.New(int64(seed), edges...)
	if err != nil {
		t.Fatal(err)
	}
	return w, ps, g
}

// firstEvent returns when a timeline label with the given prefix first
// appeared.
func firstEvent(events []protocol.Event, prefix string) (sim.Time, bool) {
	for _, ev := range events {
		if strings.HasPrefix(ev.Label, prefix) {
			return ev.At, true
		}
	}
	return 0, false
}

// armAt arms r's fault row at point at, as the engine's rows do, and
// checks at the end that it fired exactly once, in the virtual instant
// label was first logged; with label "", that it never fired: a run
// that does not reach the point fires nothing.
func armAt(t *testing.T, w *xchain.World, r core.Runner, at protocol.FaultPoint, label string, fire func(protocol.Protocol)) {
	t.Helper()
	var fired []sim.Time
	r.Arm(at, func(p protocol.Protocol) {
		fired = append(fired, w.Sim.Now())
		fire(p)
	})
	t.Cleanup(func() {
		var want []sim.Time
		if label != "" {
			logged, ok := firstEvent(r.Events(), label)
			if !ok {
				t.Errorf("%q never logged", label)
			}
			want = append(want, logged)
		}
		if !slices.Equal(fired, want) {
			t.Errorf("the row armed at point %d fired at %v, want %v (%q first logged)", at, fired, want, label)
		}
	})
}

// crashAtPush arms r's crash as the engine's crash row does — a victim
// that comes back is recovered confDowntime later — and checks at the
// end that it took down who exactly once, in the instant pushLabel was
// first logged; with who "", that it never fired: a refund-only run
// pushes no commit.
func crashAtPush(t *testing.T, w *xchain.World, r core.Runner, who, pushLabel string) {
	t.Helper()
	armAt(t, w, r, protocol.AtCommitPush, pushLabel, func(p protocol.Protocol) {
		victim, comesBack := p.Crash()
		if victim != who {
			t.Errorf("the armed crash took down %q, want %q", victim, who)
		}
		if comesBack {
			w.Sim.After(confDowntime, r.Recover)
		}
	})
}

// noop is a row that does nothing where it fires: a commit cell arms it
// to check the decision window's point alone.
func noop(protocol.Protocol) {}

// shadowed guards the shadow check (protocol.Shadow, installed on every
// cell) against passing vacuously: the gate must have declined wake-ups
// for it to have examined any.
func shadowed(t *testing.T, w *xchain.World) {
	t.Helper()
	if w.WakeupsSkipped == 0 {
		t.Error("the wake-up gate skipped nothing: the shadow conformance check examined no wake-up")
	}
	t.Logf("%d drives, %d wake-ups skipped and shadow-checked", w.Drives, w.WakeupsSkipped)
}

func TestConformanceAC3WN(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, scenario := range []string{"commit", "abort", "crash", "race", "partition", "lossy"} {
			n, scenario := n, scenario
			t.Run(fmt.Sprintf("%s-%d", scenario, n), func(t *testing.T) {
				seed := uint64(41000 + n*100)
				w, ps, g := gridWorld(t, seed, n)
				victim := ps[n-1]
				abortAfter := sim.Time(0)
				if scenario == "abort" {
					abortAfter = confAbortAt
					victim.Crash() // declines: never deploys
				}
				if scenario == "lossy" {
					lossyWorld(w)
				}
				r, err := core.New(w, core.Config{
					Graph:        g,
					Participants: ps,
					Initiator:    ps[0],
					WitnessChain: "witness",
					WitnessDepth: confDepth,
					AssetDepth:   confDepth,
					AbortAfter:   abortAfter,
				})
				if err != nil {
					t.Fatal(err)
				}
				protocol.Shadow(t, r.Runtime)
				r.Start()
				switch scenario {
				case "commit":
					armAt(t, w, r, protocol.AtDecisionWindow, "SCw deploy submitted", noop)
				case "abort":
					crashAtPush(t, w, r, "", "")
				case "crash":
					crashAtPush(t, w, r, victim.Name, "authorize_redeem submitted")
				case "race":
					armAt(t, w, r, protocol.AtDecisionWindow, "SCw deploy submitted", protocol.Protocol.Race)
				case "partition":
					// Split the witness network the moment SCw exists:
					// the decision and its burial race across a healed
					// deep reorg. AC3WN must still settle atomically —
					// the non-blocking claim under the paper's own
					// hazard.
					armAt(t, w, r, protocol.AtDecisionWindow, "SCw deploy submitted", func(protocol.Protocol) {
						split(w, r.DecisionChain(), 0)
					})
				}
				w.RunUntil(2 * sim.Hour)
				w.StopMining()
				w.RunFor(sim.Minute)
				shadowed(t, w)
				out := r.Grade()
				if out.AtomicityViolated() {
					t.Fatalf("AC3WN violated atomicity under %s: %+v", scenario, out.Edges)
				}
				switch scenario {
				case "commit", "crash", "partition", "lossy":
					if !out.Committed() {
						t.Fatalf("AC3WN did not commit under %s: %+v", scenario, out.Edges)
					}
				case "abort":
					if !out.Aborted() {
						t.Fatalf("AC3WN did not abort cleanly: %+v", out.Edges)
					}
				case "race":
					if !out.Committed() && !out.Aborted() {
						t.Fatalf("AC3WN race left the AC2T unsettled: %+v", out.Edges)
					}
				}
			})
		}
	}
}

// TestCrashedPusherResumes makes the crash victim the participant who
// pushes authorize_redeem: the initiator, here the last participant.
// The armed crash must land between its steps, not inside the one that
// pushes, so the push still reaches the witness chain (unbatched: the
// canonical authorize_redeem is the victim's) and decides the AC2T;
// the victim resumes after the downtime and redeems.
func TestCrashedPusherResumes(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			const seed = 45100
			w, ps, g := gridWorld(t, seed, 2)
			victim := ps[1]
			cfg := core.Config{
				Graph:        g,
				Participants: ps,
				Initiator:    victim,
				WitnessChain: "witness",
				WitnessDepth: confDepth,
				AssetDepth:   confDepth,
			}
			if batched {
				coord, err := batch.New(w, "witness", seed+99, batch.Config{Window: 90 * sim.Second, StableDepth: 48})
				if err != nil {
					t.Fatal(err)
				}
				cfg.Batcher, cfg.BatchAddr = coord, coord.Addr()
			}
			r, err := core.New(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.Start()
			crashAtPush(t, w, r, victim.Name, "authorize_redeem submitted by "+victim.Name)
			w.RunUntil(2 * sim.Hour)
			w.StopMining()
			w.RunFor(sim.Minute)
			if out := r.Grade(); !out.Committed() || out.AtomicityViolated() {
				t.Fatalf("the crashed pusher did not resume to a commit: %+v", out.Edges)
			}
			if batched {
				return
			}
			view := w.View("witness")
			var pushers []crypto.Address
			for h := uint64(0); h <= view.Height(); h++ {
				b, _ := view.CanonicalAt(h)
				for _, tx := range b.Txs {
					if tx.Kind == chain.TxCall && tx.Fn == contracts.FnAuthorizeRedeem {
						pushers = append(pushers, tx.Signer())
					}
				}
			}
			if len(pushers) == 0 || pushers[0] != victim.Addr() {
				t.Fatalf("canonical authorize_redeem calls signed by %v; want the first by the victim %v", pushers, victim.Addr())
			}
		})
	}
}

// TestConformanceAC3WNBatched is the grid's batching column: the same
// scenario cells, but every decision rides the witness-side batching
// layer — a coordinator collects decisions over a 90s window, commits
// the merkle root under an m-of-n attestation, and redeem/refund on
// the asset chains carries a membership proof against the committed
// root. The claims under test: outcomes match the per-AC2T column at
// zero violations; the crash cell's victim resumes after the batch
// committed and re-derives its membership proof purely from chain
// state; the race cell's conflicting refund is absorbed first-wins;
// and the partition cell splits the witness chain mid-batch-window
// (decisions pending, commitment unpublished or unburied), forcing
// the post-reorg republish path to carry the decision set.
func TestConformanceAC3WNBatched(t *testing.T) {
	const batchWindow = 90 * sim.Second
	for _, n := range []int{2, 3} {
		for _, scenario := range []string{"commit", "abort", "crash", "race", "partition"} {
			n, scenario := n, scenario
			t.Run(fmt.Sprintf("%s-%d", scenario, n), func(t *testing.T) {
				seed := uint64(44000 + n*100)
				w, ps, g := gridWorld(t, seed, n)
				coord, err := batch.New(w, "witness", seed+99, batch.Config{
					Window: batchWindow,
					// Track published commitments past the deepest
					// minority fork a healed 8-minute split produces.
					StableDepth: 48,
				})
				if err != nil {
					t.Fatal(err)
				}
				sink := &decisionsSeen{Coordinator: coord}
				victim := ps[n-1]
				abortAfter := sim.Time(0)
				if scenario == "abort" {
					abortAfter = confAbortAt
					victim.Crash() // declines: never deploys
				}
				r, err := core.New(w, core.Config{
					Graph:        g,
					Participants: ps,
					Initiator:    ps[0],
					WitnessChain: "witness",
					WitnessDepth: confDepth,
					AssetDepth:   confDepth,
					AbortAfter:   abortAfter,
					Batcher:      sink,
					BatchAddr:    coord.Addr(),
				})
				if err != nil {
					t.Fatal(err)
				}
				protocol.Shadow(t, r.Runtime)
				r.Start()
				switch scenario {
				case "commit":
					armAt(t, w, r, protocol.AtDecisionWindow, "SCw deploy submitted", noop)
				case "abort":
					crashAtPush(t, w, r, "", "")
				case "crash":
					// The victim dies the moment the redeem decision
					// enters the batching layer and stays down far past
					// the window: the batch commits without it, and
					// Resume must rebuild the membership proof from the
					// chain's commit_batch record alone.
					crashAtPush(t, w, r, victim.Name, "authorize_redeem submitted")
				case "race":
					// The rogue races the honest decision inside the
					// batching layer: first-wins at the coordinator (and
					// whole-batch conflict rejection on-chain) keeps
					// exactly one decision per SCw.
					armAt(t, w, r, protocol.AtDecisionWindow, "SCw deploy submitted", protocol.Protocol.Race)
				case "partition":
					// Split the witness network mid-batch-window: a
					// decision is pending at the coordinator, and the
					// commitment it publishes can only reach the
					// minority fork (the coordinator's node is the one
					// isolated). The heal reorgs the commitment out and
					// the coordinator must republish it.
					splitWhen(w, "witness", 0, func() bool { return sink.any })
				}
				w.RunUntil(2 * sim.Hour)
				w.StopMining()
				w.RunFor(sim.Minute)
				shadowed(t, w)
				out := r.Grade()
				if out.AtomicityViolated() {
					t.Fatalf("batched AC3WN violated atomicity under %s: %+v", scenario, out.Edges)
				}
				switch scenario {
				case "commit", "crash", "partition":
					if !out.Committed() {
						t.Fatalf("batched AC3WN did not commit under %s: %+v", scenario, out.Edges)
					}
				case "abort":
					if !out.Aborted() {
						t.Fatalf("batched AC3WN did not abort cleanly: %+v", out.Edges)
					}
				case "race":
					if !out.Committed() && !out.Aborted() {
						t.Fatalf("batched AC3WN race left the AC2T unsettled: %+v", out.Edges)
					}
				}
				if coord.BatchesPublished == 0 {
					t.Fatalf("no batch published under %s", scenario)
				}
				if scenario == "partition" && coord.Republishes == 0 {
					t.Fatal("witness partition mid-batch-window never exercised the republish path")
				}
			})
		}
	}
}

func TestConformanceAC3TW(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, scenario := range []string{"commit", "abort", "crash", "race", "witness-crash", "partition", "lossy"} {
			n, scenario := n, scenario
			t.Run(fmt.Sprintf("%s-%d", scenario, n), func(t *testing.T) {
				seed := uint64(42000 + n*100)
				w, ps, g := gridWorld(t, seed, n)
				trent := core.NewTrent(w, seed+7, 100*sim.Millisecond, confDepth)
				victim := ps[n-1]
				abortAfter := sim.Time(0)
				if scenario == "abort" {
					abortAfter = confAbortAt
					victim.Crash()
				}
				if scenario == "lossy" {
					lossyWorld(w)
				}
				r, err := core.NewTW(w, core.TWConfig{
					Graph:        g,
					Participants: ps,
					Initiator:    ps[0],
					Trent:        trent,
					AbortAfter:   abortAfter,
				})
				if err != nil {
					t.Fatal(err)
				}
				protocol.Shadow(t, r.Runtime)
				r.Start()
				switch scenario {
				case "commit":
					armAt(t, w, r, protocol.AtDecisionWindow, "ms(D) registered at Trent", noop)
				case "abort":
					crashAtPush(t, w, r, "", "")
				case "crash":
					// A participant crashes at decision time and
					// resumes: AC3TW absorbs this like AC3WN does.
					armAt(t, w, r, protocol.AtCommitPush, "redeem signature requested", func(protocol.Protocol) {
						victim.Crash()
						w.Sim.After(confDowntime, func() {
							victim.Recover()
							r.Resume(victim)
						})
					})
				case "race":
					// A rogue races the honest decision at Trent; the
					// store's at-most-one-signature guard keeps the
					// outcome atomic (here: the refund wins).
					armAt(t, w, r, protocol.AtDecisionWindow, "ms(D) registered at Trent", protocol.Protocol.Race)
				case "witness-crash":
					// Trent crashes the moment he is asked to decide,
					// and stays down: the AC2T blocks — the
					// availability hazard AC3WN removes.
					crashAtPush(t, w, r, "Trent", "redeem signature requested")
				case "partition":
					// Split the first asset chain once the AC2T is
					// registered at Trent: deposit confirmations and the
					// signed decision's landing stall on the minority
					// side until the heal. AC3TW stays atomic (the
					// at-most-one-signature store), and any stall is the
					// blocking hazard recorded as data.
					armAt(t, w, r, protocol.AtDecisionWindow, "ms(D) registered at Trent", func(protocol.Protocol) {
						split(w, r.DecisionChain(), 0)
					})
				}
				w.RunUntil(90 * sim.Minute)
				if scenario == "witness-crash" {
					out := r.Grade()
					if out.Committed() || out.AtomicityViolated() {
						t.Fatalf("unexpected outcome while Trent is down: %+v", out.Edges)
					}
					if r.Settled() {
						t.Fatal("run settled with the witness down — AC3TW should block")
					}
					// Recovery unblocks: the initiator's throttled
					// retry reaches the recovered witness.
					r.Recover()
					w.RunUntil(w.Sim.Now() + 40*sim.Minute)
				}
				w.StopMining()
				w.RunFor(sim.Minute)
				shadowed(t, w)
				out := r.Grade()
				if out.AtomicityViolated() {
					t.Fatalf("AC3TW violated atomicity under %s: %+v", scenario, out.Edges)
				}
				switch scenario {
				case "commit", "crash", "witness-crash", "partition", "lossy":
					// Partition/lossy: slower (the blocking tendency as
					// data), but Trent's at-most-one signature still
					// lands and the AC2T commits atomically.
					if !out.Committed() {
						t.Fatalf("AC3TW did not commit under %s: %+v", scenario, out.Edges)
					}
				case "abort", "race":
					if !out.Aborted() {
						t.Fatalf("AC3TW did not abort cleanly under %s: %+v", scenario, out.Edges)
					}
				}
			})
		}
	}
}

func TestConformanceHTLC(t *testing.T) {
	for _, n := range []int{2, 3} {
		for _, scenario := range []string{"commit", "abort", "crash", "race", "partition", "lossy"} {
			n, scenario := n, scenario
			t.Run(fmt.Sprintf("%s-%d", scenario, n), func(t *testing.T) {
				seed := uint64(43000 + n*100)
				w, ps, g := gridWorld(t, seed, n)
				victim := ps[n-1]
				if scenario == "abort" {
					victim.Crash()
				}
				if scenario == "lossy" {
					lossyWorld(w)
				}
				r, err := swap.New(w, swap.Config{
					Graph:        g,
					Participants: ps,
					Leader:       ps[0],
					Delta:        90 * sim.Second,
					ConfirmDepth: confDepth,
				})
				if err != nil {
					t.Fatal(err)
				}
				protocol.Shadow(t, r.Runtime)
				r.Start()
				switch scenario {
				case "commit":
					armAt(t, w, r, protocol.AtDecisionWindow, "redeem submitted", noop)
				case "abort":
					crashAtPush(t, w, r, "", "")
				case "crash":
					// The victim crashes the moment the secret reveal
					// is submitted and recovers long after every
					// timelock: Resume re-derives s from chain state
					// and retries, but the refunds already executed —
					// the asset loss is permanent.
					crashAtPush(t, w, r, victim.Name, "redeem submitted")
				case "race":
					// Hashlocks have no decision to race: the row fires
					// at the reveal and does nothing.
					armAt(t, w, r, protocol.AtDecisionWindow, "redeem submitted", protocol.Protocol.Race)
				case "partition":
					// The leader's reveal lands on chain c{n-1}; the
					// downstream participant p{n-1} learns s only by
					// reading that chain through its own attached node.
					// Isolating exactly that node the moment every
					// contract is deployed keeps the reveal out of the
					// victim's side for a window that outlives the
					// Δ-scaled timelocks: the reveal confirms (and
					// redeems) on the majority fork while the victim,
					// blind until the heal, misses its own redeem
					// deadlines and the timelocked refunds fire. This
					// is HTLC's expiry-loss hazard under partition,
					// recorded as data below.
					revealChain := chain.ID(fmt.Sprintf("c%d", n-1))
					splitWhen(w, revealChain, n-1, r.AllConfirmed)
				}
				w.RunUntil(2 * sim.Hour)
				w.StopMining()
				w.RunFor(sim.Minute)
				shadowed(t, w)
				out := r.Grade()
				switch scenario {
				case "commit", "race":
					if !out.Committed() || out.AtomicityViolated() {
						t.Fatalf("HTLC happy path broke under %s: %+v", scenario, out.Edges)
					}
				case "abort":
					if !out.Aborted() || out.AtomicityViolated() {
						t.Fatalf("HTLC decline-abort broke: %+v", out.Edges)
					}
				case "crash":
					if !out.AtomicityViolated() {
						t.Fatalf("HTLC crash hazard did not reproduce: %+v", out.Edges)
					}
				case "partition":
					// The expected hazard: the timelocked refunds fire
					// on the majority fork while the revealed secret
					// redeems elsewhere — the expiry loss the paper's
					// Section 1 predicts. Deterministic at this seed.
					if !out.AtomicityViolated() {
						t.Fatalf("HTLC partition expiry-loss did not reproduce: %+v", out.Edges)
					}
				case "lossy":
					// Loss alone only delays gossip; resubmission and
					// orphan recovery get every reveal through inside
					// the timelocks at this seed — the baseline
					// survives, slower.
					if !out.Committed() || out.AtomicityViolated() {
						t.Fatalf("HTLC under loss: %+v", out.Edges)
					}
				}
			})
		}
	}
}

// TestInitiatorMustParticipate: an Initiator/Leader that is not among
// the Participants is nobody's to drive — the opening move never
// happens and the run would grade stuck without an error. The one
// shared constructor path rejects it for every protocol.
func TestInitiatorMustParticipate(t *testing.T) {
	w, ps, g := gridWorld(t, 45000, 2)
	b := xchain.NewBuilder(45001)
	outsider := b.Participant("outsider")
	cases := []struct {
		name string
		make func(initiator *xchain.Participant) error
	}{
		{"ac3wn", func(p *xchain.Participant) error {
			_, err := core.New(w, core.Config{Graph: g, Participants: ps, Initiator: p, WitnessChain: "witness"})
			return err
		}},
		{"ac3tw", func(p *xchain.Participant) error {
			_, err := core.NewTW(w, core.TWConfig{Graph: g, Participants: ps, Initiator: p, Trent: core.NewTrent(w, 1, sim.Millisecond, 0)})
			return err
		}},
		{"htlc", func(p *xchain.Participant) error {
			_, err := swap.New(w, swap.Config{Graph: g, Participants: ps, Leader: p, Delta: sim.Minute})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.make(ps[0]); err != nil {
			t.Errorf("%s: participating initiator rejected: %v", tc.name, err)
		}
		if err := tc.make(nil); err == nil {
			t.Errorf("%s: nil initiator accepted", tc.name)
		}
		err := tc.make(outsider)
		if err == nil || !strings.Contains(err.Error(), "not one of the participants") {
			t.Errorf("%s: outsider initiator: err = %v, want a not-a-participant rejection", tc.name, err)
		}
	}
}
