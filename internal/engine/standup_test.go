package engine

import (
	"fmt"
	"testing"

	"repro/internal/chain"
	"repro/internal/graph"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestStandUpCrashRow drives the paper's Section 1 row the way every
// single-AC2T driver stands a transaction up (ADR-015): the protocol
// table's constructor, the runner's crash armed at the commit push, and the
// world's run-out tail, on a 2-party and a 3-ring world. With the
// critical failure point down, AC3WN and AC3TW hold every asset locked
// — stuck, never violated — and commit once it recovers; HTLC's
// timelocks expire against the victim and recovery cannot undo it.
func TestStandUpCrashRow(t *testing.T) {
	for _, proto := range []Protocol{ProtoAC3WN, ProtoAC3TW, ProtoHTLC} {
		for _, n := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s-%d", proto, n), func(t *testing.T) {
				seed := uint64(46000 + n)
				b := xchain.NewBuilder(seed)
				ps := make([]*xchain.Participant, n)
				ids := make([]chain.ID, n)
				for i := range ps {
					ps[i] = b.Participant(fmt.Sprintf("p%d", i))
					ids[i] = chain.ID(fmt.Sprintf("c%d", i))
					b.Chain(xchain.DefaultChainSpec(ids[i]))
					b.Fund(ps[i], ids[i], 1_000_000)
				}
				b.Chain(xchain.DefaultChainSpec("witness"))
				w, err := b.Build()
				if err != nil {
					t.Fatal(err)
				}
				g, err := graph.Ring(int64(seed), xchain.Addrs(ps), 10_000, ids)
				if err != nil {
					t.Fatal(err)
				}
				r, err := NewRunner(w, proto, AC2T{
					Graph:        g,
					Participants: ps,
					Witness:      "witness",
					Depth:        2,
					TrentSeed:    seed + 7,
					TrentLatency: 100 * sim.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				r.Start()
				var crashed string
				r.Arm(protocol.AtCommitPush, func(p protocol.Protocol) { crashed, _ = p.Crash() })
				w.RunUntil(2 * sim.Hour) // far beyond every HTLC timelock

				wantCrashed := ps[n-1].Name
				if proto == ProtoAC3TW {
					wantCrashed = "Trent"
				}
				if crashed != wantCrashed {
					t.Fatalf("crashed %q at the commit push, want %q", crashed, wantCrashed)
				}
				down := r.Grade()
				downSettled := r.Settled()
				r.Recover()
				w.RunOut(w.Sim.Now() + sim.Hour)
				out := r.Grade()

				if proto == ProtoHTLC {
					if !down.AtomicityViolated() || !out.AtomicityViolated() {
						t.Fatalf("HTLC crash hazard did not reproduce: down %+v, recovered %+v", down.Edges, out.Edges)
					}
					return
				}
				if down.Committed() || down.AtomicityViolated() || downSettled {
					t.Fatalf("%s with %s down: settled=%v %+v, want stuck and safe", proto, crashed, downSettled, down.Edges)
				}
				if !out.Committed() || out.AtomicityViolated() {
					t.Fatalf("%s did not commit after %s recovered: %+v", proto, crashed, out.Edges)
				}
			})
		}
	}
}

// TestNewRunnerUnknownProtocol: a name outside the table is an error,
// not a nil runner.
func TestNewRunnerUnknownProtocol(t *testing.T) {
	if r, err := NewRunner(nil, "2pc", AC2T{}); err == nil || r != nil {
		t.Fatalf("NewRunner(2pc) = %v, %v; want an error", r, err)
	}
}

// TestStandUpAllocations pins the heap objects one 2-party AC2T costs to
// stand up — NewRunner and Start, on a built world, with participants no
// earlier run touched — under each protocol (ADR-024): the runtime, its
// ledgers and wait-sets, the protocol's own state and its opening moves.
// Participants, their clients and keys are the world's, built once.
// NewRunner alone is counted exactly: core.New and swap.New make the run
// and its per-participant state, protocol.New the runtime, its
// participants' states, edge ledgers, timeline and watches; the run is
// its own Protocol, so no hook is an object (ADR-023's third amendment).
func TestStandUpAllocations(t *testing.T) {
	const runs = 20
	for _, c := range []struct {
		proto       Protocol
		constructor float64
		ceiling     float64
	}{{ProtoAC3WN, 7, 30}, {ProtoAC3TW, 20, 34}, {ProtoHTLC, 7, 22}} {
		t.Run(string(c.proto), func(t *testing.T) {
			b := xchain.NewBuilder(47000)
			ids := []chain.ID{"c0", "c1"}
			for _, id := range []chain.ID{"c0", "c1", "witness"} {
				b.Chain(xchain.DefaultChainSpec(id))
			}
			pairs, graphs := make([][]*xchain.Participant, 2*(runs+1)), make([]*graph.Graph, 2*(runs+1))
			for i := range pairs {
				pairs[i] = b.Participants(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))
				for j, p := range pairs[i] {
					b.Fund(p, ids[j], 1_000_000)
				}
			}
			w, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			for i := range graphs {
				if graphs[i], err = graph.Ring(int64(i+1), xchain.Addrs(pairs[i]), 10_000, ids); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			stand := func(start bool) {
				r, err := NewRunner(w, c.proto, AC2T{
					Graph: graphs[i], Participants: pairs[i], Witness: "witness", Depth: 2,
					AbortAfter: safetyAbortAfter, TrentSeed: uint64(i), TrentLatency: 100 * sim.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				if start {
					r.Start()
				}
				i++
			}
			if n := testing.AllocsPerRun(runs, func() { stand(false) }); n != c.constructor {
				t.Errorf("%s: NewRunner makes %v objects, want %v", c.proto, n, c.constructor)
			}
			n := testing.AllocsPerRun(runs, func() { stand(true) })
			t.Logf("%s: %v allocations to stand a 2-party AC2T up", c.proto, n)
			if n > c.ceiling {
				t.Fatalf("%s: %v allocations to stand a 2-party AC2T up, ceiling %v", c.proto, n, c.ceiling)
			}
		})
	}
}
