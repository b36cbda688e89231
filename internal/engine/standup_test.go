package engine

import (
	"fmt"
	"testing"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestStandUpCrashRow drives the paper's Section 1 row the way every
// single-AC2T driver stands a transaction up (ADR-015): the protocol
// table's constructor, the shared crash-at-commit watch, and the
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
				w.Sim.Poll(100*sim.Millisecond, core.CrashAtCommit(r, func(who string, _ bool) { crashed = who }))
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
