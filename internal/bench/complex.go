package bench

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// Complex reproduces Section 5.3 / Figure 7: AC2T graphs that the
// single-leader baseline structurally cannot execute — cyclic graphs
// that stay cyclic after removing any vertex (7a) and disconnected
// graphs (7b) — commit atomically under AC3WN.
func Complex(seed uint64) *Result {
	t := metrics.NewTable("Section 5.3 — complex AC2T graphs (Figure 7)",
		"graph", "|V|", "|E|", "cyclic", "connected", "single-leader feasible", "AC3WN outcome")
	ok := true

	type testcase struct {
		name  string
		build func(b *xchain.Builder) (*graph.Graph, []*xchain.Participant, error)
	}
	cases := []testcase{
		{
			name: "two-party swap (Figure 4)",
			build: func(b *xchain.Builder) (*graph.Graph, []*xchain.Participant, error) {
				alice, bob := b.Participant("alice"), b.Participant("bob")
				b.Chain(xchain.DefaultChainSpec("c0"))
				b.Chain(xchain.DefaultChainSpec("c1"))
				b.Chain(xchain.DefaultChainSpec("witness"))
				b.Fund(alice, "c0", 1_000_000)
				b.Fund(bob, "c1", 1_000_000)
				g, err := graph.TwoParty(int64(seed), alice.Addr(), bob.Addr(), 10_000, "c0", 10_000, "c1")
				return g, []*xchain.Participant{alice, bob}, err
			},
		},
		{
			name: "cyclic, no feasible leader (Figure 7a)",
			build: func(b *xchain.Builder) (*graph.Graph, []*xchain.Participant, error) {
				ps := []*xchain.Participant{b.Participant("p0"), b.Participant("p1"), b.Participant("p2")}
				for _, id := range []chain.ID{"c0", "c1", "c2", "witness"} {
					b.Chain(xchain.DefaultChainSpec(id))
				}
				for i, p := range ps {
					b.Fund(p, chain.ID(fmt.Sprintf("c%d", i)), 1_000_000)
					b.Fund(p, chain.ID(fmt.Sprintf("c%d", (i+1)%3)), 1_000_000)
				}
				g, err := graph.New(int64(seed),
					graph.Edge{From: ps[0].Addr(), To: ps[1].Addr(), Asset: 1_000, Chain: "c0"},
					graph.Edge{From: ps[1].Addr(), To: ps[2].Addr(), Asset: 1_000, Chain: "c1"},
					graph.Edge{From: ps[2].Addr(), To: ps[0].Addr(), Asset: 1_000, Chain: "c2"},
					graph.Edge{From: ps[0].Addr(), To: ps[2].Addr(), Asset: 1_000, Chain: "c1"},
					graph.Edge{From: ps[2].Addr(), To: ps[1].Addr(), Asset: 1_000, Chain: "c0"},
					graph.Edge{From: ps[1].Addr(), To: ps[0].Addr(), Asset: 1_000, Chain: "c2"},
				)
				return g, ps, err
			},
		},
		{
			name: "disconnected pairs (Figure 7b)",
			build: func(b *xchain.Builder) (*graph.Graph, []*xchain.Participant, error) {
				ps := []*xchain.Participant{
					b.Participant("p0"), b.Participant("p1"),
					b.Participant("p2"), b.Participant("p3"),
				}
				ids := []chain.ID{"c0", "c1", "c2", "c3", "witness"}
				for _, id := range ids {
					b.Chain(xchain.DefaultChainSpec(id))
				}
				for i, p := range ps {
					b.Fund(p, ids[i], 1_000_000)
				}
				g, err := graph.Disconnected(int64(seed), [][2]crypto.Address{
					{ps[0].Addr(), ps[1].Addr()}, {ps[2].Addr(), ps[3].Addr()},
				}, 1_000, ids[:4])
				return g, ps, err
			},
		},
	}

	for i, tc := range cases {
		b := xchain.NewBuilder(seed + uint64(i)*37)
		g, ps, err := tc.build(b)
		if err != nil {
			return &Result{ID: "complex", Title: "complex graphs", Output: err.Error()}
		}
		w, err := b.Build()
		if err != nil {
			return &Result{ID: "complex", Title: "complex graphs", Output: err.Error()}
		}
		feasible, _ := g.HerlihyFeasible()
		_, out, err := runOne(engine.ProtoAC3WN, w, g, ps, 3*sim.Hour)
		outcome := "FAILED"
		if err == nil && out.Committed() && !out.AtomicityViolated() {
			outcome = "committed atomically"
		} else {
			ok = false
		}
		t.AddRow(tc.name, len(g.Participants), len(g.Edges),
			g.IsCyclic(), g.IsWeaklyConnected(), feasible, outcome)

		// Structural expectations from the paper.
		switch i {
		case 0:
			if !feasible {
				ok = false
			}
		case 1, 2:
			if feasible {
				ok = false // 7a and 7b must be out of the baseline's reach
			}
		}
	}
	t.Note("Nolan's and Herlihy's protocols need a leader whose removal leaves the graph acyclic, and a connected graph")
	t.Note("AC3WN commits any registered graph: the decision lives in SCw, not in the publishing order")
	return &Result{
		ID:     "complex",
		Title:  "cyclic and disconnected AC2T graphs (Figure 7)",
		Output: t.String(),
		OK:     ok,
	}
}
