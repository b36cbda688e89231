package bench

import (
	"repro/internal/chain"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// complexGraphs reproduces Section 5.3 / Figure 7: AC2T graphs that the
// single-leader baseline structurally cannot execute — cyclic graphs
// that stay cyclic after removing any vertex (7a) and disconnected
// graphs (7b) — commit atomically under AC3WN.
func complexGraphs(seed uint64) (string, bool, error) {
	t := metrics.NewTable("Section 5.3 — complex AC2T graphs (Figure 7)",
		"graph", "|V|", "|E|", "cyclic", "connected", "single-leader feasible", "AC3WN outcome")
	ok := true

	cases := []struct {
		name     string
		shape    engine.Shape
		feasible bool // the structural expectation from the paper
	}{
		{"two-party swap (Figure 4)", engine.Pair(int64(seed), 10_000, "c0", 10_000, "c1", "witness"), true},
		{"cyclic, no feasible leader (Figure 7a)", engine.Shape{
			Parties:   []string{"p0", "p1", "p2"},
			Chains:    []chain.ID{"c0", "c1", "c2", "witness"},
			Funds:     [][]chain.ID{{"c0", "c1"}, {"c1", "c2"}, {"c2", "c0"}},
			Timestamp: int64(seed),
			Edges: []engine.Transfer{
				{From: 0, To: 1, Asset: 1_000, Chain: "c0"},
				{From: 1, To: 2, Asset: 1_000, Chain: "c1"},
				{From: 2, To: 0, Asset: 1_000, Chain: "c2"},
				{From: 0, To: 2, Asset: 1_000, Chain: "c1"},
				{From: 2, To: 1, Asset: 1_000, Chain: "c0"},
				{From: 1, To: 0, Asset: 1_000, Chain: "c2"},
			},
		}, false},
		{"disconnected pairs (Figure 7b)", engine.Shape{
			Parties:   []string{"p0", "p1", "p2", "p3"},
			Chains:    []chain.ID{"c0", "c1", "c2", "c3", "witness"},
			Funds:     [][]chain.ID{{"c0"}, {"c1"}, {"c2"}, {"c3"}},
			Timestamp: int64(seed),
			Edges: []engine.Transfer{
				{From: 0, To: 1, Asset: 1_000, Chain: "c0"},
				{From: 1, To: 0, Asset: 1_000, Chain: "c1"},
				{From: 2, To: 3, Asset: 1_000, Chain: "c2"},
				{From: 3, To: 2, Asset: 1_000, Chain: "c3"},
			},
		}, false},
	}

	for i, tc := range cases {
		lab, err := runOne(seed+uint64(i)*37, tc.shape, engine.ProtoAC3WN, engine.ScenarioCommit, 0, 3*sim.Hour)
		if err != nil {
			return "", false, err
		}
		g, out := lab.Graph, lab.Outcome
		feasible, _ := g.HerlihyFeasible()
		outcome := "FAILED"
		if out.Committed() && !out.AtomicityViolated() {
			outcome = "committed atomically"
		} else {
			ok = false
		}
		t.AddRow(tc.name, len(g.Participants), len(g.Edges),
			g.IsCyclic(), g.IsWeaklyConnected(), feasible, outcome)
		// 7a and 7b must be out of the baseline's reach, Figure 4 within.
		if feasible != tc.feasible {
			ok = false
		}
	}
	t.Note("Nolan's and Herlihy's protocols need a leader whose removal leaves the graph acyclic, and a connected graph")
	t.Note("AC3WN commits any registered graph: the decision lives in SCw, not in the publishing order")
	return t.String(), ok, nil
}
