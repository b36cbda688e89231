package bench

import (
	"fmt"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// fig8Shape is the 5-contract, Diam(D)=3 AC2T of Figure 8:
// SC1 = A→B, then the parallel bundle SC2 = B→C and SC3 = B→D, then
// SC4 = C→A and SC5 = D→A closing both cycles. Every participant
// both gives and receives (a well-formed swap); the single-leader
// protocol deploys it in 3 sequential layers and redeems in 3 more,
// with SC2/SC3 (and SC4/SC5) in parallel inside their layers —
// exactly Figure 8's mix of parallel contracts within a sequential
// critical path.
func fig8Shape(seed uint64) engine.Shape {
	const A, B, C, D = 0, 1, 2, 3
	return engine.Shape{
		Parties:   []string{"A", "B", "C", "D"},
		Chains:    []chain.ID{"c1", "c2", "c3", "c4", "c5", "witness"},
		Funds:     [][]chain.ID{A: {"c1"}, B: {"c2", "c3"}, C: {"c4"}, D: {"c5"}},
		Timestamp: int64(seed),
		Edges: []engine.Transfer{
			{From: A, To: B, Asset: 10_000, Chain: "c1"}, // SC1
			{From: B, To: C, Asset: 10_000, Chain: "c2"}, // SC2
			{From: B, To: D, Asset: 10_000, Chain: "c3"}, // SC3
			{From: C, To: A, Asset: 10_000, Chain: "c4"}, // SC4
			{From: D, To: A, Asset: 10_000, Chain: "c5"}, // SC5
		},
	}
}

// fig8 reproduces Figure 8: the phase timeline of Herlihy's
// single-leader protocol on the 5-contract graph — sequential
// deployment then sequential redemption, 2·Δ·Diam(D) total.
func fig8(seed uint64) (string, bool, error) {
	lab, err := runOne(seed, fig8Shape(seed), engine.ProtoHTLC, engine.ScenarioCommit, 0, 4*sim.Hour)
	if err != nil {
		return "", false, err
	}
	out, diam := lab.Outcome, lab.Graph.Diameter()

	tl := &metrics.Timeline{Title: fmt.Sprintf("Figure 8 — single-leader swap timeline (Diam(D)=%d, 5 contracts), time in Δ", diam), Unit: "Δ"}
	for _, ev := range lab.Runner.Events() {
		label := ev.Label
		if ev.Edge >= 0 {
			label = fmt.Sprintf("SC%d %s", ev.Edge+1, ev.Label)
		}
		tl.Add(inDeltas(ev.At-out.Start), label)
	}
	measured := inDeltas(out.Latency())
	analytic := float64(2 * diam)
	summary := fmt.Sprintf(
		"committed=%v  measured latency = %.2fΔ   paper analysis = 2·Δ·Diam(D) = %.0fΔ\n"+
			"(measured exceeds the bound slightly: confirmation polling and block quantization)",
		out.Committed(), measured, analytic)

	ok := out.Committed() && measured >= analytic*0.7 && measured <= analytic*1.8
	return section(tl.String(), summary), ok, nil
}

// fig9 reproduces Figure 9: AC3WN's four-phase timeline on the same
// graph — SCw deployment, parallel contract deployment, SCw state
// change, parallel redemption: 4·Δ total, independent of Diam(D).
func fig9(seed uint64) (string, bool, error) {
	lab, err := runOne(seed, fig8Shape(seed), engine.ProtoAC3WN, engine.ScenarioCommit, 0, 4*sim.Hour)
	if err != nil {
		return "", false, err
	}
	out := lab.Outcome
	run := lab.Runner.(*core.Run) // Figure 9's phase boundaries are AC3WN's own

	tl := &metrics.Timeline{Title: "Figure 9 — AC3WN timeline (same 5-contract graph), time in Δ", Unit: "Δ"}
	start := out.Start
	tl.Add(0, "phase 1: SCw deployment begins")
	tl.Add(inDeltas(run.SCwConfirmedAt-start), "phase 2: SCw confirmed; all contracts deploy IN PARALLEL")
	tl.Add(inDeltas(run.AllDeployedAt-start), "phase 3: all contracts confirmed; state change submitted")
	tl.Add(inDeltas(run.DecidedAt-start), "phase 4: decision stable at depth d; parallel redemption")
	tl.Add(inDeltas(run.CompletedAt-start), "all contracts redeemed")
	for _, ev := range run.Events() {
		if ev.Edge >= 0 {
			tl.Add(inDeltas(ev.At-start), fmt.Sprintf("SC%d %s", ev.Edge+1, ev.Label))
		}
	}

	measured := inDeltas(run.CompletedAt - start)
	summary := fmt.Sprintf(
		"committed=%v  measured latency = %.2fΔ   paper analysis = 4·Δ (constant in Diam(D)=%d)",
		out.Committed(), measured, lab.Graph.Diameter())
	ok := out.Committed() && measured >= 3 && measured <= 7
	return section(tl.String(), summary), ok, nil
}

// fig10 reproduces Figure 10: AC2T latency in Δs as the graph
// diameter grows — the paper's headline comparison. Herlihy grows as
// 2·Diam(D); AC3WN stays flat around 4. Each point averages several
// seeded runs (confirmation times on Poisson chains are noisy).
func fig10(seed uint64, maxDiam int) (string, bool, error) {
	const samples = 3
	fig := metrics.NewFigure("Figure 10 — AC2T latency vs graph diameter", "Diam(D)", "latency (Δ)")
	analyticH := fig.AddSeries("Herlihy analytic 2·Diam")
	measuredH := fig.AddSeries("Herlihy measured")
	analyticW := fig.AddSeries("AC3WN analytic 4")
	measuredW := fig.AddSeries("AC3WN measured")

	okShape := true
	var hx, hy, wx, wy []float64
	for diam := 2; diam <= maxDiam; diam++ {
		x := float64(diam)
		analyticH.Add(x, float64(2*diam))
		analyticW.Add(x, 4)

		var hSum, wSum float64
		hn, wn := 0, 0
		for s := 0; s < samples; s++ {
			// Herlihy on an n-ring (Diam = n).
			labH, err := ringRun(seed+uint64(diam)*17+uint64(s)*1009, diam, engine.ProtoHTLC, sim.Time(diam+4)*sim.Hour)
			if err != nil {
				return "", false, err
			}
			if labH.Outcome.Committed() {
				hSum += inDeltas(labH.Outcome.Latency())
				hn++
			}

			// AC3WN on the same shape.
			labW, err := ringRun(seed+uint64(diam)*31+uint64(s)*2003, diam, engine.ProtoAC3WN, 2*sim.Hour)
			if err != nil {
				return "", false, err
			}
			if labW.Outcome.Committed() {
				wSum += inDeltas(labW.Outcome.Latency())
				wn++
			}
		}
		if hn == 0 || wn == 0 {
			okShape = false
			continue
		}
		hMean, wMean := hSum/float64(hn), wSum/float64(wn)
		measuredH.Add(x, hMean)
		measuredW.Add(x, wMean)
		hx, hy = append(hx, x), append(hy, hMean)
		wx, wy = append(wx, x), append(wy, wMean)
		// AC3WN must beat the baseline pointwise beyond the smallest
		// graphs.
		if diam >= 3 && wMean >= hMean {
			okShape = false
		}
	}

	// Shape assertions via least-squares slopes: the baseline grows
	// ~2Δ per diameter unit, AC3WN stays flat.
	hSlope := slope(hx, hy)
	wSlope := slope(wx, wy)
	if hSlope < 1.0 || wSlope > 0.5 || wSlope < -0.5 {
		okShape = false
	}
	summary := fmt.Sprintf(
		"shape: measured slopes — Herlihy %.2f Δ per diameter unit (analytic 2), AC3WN %.2f (analytic 0)\n"+
			"crossover: AC3WN wins for every Diam ≥ 3, and the gap widens linearly — the paper's Figure 10.",
		hSlope, wSlope)
	return section(fig.String(), summary), okShape, nil
}

// slope returns the least-squares slope of y on x.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
