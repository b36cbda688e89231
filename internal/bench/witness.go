package bench

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// witnessChoice reproduces Section 6.3: choosing the witness network.
// For each candidate network and asset value Va, the minimum
// confirmation depth d satisfying d > Va·dh/Ch, the resulting attack
// cost, and — validating Lemma 5.3's ε — the simulated and analytic
// success probability of a fork attack at several depths.
func witnessChoice(seed uint64) (string, bool, error) {
	ok := true

	// Part 1: minimum safe depth per (network, Va).
	t1 := metrics.NewTable("Section 6.3 — minimum confirmation depth d > Va·dh/Ch",
		"Witness network", "Ch ($/hour)", "dh (blocks/h)", "Va=$10K", "Va=$100K", "Va=$1M", "Va=$10M")
	for _, n := range attack.Crypto51Snapshot {
		row := []any{n.Name, fmt.Sprintf("%.0f", n.HourlyCostUSD), n.BlocksPerHour}
		for _, va := range []float64{10_000, 100_000, 1_000_000, 10_000_000} {
			d := attack.MinDepth(va, n)
			row = append(row, d)
			if attack.AttackCostUSD(d, n) <= va {
				ok = false // the defining inequality must hold
			}
		}
		t1.AddRow(row...)
	}
	t1.Note("paper's example: Va=$1M witnessed by Bitcoin (Ch=$300K, dh=6) ⇒ d > 20")
	// The paper's exact example.
	if d := attack.MinDepth(1_000_000, attack.Crypto51Snapshot[0]); d != 21 {
		ok = false
	}

	// Part 2: fork-attack success probability vs depth — simulated
	// double-spend race against the analytic Nakamoto bound.
	fig := metrics.NewFigure("Fork-attack success probability vs confirmation depth d", "d", "P(success)")
	rng := sim.NewRNG(seed) //ac3:globalrand bench drivers are seed roots: the experiment's seed parameter IS the run seed
	for _, q := range []float64{0.10, 0.25, 0.40} {
		simSeries := fig.AddSeries(fmt.Sprintf("simulated q=%.2f", q))
		anaSeries := fig.AddSeries(fmt.Sprintf("analytic q=%.2f", q))
		for _, d := range []int{0, 1, 2, 4, 6, 8, 12} {
			res := attack.SimulateRace(rng, q, d, 60_000, 120)
			simSeries.Add(float64(d), res.Rate)
			anaSeries.Add(float64(d), attack.SuccessProbability(q, d+1))
			if d >= 6 && q <= 0.11 && res.Rate > 0.002 {
				ok = false // ε must be negligible at the Bitcoin rule of thumb
			}
		}
	}

	summary := "ε (Lemma 5.3) vanishes with depth: at d=6 a 10% attacker wins <0.1% of races;\n" +
		"economic safety additionally requires d > Va·dh/Ch so renting 51% costs more than the assets at stake."
	return section(t1.String(), fig.String(), summary), ok, nil
}
