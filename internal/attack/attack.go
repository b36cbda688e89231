// Package attack implements the witness-network risk analysis of
// Section 6.3: a malicious participant may rent hash power to fork
// the witness blockchain for d blocks and flip the AC2T decision, so
// the confirmation depth d must make the attack cost exceed the value
// at stake — d > Va·dh/Ch. The package provides the analytic bound,
// the crypto51-style cost table the paper cites, the classic
// private-fork success probability (Nakamoto), and a
// double-spend race simulator that checks the analytics by flipping a
// q-weighted coin per block; it never touches the chain implementation.
package attack

import (
	"math"

	"repro/internal/sim"
)

// NetworkCost describes a candidate witness network's attack economics.
type NetworkCost struct {
	Name string
	// HourlyCostUSD is Ch: the cost of renting 51% of the network's
	// hash power for one hour (crypto51.app snapshot as cited by the
	// paper, reference [7]).
	HourlyCostUSD float64
	// BlocksPerHour is dh.
	BlocksPerHour float64
}

// Crypto51Snapshot mirrors the cost table the paper uses: the Bitcoin
// figure ($300K/hour, 6 blocks/hour) appears explicitly in Section
// 6.3; the others are the same source's contemporaneous values for
// the remaining top-market-cap chains of Table 1.
//
//ac3:globalstate read-only snapshot of the paper's published cost table; written once here, never mutated
var Crypto51Snapshot = []NetworkCost{
	{Name: "Bitcoin", HourlyCostUSD: 300_000, BlocksPerHour: 6},
	{Name: "Ethereum", HourlyCostUSD: 100_000, BlocksPerHour: 240},
	{Name: "Litecoin", HourlyCostUSD: 23_000, BlocksPerHour: 24},
	{Name: "Bitcoin Cash", HourlyCostUSD: 8_000, BlocksPerHour: 6},
}

// MinDepth returns the minimum confirmation depth d that makes a
// 51% attack uneconomical for an AC2T holding assetValueUSD:
// the smallest integer d with d > Va·dh/Ch (Section 6.3's
// inequality). The paper's example: Va = $1M on Bitcoin gives
// d > 1M·6/300K = 20, so d = 21.
func MinDepth(assetValueUSD float64, n NetworkCost) int {
	if assetValueUSD <= 0 || n.HourlyCostUSD <= 0 {
		return 1
	}
	bound := assetValueUSD * n.BlocksPerHour / n.HourlyCostUSD
	d := int(math.Floor(bound)) + 1
	if d < 1 {
		d = 1
	}
	return d
}

// AttackCostUSD returns the cost of sustaining a 51% attack for d
// blocks on the network.
func AttackCostUSD(d int, n NetworkCost) float64 {
	if n.BlocksPerHour == 0 {
		return math.Inf(1)
	}
	return float64(d) / n.BlocksPerHour * n.HourlyCostUSD
}

// SuccessProbability returns the probability that an attacker with
// fraction q of the hash power ever catches up from z blocks behind —
// Nakamoto's catch-up analysis (Satoshi's appendix / Rosenfeld). For
// q >= 0.5 the attack always eventually succeeds.
func SuccessProbability(q float64, z int) float64 {
	if q <= 0 {
		return 0
	}
	if q >= 0.5 {
		return 1
	}
	if z <= 0 {
		return 1
	}
	p := 1 - q
	// λ = z·q/p; P = 1 − Σ_{k=0}^{z} Pois(k;λ)·(1 − (q/p)^{z−k})
	lambda := float64(z) * q / p
	sum := 0.0
	poisson := math.Exp(-lambda)
	for k := 0; k <= z; k++ {
		if k > 0 {
			poisson *= lambda / float64(k)
		}
		sum += poisson * (1 - math.Pow(q/p, float64(z-k)))
	}
	pr := 1 - sum
	if pr < 0 {
		return 0
	}
	return pr
}

// RaceResult aggregates a simulated double-spend race campaign.
type RaceResult struct {
	Trials    int
	Successes int
	// Rate is the empirical success fraction.
	Rate float64
}

// SimulateRace runs the witness-fork race as a stochastic simulation
// of the Section 6.3 attack: the decision transaction lands in an
// honest block; the attacker immediately starts mining a private fork
// from that block's parent (pre-mining) while the honest network
// buries the decision under d more blocks; participants then act, and
// the attacker keeps racing until it either overtakes the honest
// chain (erasing the decision) or falls maxLag blocks behind and
// gives up. Each next block is the attacker's with probability q —
// the Bernoulli embedding of two competing Poisson miners.
//
// The result tracks Nakamoto's SuccessProbability(q, d+1) (the
// attacker must erase the decision block itself plus its d burials);
// the witness experiment uses it to show the violation probability ε
// vanishing with d (Lemma 5.3).
func SimulateRace(rng *sim.RNG, q float64, d int, trials int, maxLag int) RaceResult {
	if maxLag <= 0 {
		maxLag = 40
	}
	res := RaceResult{Trials: trials}
	for t := 0; t < trials; t++ {
		// Phase 1: the attacker starts its private fork the moment
		// the decision transaction is broadcast; the honest chain
		// mines the decision block plus d confirmations (d+1 blocks)
		// while the attacker pre-mines in parallel.
		honest, attacker := 0, 0
		for honest < d+1 {
			if rng.Float64() < q {
				attacker++
			} else {
				honest++
			}
		}
		// Phase 2: gambler's-ruin race on the remaining deficit.
		deficit := honest - attacker
		for deficit > 0 && deficit < maxLag {
			if rng.Float64() < q {
				deficit--
			} else {
				deficit++
			}
		}
		if deficit <= 0 {
			res.Successes++
		}
	}
	res.Rate = float64(res.Successes) / float64(res.Trials)
	return res
}
