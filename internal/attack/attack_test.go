package attack

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestPaperExampleMinDepth(t *testing.T) {
	// Section 6.3: Va=$1M on Bitcoin (Ch=$300K/h, dh=6) requires
	// d > 20, i.e. 21 confirmations.
	btc := Crypto51Snapshot[0]
	if d := MinDepth(1_000_000, btc); d != 21 {
		t.Fatalf("MinDepth($1M, BTC) = %d, want 21", d)
	}
}

func TestMinDepthMonotonicInValue(t *testing.T) {
	btc := Crypto51Snapshot[0]
	prev := 0
	for _, va := range []float64{10_000, 100_000, 1_000_000, 10_000_000} {
		d := MinDepth(va, btc)
		if d < prev {
			t.Fatalf("MinDepth not monotone: %v -> %d after %d", va, d, prev)
		}
		prev = d
	}
	if MinDepth(0, btc) != 1 || MinDepth(-5, btc) != 1 {
		t.Fatal("non-positive value should need depth 1")
	}
}

func TestAttackCostExceedsValueAtMinDepth(t *testing.T) {
	// The defining property of MinDepth: attacking for d blocks costs
	// more than the assets at stake; at d-1 it may not.
	for _, n := range Crypto51Snapshot {
		for _, va := range []float64{5_000, 250_000, 2_000_000} {
			d := MinDepth(va, n)
			if AttackCostUSD(d, n) <= va {
				t.Fatalf("%s: cost(%d)=%.0f <= Va=%.0f", n.Name, d, AttackCostUSD(d, n), va)
			}
		}
	}
}

func TestSuccessProbabilityShape(t *testing.T) {
	// Monotone decreasing in depth, increasing in q; 1 at q>=0.5.
	for _, q := range []float64{0.1, 0.25, 0.4} {
		prev := 1.1
		for z := 1; z <= 12; z++ {
			p := SuccessProbability(q, z)
			if p < 0 || p > 1 {
				t.Fatalf("q=%v z=%d: p=%v out of range", q, z, p)
			}
			if p > prev+1e-12 {
				t.Fatalf("q=%v: probability not decreasing in depth", q)
			}
			prev = p
		}
	}
	if SuccessProbability(0.51, 100) != 1 {
		t.Fatal("majority attacker must always succeed")
	}
	if SuccessProbability(0, 1) != 0 {
		t.Fatal("powerless attacker must never succeed")
	}
	if SuccessProbability(0.3, 0) != 1 {
		t.Fatal("zero confirmations cannot protect")
	}
	// Nakamoto's table: q=0.1, z=6 → ≈0.0002 (paper's 6-block rule).
	if p := SuccessProbability(0.1, 6); math.Abs(p-0.0002) > 0.0002 {
		t.Fatalf("q=0.1 z=6: p=%v, want ≈0.0002", p)
	}
}

func TestSimulatedRaceMatchesAnalytic(t *testing.T) {
	rng := sim.NewRNG(12345)
	for _, tc := range []struct {
		q float64
		d int
	}{
		{0.20, 2},
		{0.30, 4},
		{0.40, 6},
	} {
		res := SimulateRace(rng, tc.q, tc.d, 200_000, 160)
		exact := successProbabilityExact(tc.q, tc.d+1)
		// The simulator implements the exact race (the attacker must
		// orphan the decision block plus its d burials, z = d+1).
		if math.Abs(res.Rate-exact) > 0.005+exact*0.05 {
			t.Fatalf("q=%v d=%d: simulated %.4f, exact %.4f", tc.q, tc.d, res.Rate, exact)
		}
		// Nakamoto's Poisson approximation tracks the exact value
		// closely at these depths (it diverges only in deep tails).
		nak := SuccessProbability(tc.q, tc.d+1)
		if math.Abs(nak-exact) > 0.02+exact*0.2 {
			t.Fatalf("q=%v d=%d: Nakamoto %.4f far from exact %.4f", tc.q, tc.d, nak, exact)
		}
	}
}

func TestRaceVanishesWithDepth(t *testing.T) {
	// Lemma 5.3's ε: at fixed attacker power, deeper confirmation
	// drives the success rate toward zero.
	rng := sim.NewRNG(777)
	prev := 1.1
	for _, d := range []int{0, 2, 4, 8} {
		r := SimulateRace(rng, 0.3, d, 100_000, 80)
		if r.Rate > prev+0.01 {
			t.Fatalf("success rate not shrinking: d=%d rate=%v prev=%v", d, r.Rate, prev)
		}
		prev = r.Rate
	}
	// At depth 24 a 30% attacker succeeds well below 1% of the time;
	// the exact (Rosenfeld) probability is the reference.
	deep := SimulateRace(rng, 0.3, 24, 200_000, 160)
	exact := successProbabilityExact(0.3, 25)
	if deep.Rate > 0.01 {
		t.Fatalf("24-deep confirmation still attacked at rate %v (exact %v)", deep.Rate, exact)
	}
	if math.Abs(deep.Rate-exact) > 0.001+exact*0.35 {
		t.Fatalf("simulated %v too far from exact %v", deep.Rate, exact)
	}
}

func TestMajorityAttackerAlwaysWinsRace(t *testing.T) {
	rng := sim.NewRNG(42)
	r := SimulateRace(rng, 0.6, 6, 5_000, 400)
	if r.Rate < 0.99 {
		t.Fatalf("majority attacker succeeded only %v", r.Rate)
	}
}

func TestCrypto51SnapshotSane(t *testing.T) {
	if len(Crypto51Snapshot) != 4 {
		t.Fatal("expected the top-4 networks")
	}
	for _, n := range Crypto51Snapshot {
		if n.HourlyCostUSD <= 0 || n.BlocksPerHour <= 0 || n.Name == "" {
			t.Fatalf("bad entry %+v", n)
		}
	}
	// Attacking Bitcoin must cost more per block than Bitcoin Cash —
	// the reason witness choice matters.
	btc, bch := Crypto51Snapshot[0], Crypto51Snapshot[3]
	if AttackCostUSD(6, btc) <= AttackCostUSD(6, bch) {
		t.Fatal("cost ordering violated")
	}
}

// successProbabilityExact is the reference SimulateRace is tested
// against: the exact double-spend success probability under the race
// model (Rosenfeld's analysis). While the
// honest chain mines its z blocks, the attacker's progress k follows
// a negative-binomial distribution (each block is the attacker's with
// probability q), after which it must close the remaining z−k gap —
// a gambler's ruin with per-step success q. Nakamoto's formula
// (SuccessProbability) approximates the same quantity with a Poisson
// and undershoots in the deep tail; the race simulator matches this
// exact form.
func successProbabilityExact(q float64, z int) float64 {
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
	// P(k attacker blocks while honest mines z) = C(z+k-1, k) p^z q^k.
	// Work in log space: p^z underflows for the thousand-block depths
	// Section 6.3's inequality produces on high-rate chains.
	logNB := float64(z) * math.Log(p) // k = 0 term
	logRatio := math.Log(q / p)
	success := 0.0
	total := 0.0
	for k := 0; k <= z; k++ {
		if k > 0 {
			logNB += math.Log(q) + math.Log(float64(z+k-1)/float64(k))
		}
		total += math.Exp(logNB)
		success += math.Exp(logNB + float64(z-k)*logRatio)
	}
	// Remaining mass (k > z): attacker is already ahead, success
	// certain. total can exceed 1 by rounding; clamp.
	if rest := 1 - total; rest > 0 {
		success += rest
	}
	if success < 0 {
		return 0
	}
	if success > 1 {
		return 1
	}
	return success
}
