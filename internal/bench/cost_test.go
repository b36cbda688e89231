package bench

import (
	"math"
	"testing"
)

func TestHerlihyVsAC3WNOperationCounts(t *testing.T) {
	// Cost() asserts the measured counts themselves (N+N vs (N+1)+(N+1));
	// priced, their relative overhead is exactly 1/N.
	for _, n := range []int{2, 4, 8, 16, 32} {
		h := ScheduleETH300.Price(n, n)
		a := ScheduleETH300.Price(n+1, n+1)
		if rel := (a - h) / h; math.Abs(rel-Overhead(n)) > 1e-12 {
			t.Fatalf("n=%d: overhead %v, want %v", n, rel, Overhead(n))
		}
	}
}

func TestPaperDollarFigures(t *testing.T) {
	// Section 6.2: deploying an SCw-like contract costs ≈$4 at
	// $300/ETH and ≈$2 at $140/ETH.
	if got := ScheduleETH300.Price(1, 0); got != 4 {
		t.Fatalf("deploy at $300/ETH = $%v, want $4", got)
	}
	if got := ScheduleETH140.Price(1, 0); got != 2 {
		t.Fatalf("deploy at $140/ETH = $%v, want $2", got)
	}
	// The conclusion's "$25 combined per AC2T" order of magnitude:
	// a 2-edge AC2T under AC3WN costs (N+1)(fd+ffc) = 3·$8 = $24 at
	// the $300 rate.
	if got := ScheduleETH300.Price(3, 3); got != 24 {
		t.Fatalf("two-party AC3WN cost = $%v, want $24", got)
	}
}

func TestOverheadEdgeCases(t *testing.T) {
	if Overhead(0) != 0 {
		t.Fatal("overhead(0) should be 0")
	}
	if Overhead(1) != 1 {
		t.Fatal("overhead(1) should be 1")
	}
}

func TestMeasuredCostAndString(t *testing.T) {
	c := MeasuredCost(ScheduleETH140, "AC3WN", 3, 3)
	if c.USD != 12 {
		t.Fatalf("measured = $%v", c.USD)
	}
	if c.String() == "" {
		t.Fatal("empty string rendering")
	}
}
