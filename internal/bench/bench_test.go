package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/contracts"
	"repro/internal/xchain"
)

// The experiment drivers are exercised end to end: each must run its
// real protocol workloads and hold its sanity assertions (OK). These
// are the same entry points cmd/ac3bench and the root benchmarks use.

// golden compares an experiment at seed 42 with
// testdata/<id>.golden — the stdout of `ac3bench -seed 42 -experiment
// <id>`, captured before the experiments' protocol construction and
// run-out tail moved behind shared code, so those moves are checked to
// be byte-invisible.
func golden(t *testing.T, r *Result) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", r.ID+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String() + "\n\n"; got != string(want) {
		t.Errorf("%s differs from testdata/%s.golden:\n%s", r.ID, r.ID, got)
	}
}

func TestFig8(t *testing.T) {
	r := Fig8(42)
	golden(t, r)
	if !r.OK {
		t.Fatalf("fig8 failed:\n%s", r)
	}
	if !strings.Contains(r.Output, "SC5") || !strings.Contains(r.Output, "Δ") {
		t.Fatalf("fig8 output incomplete:\n%s", r.Output)
	}
}

func TestFig9(t *testing.T) {
	r := Fig9(42)
	golden(t, r)
	if !r.OK {
		t.Fatalf("fig9 failed:\n%s", r)
	}
	if !strings.Contains(r.Output, "PARALLEL") {
		t.Fatalf("fig9 output incomplete:\n%s", r.Output)
	}
}

func TestFig10SmallSweep(t *testing.T) {
	r := Fig10(42, 5)
	if !r.OK {
		t.Fatalf("fig10 failed:\n%s", r)
	}
	if !strings.Contains(r.Output, "Herlihy measured") || !strings.Contains(r.Output, "AC3WN measured") {
		t.Fatalf("fig10 output incomplete:\n%s", r.Output)
	}
}

func TestCost(t *testing.T) {
	r := Cost(42)
	golden(t, r)
	if !r.OK {
		t.Fatalf("cost failed:\n%s", r)
	}
	for _, want := range []string{"3d+3c", "1/2 = 0.5", "measured", "analytic"} {
		if !strings.Contains(r.Output, want) {
			t.Fatalf("cost output missing %q:\n%s", want, r.Output)
		}
	}
}

func TestWitnessChoice(t *testing.T) {
	r := WitnessChoice(42)
	golden(t, r)
	if !r.OK {
		t.Fatalf("witness failed:\n%s", r)
	}
	if !strings.Contains(r.Output, "21") { // the paper's d > 20 example
		t.Fatalf("witness output missing the paper example:\n%s", r.Output)
	}
}

func TestTable1(t *testing.T) {
	r := Table1(42)
	golden(t, r)
	if !r.OK {
		t.Fatalf("table1 failed:\n%s", r)
	}
	for _, want := range []string{"Bitcoin", "Ethereum", "Litecoin", "Bitcoin Cash", "min("} {
		if !strings.Contains(r.Output, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, r.Output)
		}
	}
}

func TestAtomicityQuick(t *testing.T) {
	r := Atomicity(42, 2)
	if !r.OK {
		t.Fatalf("atomicity failed:\n%s", r)
	}
	if !strings.Contains(r.Output, "VIOLATIONS") {
		t.Fatalf("atomicity output incomplete:\n%s", r.Output)
	}
}

func TestComplex(t *testing.T) {
	r := Complex(42)
	golden(t, r)
	if !r.OK {
		t.Fatalf("complex failed:\n%s", r)
	}
	if !strings.Contains(r.Output, "committed atomically") {
		t.Fatalf("complex output incomplete:\n%s", r.Output)
	}
}

func TestScale(t *testing.T) {
	r := Scale(42)
	golden(t, r)
	if !r.OK {
		t.Fatalf("scale failed:\n%s", r)
	}
	if !strings.Contains(r.Output, "AC2T/hour") {
		t.Fatalf("scale output incomplete:\n%s", r.Output)
	}
}

func TestEngineLoad(t *testing.T) {
	r := EngineLoad(42)
	if !r.OK {
		t.Fatalf("engine load failed:\n%s", r)
	}
	for _, want := range []string{"shards", "violations", "throughput", "batching", "witness txs/commit"} {
		if !strings.Contains(r.Output, want) {
			t.Fatalf("engine output missing %q:\n%s", want, r.Output)
		}
	}
}

// TestVictimLostIsNotJustAViolation: the atomicity table's last column
// is about the crash victim — bob, who pays on edge 1 and is paid on
// edge 0 — not a second name for VIOLATIONS. The two differ when the
// violation costs alice, and when bob's payment is redeemed against an
// incoming contract that never made it on-chain.
func TestVictimLostIsNotJustAViolation(t *testing.T) {
	const p, rd, rf = contracts.StatePublished, contracts.StateRedeemed, contracts.StateRefunded
	for _, tc := range []struct {
		name               string
		in, paid           contracts.SwapState
		inDeployed         bool
		wantLost, violated bool
	}{
		{"bob paid, his incoming refunded", rf, rd, true, true, true},
		{"bob paid, his incoming never deployed", p, rd, false, true, false},
		{"alice paid, her incoming refunded", rd, rf, true, false, true},
		{"committed", rd, rd, true, false, false},
		{"aborted", rf, rf, true, false, false},
		{"stuck safe", p, p, true, false, false},
	} {
		out := &xchain.Outcome{Edges: []xchain.EdgeOutcome{
			{State: tc.in, Deployed: tc.inDeployed},
			{State: tc.paid, Deployed: true},
		}}
		if got := out.AtomicityViolated(); got != tc.violated {
			t.Errorf("%s: AtomicityViolated = %v, want %v", tc.name, got, tc.violated)
		}
		if got := victimLost(out); got != tc.wantLost {
			t.Errorf("%s: victimLost = %v, want %v", tc.name, got, tc.wantLost)
		}
	}
	if victimLost(&xchain.Outcome{}) {
		t.Error("an ungraded run lost nothing")
	}
}
