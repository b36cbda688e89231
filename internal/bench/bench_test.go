package bench

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/contracts"
	"repro/internal/engine"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// The experiment drivers are exercised end to end through the table
// cmd/ac3bench and the root benchmarks loop over: each must run its real
// protocol workloads, hold its sanity assertions (OK) and print what
// testdata/<id>.golden holds — the stdout of `ac3bench -seed 42
// -experiment <id>`, captured before the experiments moved behind
// engine.RunOne (fig8, fig9, cost, complex, scale, witness, table1 in PR
// 17; fig10 and atomicity from this PR's parent, at the widths below),
// so that move is checked to be byte-invisible. engine.golden was taken
// when the table lost its two host-dependent columns (ADR-019).
var experimentChecks = map[string]struct {
	// run, when set, replaces the table's Run with a narrower sweep.
	run  func(seed uint64) (string, bool, error)
	want []string
}{
	"fig8":  {want: []string{"SC5", "Δ"}},
	"fig9":  {want: []string{"PARALLEL"}},
	"fig10": {run: func(seed uint64) (string, bool, error) { return fig10(seed, 5) }, want: []string{"Herlihy measured", "AC3WN measured"}},
	"cost":  {want: []string{"3d+3c", "1/2 = 0.5", "measured", "analytic"}},
	// 21: the paper's d > 20 example.
	"witness":   {want: []string{"21"}},
	"table1":    {want: []string{"Bitcoin", "Ethereum", "Litecoin", "Bitcoin Cash", "min("}},
	"atomicity": {run: func(seed uint64) (string, bool, error) { return atomicity(seed, 2) }, want: []string{"VIOLATIONS"}},
	"complex":   {want: []string{"committed atomically"}},
	"scale":     {want: []string{"AC2T/hour"}},
	"engine":    {want: []string{"shards", "violations", "throughput", "batching", "witness txs/commit"}},
}

func checkExperiment(t *testing.T, id string) {
	t.Helper()
	i := slices.IndexFunc(Experiments, func(e Experiment) bool { return e.ID == id })
	if i < 0 {
		t.Fatalf("no experiment %q in the table", id)
	}
	e, check := Experiments[i], experimentChecks[id]
	if check.run != nil {
		e.Run = check.run
	}
	r := e.Result(42)
	want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String() + "\n\n"; got != string(want) {
		t.Errorf("%s differs from testdata/%s.golden:\n%s", id, id, got)
	}
	if !r.OK {
		t.Fatalf("%s failed:\n%s", id, r)
	}
	for _, w := range check.want {
		if !strings.Contains(r.Output, w) {
			t.Fatalf("%s output missing %q:\n%s", id, w, r.Output)
		}
	}
}

// One name per experiment, so each can be run and reported alone.
func TestFig8(t *testing.T)            { checkExperiment(t, "fig8") }
func TestFig9(t *testing.T)            { checkExperiment(t, "fig9") }
func TestFig10SmallSweep(t *testing.T) { checkExperiment(t, "fig10") }
func TestCost(t *testing.T)            { checkExperiment(t, "cost") }
func TestWitnessChoice(t *testing.T)   { checkExperiment(t, "witness") }
func TestTable1(t *testing.T)          { checkExperiment(t, "table1") }
func TestAtomicityQuick(t *testing.T)  { checkExperiment(t, "atomicity") }
func TestComplex(t *testing.T)         { checkExperiment(t, "complex") }
func TestScale(t *testing.T)           { checkExperiment(t, "scale") }
func TestEngineLoad(t *testing.T)      { checkExperiment(t, "engine") }

// TestEveryExperimentIsChecked: a row added to the table without a
// golden and a check here fails.
func TestEveryExperimentIsChecked(t *testing.T) {
	for _, e := range Experiments {
		if _, ok := experimentChecks[e.ID]; !ok {
			t.Errorf("experiment %q has no entry in experimentChecks", e.ID)
		}
	}
	if len(experimentChecks) != len(Experiments) {
		t.Errorf("%d checks for %d experiments", len(experimentChecks), len(Experiments))
	}
}

// TestBuildFailureIsTheExperimentsError: a world, graph or runner that
// cannot be stood up is the experiment's error — a [FAILED] result
// carrying the message, exit 1 from ac3bench — not a "stuck-safe" row
// or a silently dropped sample.
func TestBuildFailureIsTheExperimentsError(t *testing.T) {
	unfunded := engine.Pair(42, 40_000, "bitcoin", 90_000, "ethereum")
	unfunded.Funds = unfunded.Funds[:1] // bob owns nothing on ethereum
	for _, tc := range []struct {
		name, want string
		run        func(uint64) (string, bool, error)
	}{
		{"atomicity, unknown protocol", `unknown protocol "nolan"`, func(seed uint64) (string, bool, error) {
			return atomicityOver(seed, 1, []atomicityScenario{{"nolan", "nolan", engine.ScenarioCrash, false}})
		}},
		{"fig10's ring, unknown protocol", `unknown protocol "nolan"`, func(seed uint64) (string, bool, error) {
			_, err := ringRun(seed, 3, "nolan", sim.Hour)
			return "a row", true, err
		}},
		{"unfunded party", "edge 1: bob has no funds on ethereum", func(seed uint64) (string, bool, error) {
			_, err := runOne(seed, unfunded, engine.ProtoHTLC, engine.ScenarioCommit, 0, sim.Hour)
			return "a row", true, err
		}},
	} {
		r := Experiment{ID: "x", Title: tc.name, Run: tc.run}.Result(42)
		if r.OK || r.Output != "engine: "+tc.want || !strings.Contains(r.String(), "[FAILED]") {
			t.Errorf("result %s, want FAILED with exactly the error %q", r, tc.want)
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
