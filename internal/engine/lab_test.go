package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestRunOneIsAFunctionOfItsArguments: the same (seed, shape, protocol,
// scenario row, recovery time) yields the same grade, timeline and
// narration, run after run — what lets a sweep call RunOne at every
// fault point and compare (ROADMAP item 3(b)) — and the schedule does
// what it says: the crash strikes the protocol's critical failure
// point, the recovery happens at recoverAt, and nothing is recovered
// that never crashed.
func TestRunOneIsAFunctionOfItsArguments(t *testing.T) {
	spec := AC2T{Witness: "witness", Depth: 2, TrentSeed: 9, TrentLatency: 100 * sim.Millisecond}
	for _, tc := range []struct {
		name        string
		proto       Protocol
		shape       Shape
		sc          Scenario
		recoverAt   sim.Time
		wantCrashed string
		check       func(*xchain.Outcome) bool
	}{
		{"htlc ring, no faults", ProtoHTLC, Ring(5, 3, []chain.ID{"a", "b"}), ScenarioCommit, 0, "", (*xchain.Outcome).Committed},
		{"recover with nothing crashed", ProtoAC3WN, Pair(6, 10, "a", 20, "b", "witness"), ScenarioCommit, sim.Hour, "", (*xchain.Outcome).Committed},
		{"htlc crash", ProtoHTLC, Pair(7, 10, "a", 20, "b"), ScenarioCrash, 0, "bob", (*xchain.Outcome).AtomicityViolated},
		{"ac3wn crash", ProtoAC3WN, Pair(8, 10, "a", 20, "b", "witness"), ScenarioCrash, 0, "bob",
			func(o *xchain.Outcome) bool { return !o.Committed() && !o.Aborted() && !o.AtomicityViolated() }},
		{"ac3wn crash and recover", ProtoAC3WN, Pair(8, 10, "a", 20, "b", "witness"), ScenarioCrash, sim.Hour, "bob", (*xchain.Outcome).Committed},
		{"ac3tw crash and recover", ProtoAC3TW, Ring(9, 3, []chain.ID{"a"}), ScenarioCrash, sim.Hour, "Trent", (*xchain.Outcome).Committed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*Lab, []string) {
				lab, err := RunOne(77, tc.shape, tc.proto, spec, tc.sc, tc.recoverAt, 2*sim.Hour)
				if err != nil {
					t.Fatal(err)
				}
				told := []string{"started " + lab.Graph.String()}
				if lab.Crashed != "" {
					told = append(told, fmt.Sprintf("crashed %s at %d", lab.Crashed, lab.CrashedAt))
				}
				if lab.RecoveredAt > 0 {
					told = append(told, fmt.Sprintf("recovered %s at %d", lab.Crashed, lab.RecoveredAt))
				}
				return lab, told
			}
			a, toldA := run()
			b, toldB := run()
			if !reflect.DeepEqual(a.Outcome, b.Outcome) {
				t.Errorf("outcomes differ:\n%+v\n%+v", a.Outcome, b.Outcome)
			}
			if ea, eb := a.Runner.Events(), b.Runner.Events(); !reflect.DeepEqual(ea, eb) || len(ea) == 0 {
				t.Errorf("timelines differ (or are empty):\n%v\n%v", ea, eb)
			}
			if !reflect.DeepEqual(toldA, toldB) {
				t.Errorf("narration differs:\n%v\n%v", toldA, toldB)
			}

			want := []string{"started " + a.Graph.String()}
			if tc.wantCrashed != "" {
				want = append(want, "crashed "+tc.wantCrashed)
				if tc.recoverAt > 0 {
					want = append(want, fmt.Sprintf("recovered %s at %d", tc.wantCrashed, tc.recoverAt))
				}
			}
			if len(toldA) != len(want) {
				t.Fatalf("narration %v, want %v", toldA, want)
			}
			for i := range want {
				if !strings.HasPrefix(toldA[i], want[i]) {
					t.Errorf("narration[%d] = %q, want prefix %q", i, toldA[i], want[i])
				}
			}
			if !tc.check(a.Outcome) {
				t.Errorf("outcome %+v is not what the schedule predicts", a.Outcome.Edges)
			}
			if a.World.Sim.Now() != 2*sim.Hour+sim.Minute {
				t.Errorf("run ended at %d, want the deadline plus the drain minute", a.World.Sim.Now())
			}
		})
	}
}

// TestRunOneBuildErrors: a shape, graph, protocol or scenario that
// cannot be stood up is RunOne's error, named, and nothing runs.
func TestRunOneBuildErrors(t *testing.T) {
	pair := func(edit func(*Shape)) Shape {
		sh := Pair(1, 10, "a", 20, "b", "witness")
		edit(&sh)
		return sh
	}
	for _, tc := range []struct {
		name, want string
		proto      Protocol
		shape      Shape
	}{
		{"unknown protocol", `unknown protocol "2pc"`, "2pc", pair(func(*Shape) {})},
		{"unfunded party", "edge 1: bob has no funds on b", ProtoAC3WN, pair(func(sh *Shape) { sh.Funds = sh.Funds[:1] })},
		{"funded on a chain sent on elsewhere", "edge 0: alice has no funds on a", ProtoAC3WN, pair(func(sh *Shape) { sh.Funds[0] = []chain.ID{"b"} })},
		{"funded on an unlisted chain", "alice is funded on c, which the shape does not list", ProtoAC3WN, pair(func(sh *Shape) { sh.Funds[0] = []chain.ID{"a", "c"} })},
		{"no edges", "graph: no edges", ProtoHTLC, pair(func(sh *Shape) { sh.Edges = nil })},
		{"self-transfer", "graph: edge 0 is a self-transfer", ProtoHTLC, pair(func(sh *Shape) { sh.Edges[0].To = 0 })},
		{"sender out of range", "edge 1 runs from party 2 to 0, but the shape lists 2", ProtoAC3WN, pair(func(sh *Shape) { sh.Edges[1].From = 2 })},
		{"recipient out of range", "edge 0 runs from party 0 to 5, but the shape lists 2", ProtoAC3WN, pair(func(sh *Shape) { sh.Edges[0].To = 5 })},
		{"negative index", "edge 0 runs from party -1 to 1, but the shape lists 2", ProtoAC3WN, pair(func(sh *Shape) { sh.Edges[0].From = -1 })},
		{"more funds than parties", "3 parties are funded, but the shape lists 2", ProtoAC3WN, pair(func(sh *Shape) { sh.Funds = append(sh.Funds, []chain.ID{"a"}) })},
		{"capped an unlisted chain", "c is capped, but the shape does not list it", ProtoAC3WN, pair(func(sh *Shape) { sh.MaxBlockTxs = map[chain.ID]int{"a": 1, "c": 1} })},
	} {
		lab, err := RunOne(1, tc.shape, tc.proto, AC2T{Witness: "witness", Depth: 2}, ScenarioCommit, 0, sim.Hour)
		if err == nil || !strings.Contains(err.Error(), tc.want) || lab != nil {
			t.Errorf("%s: lab %v, error %v; want only an error containing %q", tc.name, lab, err, tc.want)
		}
	}
	const want = `unknown scenario "byzantine"`
	if lab, err := RunOne(1, pair(func(*Shape) {}), ProtoAC3WN, AC2T{Witness: "witness", Depth: 2}, "byzantine", 0, sim.Hour); err == nil || !strings.Contains(err.Error(), want) || lab != nil {
		t.Errorf("unknown scenario: lab %v, error %v; want only an error containing %q", lab, err, want)
	}
}

// TestEveryRowRunsThroughRunOne arms every row of the scenario table
// through RunOne on one two-party shape. Under AC3WN, with the crash
// victim brought back, no row violates atomicity, and each grades into
// the outcome class the engine's by_scenario row reports for AC3WN at
// seed 42 (the race row's rogue refund wins there). Under HTLC the crash
// row without a recovery violates atomicity (Section 1). Only the lossy
// and partition rows drop messages, and geo skews the chains in edge
// order.
func TestEveryRowRunsThroughRunOne(t *testing.T) {
	sh := Pair(3, 10, "b", 20, "a", "witness") // edge order is not sorted order
	spec := AC2T{Witness: "witness", Depth: 2}
	class := func(o *xchain.Outcome) string {
		switch {
		case o.AtomicityViolated():
			return "violated"
		case o.Committed():
			return "committed"
		case o.Aborted():
			return "aborted"
		}
		return "stuck"
	}
	want := map[Scenario]string{
		ScenarioCommit: "committed", ScenarioAbort: "aborted", ScenarioCrash: "committed", ScenarioRace: "aborted",
		ScenarioPartition: "committed", ScenarioLossy: "committed", ScenarioGeo: "committed",
	}
	if len(want) != len(scenarios) {
		t.Fatalf("%d classes for %d rows; update this test's expectations with the table", len(want), len(scenarios))
	}
	for _, row := range scenarios {
		lab, err := RunOne(5, sh, ProtoAC3WN, spec, row.name, sim.Hour, 2*sim.Hour)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if got := class(lab.Outcome); got != want[row.name] {
			t.Errorf("ac3wn %s: %s (%+v), want %s", row.name, got, lab.Outcome.Edges, want[row.name])
		}
		if (lab.Crashed != "") != (row.name == ScenarioCrash) || (lab.RecoveredAt != 0) != (row.name == ScenarioCrash) {
			t.Errorf("ac3wn %s: crashed %q, recovered at %d", row.name, lab.Crashed, lab.RecoveredAt)
		}
		var dropped uint64
		for _, id := range sh.Chains {
			dropped += lab.World.Net(id).MsgsDropped()
		}
		if (dropped > 0) != (row.name == ScenarioLossy || row.name == ScenarioPartition) {
			t.Errorf("ac3wn %s: %d messages dropped", row.name, dropped)
		}
		// RunOne runs no lifts, so the geo row's overlays are still on:
		// GEO on the first chain in edge order, WAN on the second.
		first, second := lab.World.Net("b").P2P.Effective().Base, lab.World.Net("a").P2P.Effective().Base
		if row.name == ScenarioGeo && (first != 800 || second != 150) {
			t.Errorf("geo: base latency %d on b, %d on a; want 800 on the first edge's chain, 150 on the second", first, second)
		}
	}
	lab, err := RunOne(5, sh, ProtoHTLC, spec, ScenarioCrash, 0, 2*sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !lab.Outcome.AtomicityViolated() || lab.Crashed != "bob" || lab.RecoveredAt != 0 {
		t.Errorf("htlc crash, no recovery: crashed %q, recovered at %d, %+v; want bob down for good and atomicity violated",
			lab.Crashed, lab.RecoveredAt, lab.Outcome.Edges)
	}
}

// TestAC3TWCrashRowBlocks: the crash row takes Trent down at the redeem
// request itself, so he never signs RD and the AC2T grades stuck,
// however fast he would have answered. Seeds 2, 3, 6 and 11 are where a
// watch on tip changes saw the push only after Trent had answered
// (ADR-019); a Trent who answers in 10 ms beats a 100 ms poll at all of
// them.
func TestAC3TWCrashRowBlocks(t *testing.T) {
	for _, seed := range []uint64{2, 3, 6, 11, 42} {
		lab, err := RunOne(seed, Ring(int64(seed), 2, []chain.ID{"chain-0", "chain-1"}), ProtoAC3TW, AC2T{
			Witness:      "witness",
			Depth:        3,
			TrentSeed:    seed + 1,
			TrentLatency: 10 * sim.Millisecond,
		}, ScenarioCrash, 0, 3*sim.Hour)
		if err != nil {
			t.Fatal(err)
		}
		out, signed := lab.Outcome, lab.Runner.(ownTrent).trent.SignedRD
		if out.Committed() || out.Aborted() || out.AtomicityViolated() || signed != 0 || lab.Crashed != "Trent" {
			t.Errorf("seed %d: crashed %q, Trent signed RD %d times, %+v; want Trent down before he signs and the AC2T stuck",
				seed, lab.Crashed, signed, out.Edges)
		}
	}
}
