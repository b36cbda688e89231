package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// TestRunOneIsAFunctionOfItsArguments: the same (seed, shape, protocol,
// fault schedule) yields the same grade, timeline and narration, run
// after run — what lets a sweep call RunOne at every fault point and
// compare (ROADMAP item 3(b)) — and the schedule does what it says:
// the crash strikes the protocol's critical failure point, the recovery
// happens at RecoverAt, and nothing is recovered that never crashed.
func TestRunOneIsAFunctionOfItsArguments(t *testing.T) {
	spec := AC2T{Witness: "witness", Depth: 2, TrentSeed: 9, TrentLatency: 100 * sim.Millisecond}
	for _, tc := range []struct {
		name        string
		proto       Protocol
		shape       Shape
		crash       bool
		recoverAt   sim.Time
		wantCrashed string
		check       func(*xchain.Outcome) bool
	}{
		{"htlc ring, no faults", ProtoHTLC, Ring(5, 3, []chain.ID{"a", "b"}), false, 0, "", (*xchain.Outcome).Committed},
		{"recover with nothing crashed", ProtoAC3WN, Pair(6, 10, "a", 20, "b", "witness"), false, sim.Hour, "", (*xchain.Outcome).Committed},
		{"htlc crash", ProtoHTLC, Pair(7, 10, "a", 20, "b"), true, 0, "bob", (*xchain.Outcome).AtomicityViolated},
		{"ac3wn crash", ProtoAC3WN, Pair(8, 10, "a", 20, "b", "witness"), true, 0, "bob",
			func(o *xchain.Outcome) bool { return !o.Committed() && !o.Aborted() && !o.AtomicityViolated() }},
		{"ac3wn crash and recover", ProtoAC3WN, Pair(8, 10, "a", 20, "b", "witness"), true, sim.Hour, "bob", (*xchain.Outcome).Committed},
		{"ac3tw crash and recover", ProtoAC3TW, Ring(9, 3, []chain.ID{"a"}), true, sim.Hour, "Trent", (*xchain.Outcome).Committed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() (*Lab, []string) {
				var told []string
				tell := func(what string) func(string, sim.Time) {
					return func(who string, at sim.Time) { told = append(told, fmt.Sprintf("%s %s at %d", what, who, at)) }
				}
				lab, err := RunOne(77, tc.shape, tc.proto, spec, Faults{
					CrashAtCommit: tc.crash,
					RecoverAt:     tc.recoverAt,
					Started:       func(g *graph.Graph) { told = append(told, "started "+g.String()) },
					OnCrash:       tell("crashed"),
					OnRecover:     tell("recovered"),
				}, 2*sim.Hour)
				if err != nil {
					t.Fatal(err)
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

// TestRunOneBuildErrors: a shape, graph or protocol that cannot be stood
// up is RunOne's error, named, and nothing runs.
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
		started := false
		lab, err := RunOne(1, tc.shape, tc.proto, AC2T{Witness: "witness", Depth: 2},
			Faults{Started: func(*graph.Graph) { started = true }}, sim.Hour)
		if err == nil || !strings.Contains(err.Error(), tc.want) || lab != nil || started {
			t.Errorf("%s: lab %v, started %v, error %v; want only an error containing %q", tc.name, lab, started, err, tc.want)
		}
	}
}
