package engine

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

// TestTraceDeterminism extends the byte-identical guarantee to the
// trace exports: the same seed and shard count must produce the same
// NDJSON bytes across worker counts, and turning tracing on must not
// change the aggregates at all.
func TestTraceDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Shards: 4, Workload: testWorkload(24), Trace: true}
	a := run(t, cfg)
	cfg.Workers = 1
	b := run(t, cfg)

	if a.Trace == nil || len(a.Trace.Records) == 0 {
		t.Fatal("traced run produced no records")
	}
	var an, bn bytes.Buffer
	if err := trace.WriteNDJSON(&an, a.Trace); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteNDJSON(&bn, b.Trace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(an.Bytes(), bn.Bytes()) {
		t.Fatal("NDJSON trace bytes differ across worker counts")
	}

	// Tracing must be an observer: the aggregate with tracing off is
	// byte-identical to the one with tracing on (Trace itself is not
	// marshaled).
	off := run(t, Config{Seed: 42, Shards: 4, Workload: testWorkload(24)})
	aj, _ := json.Marshal(a)
	oj, _ := json.Marshal(off)
	if string(aj) != string(oj) {
		t.Fatalf("tracing changed the aggregates:\n%s\n----\n%s", aj, oj)
	}

	// The per-phase table exists either way and covers the commit
	// scenario's full phase chain.
	havePhase := make(map[string]bool)
	for _, row := range off.PhaseLatency {
		if row.Scenario == ScenarioCommit {
			havePhase[row.Phase] = true
		}
		if row.Count == 0 {
			t.Fatalf("phase table emitted an empty row: %+v", row)
		}
		if row.P99Ms < row.P50Ms {
			t.Fatalf("phase %s/%s: p99 %d < p50 %d", row.Phase, row.Scenario, row.P99Ms, row.P50Ms)
		}
	}
	for _, ph := range trace.Phases {
		if !havePhase[ph] {
			t.Fatalf("commit scenario missing phase %q in table %+v", ph, off.PhaseLatency)
		}
	}
	if off.LatencyP999Ms < off.LatencyP99Ms {
		t.Fatalf("p999 %d < p99 %d", off.LatencyP999Ms, off.LatencyP99Ms)
	}
}

// TestTraceRingEvictionBounded runs a workload through a deliberately
// tiny ring: memory stays bounded (held records never exceed the cap),
// eviction is reported, and the per-phase statistics are untouched —
// they fold into histograms independent of the ring.
func TestTraceRingEvictionBounded(t *testing.T) {
	const cap = 64
	cfg := Config{Seed: 5, Shards: 2, Workload: testWorkload(16), Trace: true, traceRingCap: cap}
	agg := run(t, cfg)
	if agg.Trace == nil {
		t.Fatal("no trace carried")
	}
	if len(agg.Trace.Records) > cap*cfg.Shards {
		t.Fatalf("merged trace holds %d records, cap allows %d", len(agg.Trace.Records), cap*cfg.Shards)
	}
	if agg.Trace.Dropped == 0 {
		t.Fatal("tiny ring dropped nothing — eviction untested")
	}
	// Eviction must not skew the phase table: same run, big ring.
	full := run(t, Config{Seed: 5, Shards: 2, Workload: testWorkload(16), Trace: true})
	aj, _ := json.Marshal(agg.PhaseLatency)
	fj, _ := json.Marshal(full.PhaseLatency)
	if string(aj) != string(fj) {
		t.Fatalf("ring eviction changed the phase table:\n%s\n----\n%s", aj, fj)
	}
}

// TestChromeTraceGolden pins the Chrome trace_event export for one
// 2-party AC3WN commit to a golden file: the byte layout viewers load
// is part of the contract. Refresh with -update-golden after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	wl := DefaultWorkload()
	wl.Txs = 1
	wl.Mix = Mix{Commit: 1}
	wl.Sizes = []SizeWeight{{Size: 2, Weight: 1}}
	agg := run(t, Config{Seed: 1, Shards: 1, Workload: wl, Trace: true})
	if agg.Commits != 1 {
		t.Fatalf("2-party commit did not commit: %+v", agg)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, agg.Trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome export is empty")
	}

	golden := filepath.Join("testdata", "ac3wn_commit_2party.chrome.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export drifted from golden file %s (len %d vs %d); run with -update-golden if intentional",
			golden, buf.Len(), len(want))
	}
}

// TestTraceSpanShape sanity-checks what the recorder captured for a
// simple commit-only run: a root span, the full phase chain, protocol
// timeline instants, and a chain summary per network.
func TestTraceSpanShape(t *testing.T) {
	wl := DefaultWorkload()
	wl.Txs = 2
	wl.ArrivalEvery = 30 * sim.Second
	wl.Mix = Mix{Commit: 1}
	wl.Sizes = []SizeWeight{{Size: 2, Weight: 1}}
	agg := run(t, Config{Seed: 2, Shards: 1, Workload: wl, Trace: true})

	roots, phases, instants, chains := 0, map[string]int{}, 0, 0
	for _, rec := range agg.Trace.Records {
		switch {
		case rec.Name == "ac2t":
			roots++
			if rec.Scenario != string(ScenarioCommit) || rec.Outcome != "committed" {
				t.Fatalf("root span mislabeled: %+v", rec)
			}
		case rec.Kind == trace.KindSpan && rec.Tx >= 0:
			phases[rec.Name]++
		case rec.Kind == trace.KindInstant:
			instants++
		case rec.Kind == trace.KindSpan && rec.Tx < 0:
			chains++
		}
	}
	if roots != 2 {
		t.Fatalf("%d root spans, want 2", roots)
	}
	for _, ph := range trace.Phases {
		if phases[ph] != 2 {
			t.Fatalf("phase %q has %d spans, want 2 (got %v)", ph, phases[ph], phases)
		}
	}
	if instants == 0 {
		t.Fatal("no timeline instants recorded")
	}
	if want := assetChains + 1; chains != want {
		t.Fatalf("%d chain summary spans, want %d", chains, want)
	}
}
