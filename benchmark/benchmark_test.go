package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// spin burns CPU in a function the profile must name. Register-only
// arithmetic, so the samples stay in spin itself, with or without the
// race detector's instrumentation.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(88172645463325252)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	return x
}

func TestReadProfileNamesBusyFunction(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink = spin(700 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.Count
		for _, fn := range s.Funcs {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += s.Count
				break
			}
		}
	}
	if total < 20 {
		t.Fatalf("profile holds %d samples of a 700 ms busy loop", total)
	}
	if share := float64(inSpin) / float64(total); share <= 0.8 {
		t.Errorf("spin is on the stack of %.2f of the samples, want > 0.8", share)
	}
	shares, attributed := attribute(samples)
	if attributed != total {
		t.Errorf("attribute counted %d samples, the profile holds %d", attributed, total)
	}
	// No repository frame is on these stacks, so everything lands in
	// the no-repo-frame bucket.
	if got := shares["runtime.gc_bg_share"]; got != 1 {
		t.Errorf("runtime.gc_bg_share = %v for a profile without repository frames, want 1", got)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("readProfile accepted bytes that are not gzip")
	}
}

func TestAttributeChargesInnermostRepoFrame(t *testing.T) {
	samples := []stackSample{
		// SHA-256 under crypto.Sum under Header.Hash under BuildBlock:
		// crypto is the innermost repository frame, so crypto pays, and
		// chain and miner show in the cumulative shares.
		{Count: 6, Funcs: []string{"crypto/sha256.block", "repro/internal/crypto.Sum", "repro/internal/chain.(*Header).Hash",
			"repro/internal/chain.(*Chain).BuildBlock", "repro/internal/miner.(*Node).mineOne", "repro/internal/engine.runShard"}},
		{Count: 3, Funcs: []string{"runtime.mallocgc", "repro/internal/graph.New", "repro/internal/engine.runShard"}},
		{Count: 1, Funcs: []string{"runtime.gcBgMarkWorker"}},
	}
	shares, total := attribute(samples)
	if total != 10 {
		t.Fatalf("total = %d, want 10", total)
	}
	want := map[string]float64{
		"crypto.cpu_self_share":       0.6,
		"other.cpu_self_share":        0.3, // graph is not a tracked layer
		"runtime.gc_bg_share":         0.1,
		"chain.cpu_self_share":        0,
		"chain.header_hash.cum_share": 0.6,
		"chain.build_block.cum_share": 0.6,
		"miner.mine_one.cum_share":    0.6,
		"runtime.malloc.cum_share":    0.3,
	}
	for name, w := range want {
		if got := shares[name]; math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
	sum := shares["other.cpu_self_share"] + shares["runtime.gc_bg_share"]
	for _, l := range layers {
		sum += shares[l+".cpu_self_share"]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("self shares sum to %v, want 1", sum)
	}
}

func TestMedianAndSpread(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 values = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %v, want 2.5", got)
	}
	xs := []float64{90, 100, 110}
	if got := spreadPct(xs); got != 20 {
		t.Errorf("spreadPct = %v, want 20", got)
	}
	if xs[0] != 90 {
		t.Error("median sorted its argument in place")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if err := checkMetricTables(); err != nil {
		t.Error(err)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, outside 1..60", doc.RunSeconds)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the table %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: rationale must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		for _, txs := range []int{w.Txs, warmupTxs, max(w.Txs/20, w.Shards)} {
			if _, err := engine.New(w.config(42, txs)); err != nil {
				t.Errorf("%s at %d AC2Ts: %v", w.Name, txs, err)
			}
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the table %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		m := doc.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the table %d", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := doc.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
	}
}

func TestCheckRepsFiresOnDoctoredAggregate(t *testing.T) {
	w, _ := findWorkload("htlc-substrate")
	const txs = 16
	cfg := w.config(7, txs)
	a, err := runRep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReps([]rep{a, b}, txs); err != nil {
		t.Fatalf("two honest repetitions: %v", err)
	}
	if a.WallNs <= 0 || a.CPUNs <= 0 || a.Mallocs <= 0 || a.AllocBytes <= 0 {
		t.Errorf("host costs of a repetition are not all positive: %+v", a)
	}

	doctored := b
	doctored.AggJSON = bytes.Replace(b.AggJSON, []byte(`"commits":`), []byte(`"commits":1`), 1)
	if err := checkReps([]rep{a, doctored}, txs); err == nil {
		t.Error("checkReps accepted a repetition whose aggregate encoding differs")
	}
	if err := checkReps([]rep{a, b}, txs+1); err == nil {
		t.Error("checkReps accepted a run that graded fewer AC2Ts than it was given")
	}
	short := *a.Agg
	short.Stuck++
	miscounted := a
	miscounted.Agg = &short
	if err := checkReps([]rep{miscounted}, txs); err == nil {
		t.Error("checkReps accepted outcome counts that do not add up to graded")
	}
}

func TestSpanLogParentsAndNDJSON(t *testing.T) {
	l := newSpanLog()
	root := l.begin("workload:x", 0)
	child := l.begin("replay", root)
	if d := l.end(child); d < 0 {
		t.Errorf("span duration %d is negative", d)
	}
	l.end(root)
	var buf bytes.Buffer
	if err := l.writeNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines for 2 spans", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Name != "replay" || s.Parent != root || s.EndNs < s.StartNs {
		t.Errorf("second span decoded as %+v", s)
	}
}
