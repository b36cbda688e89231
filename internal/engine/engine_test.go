package engine

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// testWorkload is a small mixed workload that still exercises every
// scenario: commits, declines, one crash-recovery participant per
// shard (weights guarantee at least one draw at this size), and
// adversarial decision races.
func testWorkload(txs int) Workload {
	wl := DefaultWorkload()
	wl.Txs = txs
	wl.ArrivalEvery = 15 * sim.Second
	wl.Mix = Mix{Commit: 4, Abort: 2, Crash: 2, Race: 2}
	return wl
}

// named is Named(name) with txs AC2Ts; an unknown name fails the test.
func named(t *testing.T, name string, txs int) Workload {
	t.Helper()
	wl, err := Named(name)
	if err != nil {
		t.Fatal(err)
	}
	wl.Txs = txs
	return wl
}

func run(t *testing.T, cfg Config) *Aggregate {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// TestDeterminism is the engine's core guarantee: the same master
// seed and shard count produce byte-identical aggregates, no matter
// how many workers the scheduler spreads the shards over.
func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Shards: 4, Workload: testWorkload(24)}
	a := run(t, cfg)
	cfg.Workers = 1 // serialize: different interleaving, same shards
	b := run(t, cfg)

	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("aggregates differ across runs:\n%s\n----\n%s", aj, bj)
	}
	if a.Graded != 24 {
		t.Fatalf("graded %d/24", a.Graded)
	}
}

// TestRunLeavesNothingRunning: Run collects each finished shard's world
// on a goroutine of its own, and neither those nor the checker outlive
// it. With a checker (two cores, one worker) and without (one core), a
// collection was forced and the goroutines Run started are gone.
func TestRunLeavesNothingRunning(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := runtime.NumGoroutine()
		run(t, Config{Seed: 42, Shards: 4, Workers: 1, Workload: testWorkload(40)})
		runtime.ReadMemStats(&after)
		if after.NumForcedGC == before.NumForcedGC {
			t.Fatalf("GOMAXPROCS %d: no collection forced", procs)
		}
		// A joined goroutine may still be returning from its deferred Done.
		for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		if g := runtime.NumGoroutine(); g != n {
			t.Fatalf("GOMAXPROCS %d: %d goroutines before Run, %d after", procs, n, g)
		}
	}
}

// TestMixedScenarioAtomicity runs commits, aborts, crash-recovery and
// decision races concurrently in every shard and asserts the paper's
// core claim under load: zero atomicity violations, nothing left
// stuck, and every scenario behaves as designed.
func TestMixedScenarioAtomicity(t *testing.T) {
	agg := run(t, Config{Seed: 7, Shards: 3, Workload: testWorkload(30)})

	if agg.Graded != 30 {
		t.Fatalf("graded %d/30", agg.Graded)
	}
	if agg.Violations != 0 {
		t.Fatalf("AC3WN produced %d atomicity violations under mixed load", agg.Violations)
	}
	if agg.Stuck != 0 {
		t.Fatalf("%d transactions stuck (neither committed nor cleanly aborted)", agg.Stuck)
	}
	// Every scenario must actually have been drawn at these weights.
	for _, sc := range []Scenario{ScenarioCommit, ScenarioAbort, ScenarioCrash, ScenarioRace} {
		st, ok := agg.ByScenario[sc]
		if !ok || st.Txs == 0 {
			t.Fatalf("scenario %s never drawn: %+v", sc, agg.ByScenario)
		}
		if st.Violations != 0 {
			t.Fatalf("scenario %s violated atomicity %d times", sc, st.Violations)
		}
	}
	// Well-behaved transactions commit; declines abort.
	if st := agg.ByScenario[ScenarioCommit]; st.Commits != st.Txs {
		t.Fatalf("commit scenario: %d/%d committed", st.Commits, st.Txs)
	}
	if st := agg.ByScenario[ScenarioAbort]; st.Aborts != st.Txs {
		t.Fatalf("abort scenario: %d/%d aborted", st.Aborts, st.Txs)
	}
	// Crash-recovery is the headline: the victim is down for 8
	// virtual minutes — far beyond timelock scale — and still nobody
	// loses assets (committed or cleanly aborted, never mixed).
	if st := agg.ByScenario[ScenarioCrash]; st.Commits+st.Aborts != st.Txs {
		t.Fatalf("crash scenario left %d unsettled", st.Txs-st.Commits-st.Aborts)
	}
	// Sanity on the aggregate accounting.
	if agg.Commits+agg.Aborts+agg.Stuck != agg.Graded {
		t.Fatalf("outcome counts do not add up: %+v", agg)
	}
	// Shared-executor accounting: each shard world runs assetChains+1
	// networks, and each network executes exactly mined+genesis blocks
	// — not N× mined as the per-view stores did.
	networks := uint64(agg.Shards * (assetChains + 1))
	if agg.BlocksExecuted != uint64(agg.BlocksMined)+networks {
		t.Fatalf("blocks executed = %d, want mined %d + %d genesis: redundant execution",
			agg.BlocksExecuted, agg.BlocksMined, networks)
	}
	if agg.ExecHitRate <= 0.5 { // 3-miner networks: 2 of 3 adoptions are hits
		t.Fatalf("exec cache hit rate %.2f, want ~0.67", agg.ExecHitRate)
	}
	if agg.BlocksExecutedPerTx <= 0 {
		t.Fatal("no per-transaction execution cost computed")
	}
	if agg.LatencyMs.Count != uint64(agg.Graded) {
		t.Fatalf("latency histogram has %d samples, want %d", agg.LatencyMs.Count, agg.Graded)
	}
	if agg.ThroughputTPSVirtual <= 0 {
		t.Fatal("no virtual throughput computed")
	}
}

// adversityWorkload mixes the classic matrix with the network-
// hostility scenarios.
func adversityWorkload(txs int) Workload {
	wl := DefaultWorkload()
	wl.Txs = txs
	wl.ArrivalEvery = 15 * sim.Second
	wl.Mix = Mix{Commit: 3, Abort: 1, Crash: 1, Race: 1, Partition: 2, Lossy: 2, Geo: 2}
	return wl
}

// TestAdversityDeterminism extends the byte-identical guarantee to
// the hostile-network regime: partition windows, loss draws, and
// latency overlays must all ride the per-shard clocks and forked
// RNGs, so worker scheduling still cannot leak into the aggregates.
func TestAdversityDeterminism(t *testing.T) {
	cfg := Config{Seed: 42, Shards: 4, Workload: adversityWorkload(28)}
	a := run(t, cfg)
	cfg.Workers = 1
	b := run(t, cfg)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("adversity aggregates differ across worker counts:\n%s\n----\n%s", aj, bj)
	}
	if a.MsgsDropped == 0 {
		t.Fatal("no messages dropped — the lossy scenario never bit")
	}
	if a.ForksObserved == 0 || a.MaxReorgDepth == 0 {
		t.Fatalf("no forks observed under adversity (forks=%d depth=%d)",
			a.ForksObserved, a.MaxReorgDepth)
	}
}

// TestAdversityAtomicity is the tentpole claim at engine scale: with
// partitions splitting decision windows, sustained gossip loss, and
// geo-skewed links all hammering the same shard worlds, AC3WN still
// settles everything without a single atomicity violation — the
// regime the paper's Section 1 argues the baselines cannot survive.
func TestAdversityAtomicity(t *testing.T) {
	agg := run(t, Config{Seed: 9, Shards: 3, Workload: adversityWorkload(30)})
	if agg.Graded != 30 {
		t.Fatalf("graded %d/30", agg.Graded)
	}
	if agg.Violations != 0 {
		t.Fatalf("AC3WN violated atomicity %d times under network adversity", agg.Violations)
	}
	for _, sc := range []Scenario{ScenarioPartition, ScenarioLossy, ScenarioGeo} {
		st, ok := agg.ByScenario[sc]
		if !ok || st.Txs == 0 {
			t.Fatalf("scenario %s never drawn: %+v", sc, agg.ByScenario)
		}
		if st.Violations != 0 {
			t.Fatalf("scenario %s violated atomicity %d times", sc, st.Violations)
		}
		// Non-blocking under adversity: every hostile transaction still
		// settles (commit or clean abort) before its grading deadline.
		if st.Commits+st.Aborts != st.Txs {
			t.Fatalf("scenario %s left %d stuck", sc, st.Txs-st.Commits-st.Aborts)
		}
	}
	if agg.MsgsDropped == 0 {
		t.Fatal("adversity run dropped no messages")
	}
}

// TestBackpressureQueues proves the in-flight cap actually defers
// arrivals: 3 × maxInFlight transactions arriving almost at once run in
// at least three waves, stretching the makespan well beyond the arrival
// span.
func TestBackpressureQueues(t *testing.T) {
	const txs = 3 * maxInFlight
	wl := DefaultWorkload()
	wl.Txs = txs
	wl.ArrivalEvery = sim.Second // all arrive almost at once
	wl.Mix = Mix{Commit: 1}      // only commits: deterministic service times
	wl.Sizes = []SizeWeight{{Size: 2, Weight: 1}}
	agg := run(t, Config{Seed: 11, Shards: 1, Workload: wl})
	if agg.Graded != txs || agg.Stuck != 0 {
		t.Fatalf("graded=%d stuck=%d", agg.Graded, agg.Stuck)
	}
	// Three waves one after the other take at least 3 minimum commit
	// latencies; admitting every arrival at once would overlap them.
	minSerial := 3 * agg.LatencyMs.Min
	if agg.MakespanVirtualMs < minSerial {
		t.Fatalf("makespan %dms < %dms: the cap of %d did not queue arrivals",
			agg.MakespanVirtualMs, minSerial, maxInFlight)
	}
}

// TestHTLCBaselineLosesAssetsUnderCrash is the contrast experiment at
// engine scale: the same crash-at-decision workload that AC3WN
// absorbs makes the HTLC baseline violate atomicity (the crashed
// victim's incoming contract refunds at the timelock while the
// counterparty already redeemed with the revealed secret).
func TestHTLCBaselineLosesAssetsUnderCrash(t *testing.T) {
	wl := DefaultWorkload()
	wl.Txs = 8
	wl.Protocol = ProtoHTLC
	wl.ArrivalEvery = 30 * sim.Second
	wl.Mix = Mix{Crash: 1} // every transaction hits the hazard
	wl.Sizes = []SizeWeight{{Size: 2, Weight: 1}}
	agg := run(t, Config{Seed: 3, Shards: 2, Workload: wl})
	if agg.Graded != 8 {
		t.Fatalf("graded %d/8", agg.Graded)
	}
	if agg.Violations == 0 {
		t.Fatal("HTLC survived the crash hazard — the baseline contrast is broken")
	}
}

// TestConfigValidation exercises the rejection paths.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Seed: 1, Shards: 0, Workload: DefaultWorkload()},
		{Seed: 1, Shards: 2, Workers: -1, Workload: DefaultWorkload()},
	}
	wl := DefaultWorkload()
	wl.Txs = 1
	bad = append(bad, Config{Seed: 1, Shards: 2, Workload: wl}) // txs < shards
	wl2 := DefaultWorkload()
	wl2.Protocol = "nope"
	bad = append(bad, Config{Seed: 1, Shards: 1, Workload: wl2})
	wl3 := DefaultWorkload()
	wl3.Mix = Mix{}
	bad = append(bad, Config{Seed: 1, Shards: 1, Workload: wl3})
	wl4 := DefaultWorkload()
	wl4.Sizes = []SizeWeight{{Size: 1, Weight: 1}}
	bad = append(bad, Config{Seed: 1, Shards: 1, Workload: wl4})
	wl6 := DefaultWorkload()
	wl6.Mix = Mix{Partition: 1}
	wl6.TxTimeout = partitionFor // graded before the split heals
	bad = append(bad, Config{Seed: 1, Shards: 1, Workload: wl6})
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}
