// Package engine is the sharded, concurrent AC2T orchestration layer:
// it drives thousands of atomic cross-chain transactions to completion
// in parallel, which the strictly sequential single-simulator harness
// in internal/bench cannot.
//
// The design splits determinism from parallelism. A generated
// workload (ring AC2Ts with configurable arrival rate, graph-size
// distribution, and a scenario mix spanning commits, declines,
// crash-recovery, decision races, and network adversity —
// decision-window partitions, sustained gossip loss, geo-skewed
// links) is partitioned across N shards. Each shard owns an independent deterministic sim
// world — its own chains, miners and witness network, seeded from the
// master seed — and executes its transaction stream through the
// protocol's core.Runner (a table of constructors, scenario.go) with per-shard
// backpressure (an in-flight cap) and per-transaction timeouts. Shards run
// concurrently on a worker pool of goroutines; within a shard
// everything stays on one virtual clock and one goroutine, so a shard
// is a pure function of (seed, workload) and the whole run is a pure
// function of the master seed and shard count. Each shard keeps its
// own results — commit/abort/atomicity-violation counts, latency
// histograms, virtual makespan — and the engine merges them in shard
// order after the workers join; aggregation is integer-only, so two
// runs with the same configuration produce byte-identical results no
// matter how the scheduler interleaves workers. The only value shards
// share while they run is the graded count Progress reads.
package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/crypto"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config configures an engine run.
type Config struct {
	// Seed is the master seed; every shard seed derives from it.
	Seed uint64
	// Shards is the number of independent simulation worlds the
	// workload is partitioned across.
	Shards int
	// Workers bounds concurrently executing shards (0 = min(Shards,
	// GOMAXPROCS)). Workers only affects wall-clock scheduling, never
	// results.
	Workers int
	// Workload describes the transaction stream.
	Workload Workload
	// Trace enables the deterministic trace recorder: per-shard ring
	// buffers collect span/event records (virtual time + sequence
	// numbers, no wall clock) and the aggregate carries the merged
	// trace for export. Off by default; the per-phase latency table is
	// collected regardless (fixed-size histograms, negligible cost).
	Trace bool
	// traceRingCap overrides the per-shard ring capacity (0 =
	// trace.DefaultRingCap); tests shrink it to force eviction.
	traceRingCap int
	// unsettled makes every settle of a run with a checker fail, as an
	// invalid own signature would; tests force the strict rerun.
	unsettled bool
	// PruneDepth sets the chain executors' state-GC horizon: per-block
	// ledger states buried deeper than this below every node view's
	// tip are dropped and re-derived from the blocks' retained deltas if
	// ever read again.
	// 0 selects the engine default (enginePruneDepth); negative
	// disables pruning (retain every state, the pre-GC behavior).
	// Pruning never changes results — aggregates and traces are
	// byte-identical either way — only memory.
	PruneDepth int
}

// enginePruneDepth is the default state-GC horizon. It exceeds every
// depth the system routinely reads after the fact: the deepest
// confirmation depth in use (engineChainSpec sets 2) and the AC3WN SPV
// checkpoint distance (core.DefaultStableDepth, 30). It is about the
// deepest reorg the adversity scenarios produce since block sync went by
// locator (ADR-022): max_reorg_depth measures 37 on the benchmark's
// wn-adverse shape (partition + geo, 8 × 1,600 at seed 42) and 41 on
// -workload hostile at -txs 2000; deeper pivots are the reads below.
// Past it a block's overlay maps shrink to its retained delta — base
// layers have been persistent tables sharing structure since ADR-016, so
// that is all the horizon buys now: -prunedepth 512 costs +16 % peak sys
// both at 8 × 1,000 and at 1 × 1,500 (seed 42, one run each). Deeper
// reads remain correct, just not free: the executor re-mounts deltas.
const enginePruneDepth = 40

// pruneDepth resolves the configured horizon.
func (cfg Config) pruneDepth() int {
	switch {
	case cfg.PruneDepth < 0:
		return 0 // disabled
	case cfg.PruneDepth == 0:
		return enginePruneDepth
	default:
		return cfg.PruneDepth
	}
}

// Engine partitions and executes a workload.
type Engine struct {
	cfg    Config
	graded atomic.Int64
}

// New validates the configuration and prepares an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("engine: Shards must be positive")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("engine: negative Workers")
	}
	if err := cfg.Workload.validate(); err != nil {
		return nil, err
	}
	if cfg.Workload.Txs < cfg.Shards {
		return nil, fmt.Errorf("engine: %d txs cannot cover %d shards", cfg.Workload.Txs, cfg.Shards)
	}
	return &Engine{cfg: cfg}, nil
}

// Progress reports graded and total transactions; safe to call from
// any goroutine while Run executes.
func (e *Engine) Progress() (graded, total int64) {
	return e.graded.Load(), int64(e.cfg.Workload.Txs)
}

// Aggregate is the engine's machine-readable result. Integer-only
// accounting and shard-ordered merging make it byte-identical across
// runs with the same configuration.
type Aggregate struct {
	Protocol   Protocol `json:"protocol"`
	Seed       uint64   `json:"seed"`
	Shards     int      `json:"shards"`
	Txs        int      `json:"txs"`
	Graded     int      `json:"graded"`
	Commits    int      `json:"commits"`
	Aborts     int      `json:"aborts"`
	Stuck      int      `json:"stuck"`
	Violations int      `json:"atomicity_violations"`
	Deploys    int      `json:"deploys"`
	Calls      int      `json:"calls"`

	ByScenario map[Scenario]ScenarioStats `json:"by_scenario"`

	// ScenariosDrawn / ScenariosDowngraded surface the workload's
	// scenario mapping: a downgrade means the drawn scenario is not
	// expressible for the protocol and ran as commit instead (today:
	// HTLC race only). Zero downgrades means the full matrix ran.
	ScenariosDrawn      int `json:"scenarios_drawn"`
	ScenariosDowngraded int `json:"scenarios_downgraded"`

	// LatencyMs is the virtual commit-latency histogram across all
	// graded transactions — the engine's only latency record; no
	// per-tx samples are retained, so memory stays flat in tx count.
	LatencyMs metrics.HistSnapshot `json:"latency_ms"`
	// Percentiles over all shard latencies, virtual ms, interpolated
	// from the histogram (deterministic integer arithmetic; accuracy
	// bounded by the latencyBounds bucket ladder).
	LatencyP50Ms  int64 `json:"latency_p50_ms"`
	LatencyP95Ms  int64 `json:"latency_p95_ms"`
	LatencyP99Ms  int64 `json:"latency_p99_ms"`
	LatencyP999Ms int64 `json:"latency_p999_ms"`

	// PhaseLatency is the per-phase attribution table: for every
	// (phase, scenario) cell with samples, the count and p50/p99 of
	// that phase's virtual duration. Rows are emitted in canonical
	// phase × scenario order, so the JSON is byte-identical across
	// runs. This is the paper's latency contrast broken down to where
	// the time actually goes — lock confirmation vs decision vs
	// settlement.
	PhaseLatency []PhaseLatencyRow `json:"phase_latency"`

	// MakespanVirtualMs is the slowest shard's virtual makespan;
	// shards execute in parallel, so it bounds the run.
	MakespanVirtualMs int64 `json:"makespan_virtual_ms"`
	// ThroughputTPSVirtual is graded transactions per virtual second
	// of makespan — the sustained AC2T throughput the sharded system
	// sustains on its own clocks.
	ThroughputTPSVirtual float64 `json:"throughput_tps_virtual"`
	// SimEvents totals dispatched simulator events (work proxy).
	SimEvents uint64 `json:"sim_events"`
	// SimEventsPerTx is SimEvents divided by graded transactions — the
	// simulator-event cost of settling one AC2T. This is the number
	// the notification-bus refactor is graded on: polling reconcilers
	// burn events on no-op wakeups, subscriptions only pay when chain
	// state actually changes.
	SimEventsPerTx float64 `json:"sim_events_per_tx"`

	// BlocksMined totals blocks mined across every shard's networks;
	// BlocksExecuted counts the ApplyBlock state transitions the shared
	// executors actually ran. The shared-store refactor is graded on
	// executed ≈ mined (one execution per block per network) instead of
	// the per-view N× mined.
	BlocksMined    int    `json:"blocks_mined"`
	BlocksExecuted uint64 `json:"blocks_executed"`
	// BlockExecHits counts block adoptions served from the executors'
	// result cache; ExecHitRate is hits/(hits+executed).
	BlockExecHits uint64  `json:"block_exec_cache_hits"`
	ExecHitRate   float64 `json:"exec_cache_hit_rate"`
	// Executor state-GC accounting summed across shards: states pruned
	// past the horizon, states still live at shard end, ApplyBlock
	// re-executions of blocks whose delta was gone when a pruned state
	// had to be re-derived (0 unless a dead fork is revived), and whole
	// blocks released by history retirement. Deterministic (and
	// byte-compared); wall-clock memory numbers (peak RSS, allocs per
	// AC2T) deliberately stay out of the aggregate — see cmd/ac3engine
	// stderr diagnostics.
	StatesPruned  uint64 `json:"states_pruned"`
	StatesLive    int    `json:"states_live"`
	StateReplays  uint64 `json:"state_replays"`
	BlocksRetired uint64 `json:"blocks_retired"`
	// BlocksExecutedPerTx is BlocksExecuted divided by graded
	// transactions — the block-execution cost of settling one AC2T,
	// the budget the CI bench smoke enforces.
	BlocksExecutedPerTx float64 `json:"blocks_executed_per_tx"`

	// Witness-efficiency accounting summed across shards (AC3WN only,
	// zero elsewhere): the per-AC2T decision transactions and bytes the
	// unbatched path puts on the witness chain, and the batched path's
	// commit_batch transactions, carried decisions, bytes, and
	// post-reorg republishes. WitnessTxsPerCommit / WitnessBytesPerCommit
	// are the headline efficiency ratios — total decision-carrying
	// witness transactions (per-AC2T + batch commits) and their bytes,
	// divided by committed AC2Ts. Batching is graded on driving the
	// transaction ratio from ~1.0 toward 1/batch-size.
	WitnessDecisionTxs    int     `json:"witness_decision_txs"`
	WitnessDecisionBytes  int     `json:"witness_decision_bytes"`
	BatchesPublished      int     `json:"batches_published"`
	BatchDecisions        int     `json:"batch_decisions"`
	BatchRepublishes      int     `json:"batch_republishes"`
	BatchBytesPublished   int     `json:"batch_bytes_published"`
	WitnessTxsPerCommit   float64 `json:"witness_txs_per_commit"`
	WitnessBytesPerCommit float64 `json:"witness_bytes_per_commit"`

	// Adversity accounting across all shards: total canonical-tip
	// reorgs observed by any node view, the deepest canonical rollback
	// any view performed, and gossip messages dropped by the loss
	// model, partitions, or crashed endpoints. These are the
	// network-hostility counters the partition/lossy/geo scenarios are
	// graded against — zero across the board means the run never left
	// the friendly-network regime.
	ForksObserved int    `json:"forks_observed"`
	MaxReorgDepth int    `json:"max_reorg_depth"`
	MsgsDropped   uint64 `json:"msgs_dropped"`

	// Drives, WakeupsSkipped and Work sum the shards' counters (see
	// ShardResult); diagnostics for stderr, not part of the aggregate.
	Drives         uint64 `json:"-"`
	WakeupsSkipped uint64 `json:"-"`
	Work           Work   `json:"-"`

	PerShard []ShardResult `json:"per_shard"`

	// Trace is the run's merged trace when Config.Trace was set (nil
	// otherwise). It is a carrier for the exporters, not part of the
	// JSON aggregate — NDJSON and Chrome exports have their own
	// deterministic byte layouts.
	Trace *trace.Trace `json:"-"`
}

// PhaseLatencyRow is one cell of the per-phase latency table.
type PhaseLatencyRow struct {
	Phase    string   `json:"phase"`
	Scenario Scenario `json:"scenario"`
	Count    uint64   `json:"count"`
	P50Ms    int64    `json:"p50_ms"`
	P99Ms    int64    `json:"p99_ms"`
}

// Run executes the workload and returns the aggregate. It blocks
// until every shard completes.
func (e *Engine) Run() (*Aggregate, error) {
	cfg := e.cfg
	shards := cfg.Shards
	workers := cfg.Workers
	if workers == 0 || workers > shards {
		workers = shards
	}
	if gp := runtime.GOMAXPROCS(0); cfg.Workers == 0 && workers > gp {
		workers = gp
	}
	// The cores the shard workers leave idle check signatures ahead of
	// need (ADR-021). With none to spare a hand-off is pure cost (14 %
	// slower at -workers 2 on 2 cores), so then there is no checker: a
	// property of the run, not a setting.
	spare := max(runtime.GOMAXPROCS(0)-workers, 0)
	sigs := crypto.NewSigChecker(spare)

	// Shard seeds and transaction split derive deterministically from
	// the master seed: the first Txs%Shards shards take one extra.
	seedRNG := sim.NewRNG(cfg.Seed) //ac3:globalrand cfg.Seed is the run's root seed: this is where the whole seed tree starts
	seeds := make([]uint64, shards)
	for i := range seeds {
		seeds[i] = seedRNG.Uint64()
	}
	txs := make([]int, shards)
	base, extra := cfg.Workload.Txs/shards, cfg.Workload.Txs%shards
	for i := range txs {
		txs[i] = base
		if i < extra {
			txs[i]++
		}
	}

	graded := func() { e.graded.Add(1) }
	results := make([]*ShardResult, shards)
	errs := make([]error, shards)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One Sim value per worker, Reset per shard: the
			// run-to-quiescence/Reset API keeps shard worlds
			// independent without reallocating the simulator.
			s := sim.New(0)
			for idx := range idxCh {
				s.Reset(seeds[idx]) // the world s ran last, if any, is dead now: free it before the next is built
				runtime.GC()        // here, not beside the build, whose preempted frame may hold a stale word into it (ADR-021)
				results[idx], errs[idx] = runShard(s, idx, seeds[idx], cfg, txs[idx], graded, sigs)
			}
		}()
	}
	for i := 0; i < shards; i++ {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	ahead, graphAhead, keysAhead := sigs.Close()

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	agg := e.assemble(results)
	agg.Work.SigAhead, agg.Work.GraphAhead, agg.Work.KeysAhead, agg.Work.SigCheckers = ahead, graphAhead, keysAhead, spare
	return agg, nil
}

// assemble merges per-shard results in shard order.
func (e *Engine) assemble(results []*ShardResult) *Aggregate {
	agg := &Aggregate{
		Protocol:   e.cfg.Workload.Protocol,
		Seed:       e.cfg.Seed,
		Shards:     e.cfg.Shards,
		Txs:        e.cfg.Workload.Txs,
		ByScenario: make(map[Scenario]ScenarioStats),
	}
	latency := metrics.NewHist(latencyBounds...)
	for _, r := range results {
		latency.Merge(r.latency)
		agg.Graded += r.Graded
		agg.Commits += r.Commits
		agg.Aborts += r.Aborts
		agg.Stuck += r.Stuck
		agg.Violations += r.Violations
		agg.Deploys += r.Deploys
		agg.Calls += r.Calls
		agg.SimEvents += r.Events
		agg.ScenariosDrawn += r.ScenariosDrawn
		agg.ScenariosDowngraded += r.ScenariosDowngraded
		agg.BlocksMined += r.BlocksMined
		agg.BlocksExecuted += r.BlocksExecuted
		agg.BlockExecHits += r.BlockExecHits
		agg.ForksObserved += r.ForksObserved
		if r.MaxReorgDepth > agg.MaxReorgDepth {
			agg.MaxReorgDepth = r.MaxReorgDepth
		}
		agg.MsgsDropped += r.MsgsDropped
		agg.Drives += r.Drives
		agg.WakeupsSkipped += r.WakeupsSkipped
		agg.Work.add(r.Work)
		agg.StatesPruned += r.StatesPruned
		agg.StatesLive += r.StatesLive
		agg.StateReplays += r.StateReplays
		agg.BlocksRetired += r.BlocksRetired
		agg.WitnessDecisionTxs += r.WitnessDecisionTxs
		agg.WitnessDecisionBytes += r.WitnessDecisionBytes
		agg.BatchesPublished += r.BatchesPublished
		agg.BatchDecisions += r.BatchDecisions
		agg.BatchRepublishes += r.BatchRepublishes
		agg.BatchBytesPublished += r.BatchBytesPublished
		if r.MakespanVirtualMs > agg.MakespanVirtualMs {
			agg.MakespanVirtualMs = r.MakespanVirtualMs
		}
		for sc, st := range r.ByScenario {
			cur := agg.ByScenario[sc]
			cur.merge(&st)
			agg.ByScenario[sc] = cur
		}
		agg.PerShard = append(agg.PerShard, *r)
	}
	// Percentiles straight from the merged histogram — no sample slice
	// exists.
	agg.LatencyMs = latency.Snapshot()
	agg.LatencyP50Ms = agg.LatencyMs.Quantile(0.50)
	agg.LatencyP95Ms = agg.LatencyMs.Quantile(0.95)
	agg.LatencyP99Ms = agg.LatencyMs.Quantile(0.99)
	agg.LatencyP999Ms = agg.LatencyMs.Quantile(0.999)

	// Per-phase latency table: fold per-shard histograms (Hist.Merge
	// is commutative, so map iteration order cannot matter), then emit
	// rows in canonical phase × scenario order.
	phases := make(map[phaseKey]*metrics.Hist)
	for _, r := range results {
		for k, h := range r.phase {
			if phases[k] == nil {
				phases[k] = metrics.NewHist(phaseBounds...)
			}
			phases[k].Merge(h)
		}
	}
	for _, ph := range trace.Phases {
		for _, def := range scenarios {
			sc := def.name
			h := phases[phaseKey{ph, sc}]
			if h == nil {
				continue
			}
			s := h.Snapshot()
			agg.PhaseLatency = append(agg.PhaseLatency, PhaseLatencyRow{
				Phase:    ph,
				Scenario: sc,
				Count:    s.Count,
				P50Ms:    s.Quantile(0.50),
				P99Ms:    s.Quantile(0.99),
			})
		}
	}

	// Merge per-shard trace streams in shard order: each recorder lived
	// on its shard's goroutine, so worker count never shows in the merged
	// stream.
	if e.cfg.Trace {
		agg.Trace = &trace.Trace{}
		for _, r := range results {
			agg.Trace.Merge(r.rec)
		}
	}
	if agg.MakespanVirtualMs > 0 {
		agg.ThroughputTPSVirtual = float64(agg.Graded) / (float64(agg.MakespanVirtualMs) / 1000)
	}
	if agg.Graded > 0 {
		agg.SimEventsPerTx = float64(agg.SimEvents) / float64(agg.Graded)
		agg.BlocksExecutedPerTx = float64(agg.BlocksExecuted) / float64(agg.Graded)
	}
	if total := agg.BlockExecHits + agg.BlocksExecuted; total > 0 {
		agg.ExecHitRate = float64(agg.BlockExecHits) / float64(total)
	}
	if agg.Commits > 0 {
		agg.WitnessTxsPerCommit = float64(agg.WitnessDecisionTxs+agg.BatchesPublished) / float64(agg.Commits)
		agg.WitnessBytesPerCommit = float64(agg.WitnessDecisionBytes+agg.BatchBytesPublished) / float64(agg.Commits)
	}
	return agg
}
