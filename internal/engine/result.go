package engine

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// latencyBounds are the aggregate latency histogram's inclusive upper
// bounds in virtual milliseconds. The histogram is the *only* latency
// record the engine keeps (no per-tx samples survive grading — see
// ShardResult), so the ladder is deliberately fine: aggregate
// percentiles interpolate inside these buckets.
//
//ac3:globalstate canonical histogram ladder; written once here, read-only (changing it is a wire-format change)
var latencyBounds = []int64{
	int64(15 * sim.Second), int64(30 * sim.Second),
	int64(1 * sim.Minute), int64(90 * sim.Second), int64(2 * sim.Minute),
	int64(3 * sim.Minute), int64(4 * sim.Minute), int64(6 * sim.Minute),
	int64(8 * sim.Minute), int64(12 * sim.Minute), int64(16 * sim.Minute),
	int64(24 * sim.Minute), int64(32 * sim.Minute), int64(48 * sim.Minute),
	int64(64 * sim.Minute), int64(128 * sim.Minute),
}

// phaseBounds are the per-phase latency histogram bounds in virtual
// milliseconds. Phases are shorter than end-to-end latencies (a
// decision wait can be near-zero), so the scale starts at seconds.
//
//ac3:globalstate canonical histogram ladder; written once here, read-only (changing it is a wire-format change)
var phaseBounds = []int64{
	int64(5 * sim.Second), int64(15 * sim.Second), int64(30 * sim.Second),
	int64(1 * sim.Minute), int64(2 * sim.Minute), int64(4 * sim.Minute),
	int64(8 * sim.Minute), int64(16 * sim.Minute), int64(32 * sim.Minute),
	int64(64 * sim.Minute),
}

// phaseKey identifies one (phase, scenario) latency cell.
type phaseKey struct {
	phase    string
	scenario Scenario
}

// ScenarioStats aggregates outcomes for one scenario.
type ScenarioStats struct {
	Txs        int `json:"txs"`
	Commits    int `json:"commits"`
	Aborts     int `json:"aborts"`
	Stuck      int `json:"stuck"`
	Violations int `json:"violations"`
}

// add folds one outcome into the stats.
func (s *ScenarioStats) add(committed, aborted, violated bool) {
	s.Txs++
	switch {
	case committed:
		s.Commits++
	case aborted:
		s.Aborts++
	default:
		s.Stuck++
	}
	if violated {
		s.Violations++
	}
}

// merge folds other into s.
func (s *ScenarioStats) merge(o *ScenarioStats) {
	s.Txs += o.Txs
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Stuck += o.Stuck
	s.Violations += o.Violations
}

// ShardResult is one shard's complete, deterministic outcome.
type ShardResult struct {
	Shard             int                        `json:"shard"`
	Seed              uint64                     `json:"seed"`
	Txs               int                        `json:"txs"`
	Graded            int                        `json:"graded"`
	Commits           int                        `json:"commits"`
	Aborts            int                        `json:"aborts"`
	Stuck             int                        `json:"stuck"`
	Violations        int                        `json:"violations"`
	Deploys           int                        `json:"deploys"`
	Calls             int                        `json:"calls"`
	MakespanVirtualMs int64                      `json:"makespan_virtual_ms"`
	Events            uint64                     `json:"sim_events"`
	ByScenario        map[Scenario]ScenarioStats `json:"by_scenario"`

	// ScenariosDrawn counts workload scenario draws; ScenariosDowngraded
	// counts draws the protocol cannot express that were mapped onto
	// commit (today: HTLC race only). A nonzero downgrade count makes
	// the remaining mapping visible instead of silent.
	ScenariosDrawn      int `json:"scenarios_drawn"`
	ScenariosDowngraded int `json:"scenarios_downgraded"`

	// BlocksMined totals blocks mined across the shard's networks;
	// BlocksExecuted counts full ApplyBlock state transitions the
	// shared executors ran (≈ mined + genesis per network), and
	// BlockExecHits counts adoptions served from the result cache (≈
	// (N-1)× mined for N-node networks). Before the shared store,
	// executed ≈ N× mined.
	BlocksMined    int    `json:"blocks_mined"`
	BlocksExecuted uint64 `json:"blocks_executed"`
	BlockExecHits  uint64 `json:"block_exec_cache_hits"`

	// Executor state-GC accounting across the shard's networks:
	// StatesPruned counts per-block ledger states dropped past the
	// prune horizon, StatesLive the states still retained at shard
	// end, StateReplays the ApplyBlock re-executions of blocks whose
	// delta was gone when a pruned state had to be re-derived (0 unless
	// a dead fork is revived), BlocksRetired the whole blocks
	// released by history retirement. All are deterministic (functions
	// of the block DAG and view tips, never of wall-clock memory
	// pressure), so they live in the byte-compared aggregates.
	StatesPruned  uint64 `json:"states_pruned"`
	StatesLive    int    `json:"states_live"`
	StateReplays  uint64 `json:"state_replays"`
	BlocksRetired uint64 `json:"blocks_retired"`

	// Witness-efficiency accounting (AC3WN only, zero elsewhere):
	// WitnessDecisionTxs / WitnessDecisionBytes total the per-AC2T
	// decision transactions (authorize_redeem / authorize_refund on
	// each transaction's own SCw) and their encoded sizes — the
	// unbatched decision traffic. BatchesPublished / BatchDecisions /
	// BatchBytesPublished total the shard coordinator's commit_batch
	// transactions, the AC2T decisions they carried, and their encoded
	// sizes; BatchRepublishes counts commitments re-pushed after a
	// reorg below the coordinator's stable depth. Batching on moves the
	// decision traffic from the first pair to the batch counters.
	WitnessDecisionTxs   int `json:"witness_decision_txs"`
	WitnessDecisionBytes int `json:"witness_decision_bytes"`
	BatchesPublished     int `json:"batches_published"`
	BatchDecisions       int `json:"batch_decisions"`
	BatchRepublishes     int `json:"batch_republishes"`
	BatchBytesPublished  int `json:"batch_bytes_published"`

	// Adversity accounting: ForksObserved totals canonical-tip reorgs
	// across every node view in the shard (each one a fork race some
	// replica lost), MaxReorgDepth is the deepest canonical rollback
	// any view performed (partition heals produce these), and
	// MsgsDropped counts gossip messages lost to the loss model, a
	// partition, or a crashed endpoint.
	ForksObserved int    `json:"forks_observed"`
	MaxReorgDepth int    `json:"max_reorg_depth"`
	MsgsDropped   uint64 `json:"msgs_dropped"`

	// Drives counts protocol step-function runs in the shard's world and
	// WakeupsSkipped the tip-change wake-ups whose wait-set had nothing
	// due (ADR-014). Host-side cost diagnostics: kept out of the JSON so
	// aggregate bytes do not depend on how the reconcilers are woken.
	Drives         uint64 `json:"-"`
	WakeupsSkipped uint64 `json:"-"`
	Work           Work   `json:"-"`

	// latency is the shard's commit-latency histogram and phase its
	// per-(phase, scenario) histograms — always collected (fixed-size,
	// integer-only), folded in shard order into the aggregate's latency
	// and phase tables. Per-tx samples are NOT retained, so shard memory
	// is flat in transaction count (the property the 100k/1M scale rungs
	// depend on), and the histograms are kept apart from the trace ring
	// so eviction never skews the statistics.
	latency *metrics.Hist
	phase   map[phaseKey]*metrics.Hist
}

// Work counts host-side work a run's layers did that its results do not
// show: how many candidate applications block building threw away, what
// the ed25519 signatures were for, how full the miners' buffers got. Like
// Drives it stays out of the JSON (ADR-016, ADR-020 record the numbers).
type Work struct {
	// Candidates counts transactions BuildBlock tried on a trial overlay,
	// Rejected those that did not apply, ParkedSkips offers of a parked
	// candidate, ParkedHigh the most one view held (chain.ExecStats).
	Candidates, Rejected, ParkedSkips uint64
	ParkedHigh                        int
	// Block sync and any node's fullest buffers (miner.Node).
	SyncSent, SyncAnswered, BlocksServed, SyncRetries uint64
	OrphansHigh, OrphansEvicted, MempoolHigh          int
	// GraphSigs counts signatures on graph multisignatures; DeploySigs
	// and CallSigs the transactions clients signed, landed or not (the
	// engine's participants make no plain transfers).
	GraphSigs, DeploySigs, CallSigs uint64
	// Where ed25519 ran (ADR-021): transaction signatures written ahead
	// of need by the run's SigCheckers or inline by their first read (the
	// rest of DeploySigs + CallSigs nobody read, so nobody wrote), graph
	// signatures ahead or at Start, multisig checks a presigned verdict
	// answered or that verified inline, and reads that waited.
	SigAhead, SigInline, GraphAhead, GraphInline uint64
	MultisigReady, MultisigInline, SigWaited     uint64
	SigCheckers                                  int
}

func (w *Work) add(o Work) {
	w.Candidates += o.Candidates
	w.Rejected += o.Rejected
	w.ParkedSkips += o.ParkedSkips
	w.ParkedHigh = max(w.ParkedHigh, o.ParkedHigh)
	w.SyncSent += o.SyncSent
	w.SyncAnswered += o.SyncAnswered
	w.BlocksServed += o.BlocksServed
	w.SyncRetries += o.SyncRetries
	w.OrphansHigh = max(w.OrphansHigh, o.OrphansHigh)
	w.OrphansEvicted += o.OrphansEvicted
	w.MempoolHigh = max(w.MempoolHigh, o.MempoolHigh)
	w.GraphSigs += o.GraphSigs
	w.DeploySigs += o.DeploySigs
	w.CallSigs += o.CallSigs
	w.SigInline += o.SigInline
	w.GraphInline += o.GraphInline
	w.MultisigReady += o.MultisigReady
	w.MultisigInline += o.MultisigInline
	w.SigWaited += o.SigWaited
}

// newShardResult starts shard's result for txs transactions.
func newShardResult(shard int, seed uint64, txs int) *ShardResult {
	return &ShardResult{Shard: shard, Seed: seed, Txs: txs,
		ByScenario: make(map[Scenario]ScenarioStats), latency: metrics.NewHist(latencyBounds...)}
}

// observePhase folds one completed phase duration into the shard's
// per-(phase, scenario) histogram.
func (r *ShardResult) observePhase(phase string, sc Scenario, d sim.Time) {
	if d < 0 {
		return
	}
	if r.phase == nil {
		r.phase = make(map[phaseKey]*metrics.Hist)
	}
	k := phaseKey{phase, sc}
	h := r.phase[k]
	if h == nil {
		h = metrics.NewHist(phaseBounds...)
		r.phase[k] = h
	}
	h.Observe(int64(d))
}

// record folds one graded transaction into the shard result.
func (r *ShardResult) record(sc Scenario, committed, aborted, violated bool, lat sim.Time, deploys, calls int) {
	r.Graded++
	switch {
	case committed:
		r.Commits++
	case aborted:
		r.Aborts++
	default:
		r.Stuck++
	}
	if violated {
		r.Violations++
	}
	r.Deploys += deploys
	r.Calls += calls
	r.latency.Observe(int64(lat))
	st := r.ByScenario[sc]
	st.add(committed, aborted, violated)
	r.ByScenario[sc] = st
}
