package engine

import (
	"fmt"

	"repro/internal/sim"
)

// Protocol selects which commitment protocol a workload drives
// through the engine.
type Protocol string

// The three protocol families the repository implements.
const (
	ProtoAC3WN Protocol = "ac3wn" // the paper's contribution (Section 4.2)
	ProtoAC3TW Protocol = "ac3tw" // centralized-witness strawman (Section 4.1)
	ProtoHTLC  Protocol = "htlc"  // Nolan/Herlihy hashlock baseline
)

// Scenario is the behavioral template a generated AC2T follows.
type Scenario string

// The scenario mix: well-behaved commits, participant-declines
// aborts, the paper's Section 1 crash-recovery hazard, an adversarial
// decision race (a rogue participant pushing authorize_refund the
// moment SCw appears, trying to flip the outcome), and the network
// adversity trio — a decision-window partition of the transaction's
// decision chain, sustained gossip loss on every chain the AC2T
// touches, and geo-skewed per-chain latency so confirmation depths
// race realistically.
const (
	ScenarioCommit    Scenario = "commit"
	ScenarioAbort     Scenario = "abort"
	ScenarioCrash     Scenario = "crash"
	ScenarioRace      Scenario = "race"
	ScenarioPartition Scenario = "partition"
	ScenarioLossy     Scenario = "lossy"
	ScenarioGeo       Scenario = "geo"
)

// Mix weighs the scenarios in a workload, one field per row of the
// scenario table (scenario.go). Zero-weight scenarios never occur; an
// all-zero Mix is rejected.
type Mix struct {
	Commit    int `json:"commit"`
	Abort     int `json:"abort"`
	Crash     int `json:"crash"`
	Race      int `json:"race"`
	Partition int `json:"partition"`
	Lossy     int `json:"lossy"`
	Geo       int `json:"geo"`
}

// Adversity configures the network-hostility scenarios. The knob only
// matters for transactions that draw lossy; the draws themselves (and
// every loss decision they cause) come from the per-shard forked RNGs,
// so enabling adversity keeps runs a pure function of the master seed.
// How long a lossy window or a partition lasts is a constant of the
// scenario table (lossyFor, partitionFor).
type Adversity struct {
	// Loss is the per-message gossip drop probability a lossy-scenario
	// AC2T imposes on every network it touches while in flight. Block
	// sync and EnsureTx resubmission must carry the run.
	Loss float64 `json:"loss"`
}

// SizeWeight weighs one AC2T graph size (ring participant count) in
// the workload's size distribution.
type SizeWeight struct {
	Size   int `json:"size"`
	Weight int `json:"weight"`
}

// Workload describes the transaction stream each shard generates and
// executes. All times are virtual.
type Workload struct {
	// Protocol selects the runner family.
	Protocol Protocol `json:"protocol"`
	// Txs is the total number of AC2Ts across all shards.
	Txs int `json:"txs"`
	// ArrivalEvery is the mean exponential interarrival time of AC2Ts
	// within one shard (the per-shard offered load).
	ArrivalEvery sim.Time `json:"arrival_every_ms"`
	// TxTimeout is the per-transaction grading deadline: a run that
	// has not settled by then is graded as-is (stuck counts surface
	// in the aggregate rather than hanging the shard).
	TxTimeout sim.Time `json:"tx_timeout_ms"`
	// Sizes is the AC2T graph-size distribution.
	Sizes []SizeWeight `json:"sizes"`
	// Mix weighs the scenarios.
	Mix Mix `json:"mix"`
	// Adversity configures the partition/lossy/geo scenarios.
	Adversity Adversity `json:"adversity"`
	// BatchWindow enables witness-side decision batching (AC3WN only):
	// each shard runs one batching coordinator that collects the AC2T
	// decisions arriving within the window and publishes one
	// merkle-committed, threshold-attested commit_batch transaction
	// per decision set. Zero keeps the per-AC2T SCw decision path.
	BatchWindow sim.Time `json:"batch_window_ms"`
}

// DefaultWorkload returns a mixed AC3WN workload: mostly commits,
// with aborts, one crash-recovery participant, and adversarial
// decision races sprinkled in; a lossy draw drops 25 % of gossip.
func DefaultWorkload() Workload {
	return Workload{
		Protocol:     ProtoAC3WN,
		Txs:          100,
		ArrivalEvery: 20 * sim.Second,
		TxTimeout:    45 * sim.Minute,
		Sizes:        []SizeWeight{{Size: 2, Weight: 6}, {Size: 3, Weight: 3}, {Size: 4, Weight: 1}},
		Mix:          Mix{Commit: 7, Abort: 2, Crash: 1, Race: 1},
		Adversity:    Adversity{Loss: 0.25},
	}
}

// validate rejects unusable workloads.
func (wl *Workload) validate() error {
	proto := protocolOf(wl.Protocol)
	if proto == nil {
		return fmt.Errorf("engine: unknown protocol %q", wl.Protocol)
	}
	if wl.Txs <= 0 {
		return fmt.Errorf("engine: workload needs Txs > 0")
	}
	if wl.ArrivalEvery <= 0 || wl.TxTimeout <= 0 {
		return fmt.Errorf("engine: non-positive workload times")
	}
	if len(wl.Sizes) == 0 {
		return fmt.Errorf("engine: empty size distribution")
	}
	total := 0
	for _, s := range wl.Sizes {
		if s.Size < 2 {
			return fmt.Errorf("engine: AC2T size %d < 2", s.Size)
		}
		if s.Weight < 0 {
			return fmt.Errorf("engine: negative size weight")
		}
		total += s.Weight
	}
	if total == 0 {
		return fmt.Errorf("engine: all size weights zero")
	}
	for _, sc := range scenarios {
		w := *sc.weight(&wl.Mix)
		if w < 0 {
			return fmt.Errorf("engine: negative mix weight")
		}
		if w > 0 && sc.check != nil {
			if err := sc.check(wl); err != nil {
				return err
			}
		}
	}
	if wl.Mix.total() == 0 {
		return fmt.Errorf("engine: all mix weights zero")
	}
	if wl.BatchWindow < 0 {
		return fmt.Errorf("engine: negative batch window")
	}
	if wl.BatchWindow > 0 {
		if !proto.batches {
			return fmt.Errorf("engine: %q has no witness-chain decisions to batch", wl.Protocol)
		}
		if wl.BatchWindow >= wl.TxTimeout {
			return fmt.Errorf("engine: batch window %dms cannot cover the whole %dms grading deadline",
				wl.BatchWindow, wl.TxTimeout)
		}
	}
	return nil
}

// drawSize samples the graph-size distribution.
func (wl *Workload) drawSize(rng *sim.RNG) int {
	total := 0
	for _, s := range wl.Sizes {
		total += s.Weight
	}
	n := rng.Intn(total)
	for _, s := range wl.Sizes {
		n -= s.Weight
		if n < 0 {
			return s.Size
		}
	}
	return wl.Sizes[len(wl.Sizes)-1].Size
}
