package main

import (
	"repro/internal/engine"
	"repro/internal/sim"
)

// warmupTxs sizes the untimed warm-up run that precedes the timed
// repetitions: large enough to grow the heap, fault in the pages and
// exercise key generation, small enough to stay near a second.
const warmupTxs = 400

// workload is one named engine configuration. Everything not listed
// here is engine.DefaultWorkload(): exponential arrivals with a mean of
// 20 virtual seconds per shard, at most 8 AC2Ts in flight per shard,
// ring sizes 2/3/4 weighted 6/3/1, two asset chains plus a witness
// chain.
type workload struct {
	Name        string
	Why         string
	Protocol    engine.Protocol
	Shards      int
	Txs         int
	Mix         engine.Mix
	BatchWindow sim.Time
}

// workloads is the benchmark's input table; names and rationales are
// mirrored in BENCHMARK.json (a test keeps the two in step). Sizes give
// 5–7 s per repetition on a 2-core sandbox.
var workloads = []workload{
	{
		Name:     "wn-default",
		Why:      "AC3WN at the ROADMAP's tracked shape (8 shards, mix 7/2/1/1, unbatched): graph multisig, per-AC2T WitnessSC and SPV evidence dominate; executor GC is idle.",
		Protocol: engine.ProtoAC3WN, Shards: 8, Txs: 2000,
		Mix: engine.Mix{Commit: 7, Abort: 2, Crash: 1, Race: 1},
	},
	{
		Name:     "wn-batched",
		Why:      "Same layers through the second decision path (batch window 180 s: merkle, threshold multisig, membership proofs); a per-AC2T-evidence optimisation must not cost this one.",
		Protocol: engine.ProtoAC3WN, Shards: 8, Txs: 1600,
		Mix:         engine.Mix{Commit: 7, Abort: 2, Crash: 1, Race: 1},
		BatchWindow: 180 * sim.Second,
	},
	{
		Name:     "wn-adverse",
		Why:      "AC3WN under partition and geo-skew (mix 4/1/1/1/2/0/2, no lossy): p2p drops, miner forks, deep reorgs and executor replay; the only workload that leaves the friendly-network regime.",
		Protocol: engine.ProtoAC3WN, Shards: 8, Txs: 1600,
		Mix: engine.Mix{Commit: 4, Abort: 1, Crash: 1, Race: 1, Partition: 2, Geo: 2},
	},
	{
		Name:     "htlc-substrate",
		Why:      "Bypass: HTLC swaps use no witness chain, multisig or SPV, so a crypto/spv/witness change predicts no move here while block building and header hashing show most.",
		Protocol: engine.ProtoHTLC, Shards: 8, Txs: 3200,
		Mix: engine.Mix{Commit: 7, Abort: 2},
	},
	{
		Name:     "wn-deep",
		Why:      "One long-lived shard world (1 x 1500): several state replays and block retirements per AC2T, the superlinear per-AC2T cost the ROADMAP has not explained.",
		Protocol: engine.ProtoAC3WN, Shards: 1, Txs: 1500,
		Mix: engine.Mix{Commit: 7, Abort: 2, Crash: 1, Race: 1},
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config builds the engine configuration for txs AC2Ts of the
// workload. Workers is pinned to 1: every gated run executes its
// shards one after another, so host timings are per-AC2T costs, not a
// function of how the scheduler interleaved two workers.
func (w workload) config(seed uint64, txs int) engine.Config {
	wl := engine.DefaultWorkload()
	wl.Protocol = w.Protocol
	wl.Txs = txs
	wl.Mix = w.Mix
	wl.BatchWindow = w.BatchWindow
	return engine.Config{Seed: seed, Shards: w.Shards, Workers: 1, Workload: wl}
}
