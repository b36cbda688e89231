package main

// metricDef describes one reported metric. For an end-to-end metric
// Kind says which clock the number lives on: "sim" metrics are results
// of the simulated system and repeat exactly per seed; "host" metrics
// are what the simulator costs to run and carry sandbox noise. For a
// per-layer metric Kind is where the number comes from: A = aggregate
// count of an untraced repetition, P = in-situ CPU profile, R = layer
// replay over harvested artefacts, H = the harness's own bookkeeping.
type metricDef struct {
	Name   string
	Unit   string
	Kind   string
	Better string
	Bound  float64 // end-to-end only
}

// endToEnd is the gated metric list, mirrored with its bounds in
// BENCHMARK.json. Every metric is non-zero on every workload, which is
// why the share metrics count what went right (settled, atomic) and
// the paper's cost metric counts all contract operations, not just the
// witness chain's.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Kind: "host", Better: "lower", Bound: 0.25},
	{Name: "wall_us_per_ac2t", Unit: "us", Kind: "host", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_ac2t", Unit: "us", Kind: "host", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_ac2t", Unit: "count", Kind: "host", Better: "lower", Bound: 0.16},
	{Name: "alloc_bytes_per_ac2t", Unit: "B", Kind: "host", Better: "lower", Bound: 0.16},
	{Name: "peak_sys_mib", Unit: "MiB", Kind: "host", Better: "lower", Bound: 0.25},
	{Name: "sim_latency_p50_ms", Unit: "ms", Kind: "sim", Better: "lower", Bound: 0.22},
	{Name: "sim_latency_p99_ms", Unit: "ms", Kind: "sim", Better: "lower", Bound: 0.25},
	{Name: "sim_tps", Unit: "1/s", Kind: "sim", Better: "higher", Bound: 0.25},
	{Name: "contract_ops_per_commit", Unit: "count", Kind: "sim", Better: "lower", Bound: 0.1},
	{Name: "sim_events_per_ac2t", Unit: "count", Kind: "sim", Better: "lower", Bound: 0.1},
	{Name: "settled_share", Unit: "ratio", Kind: "sim", Better: "higher", Bound: 0.012},
	{Name: "atomic_share", Unit: "ratio", Kind: "sim", Better: "higher", Bound: 0.005},
}

// perLayer is the traced run's metric list (layer = package name).
// benchmark/README.md records which end-to-end metric each should
// move, and on which workload.
var perLayer = []metricDef{
	{Name: "sim.events_per_ac2t", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "sim.dispatch_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "sim.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "crypto.sign_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "crypto.verify_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "crypto.multisig_add_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "crypto.multisig_complete_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "crypto.multisig_threshold_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "crypto.sum_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "crypto.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "crypto.sign.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "crypto.verify.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "crypto.multisig_add.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "merkle.root_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "merkle.prove_verify_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "merkle.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "chain.blocks_mined_per_ac2t", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "chain.blocks_executed_per_ac2t", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "chain.exec_cache_hit_rate", Unit: "ratio", Kind: "A", Better: "higher"},
	{Name: "chain.state_replays_per_ac2t", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "chain.states_pruned_per_ac2t", Unit: "count", Kind: "A", Better: "higher"},
	{Name: "chain.blocks_retired_per_ac2t", Unit: "count", Kind: "A", Better: "higher"},
	{Name: "chain.deploys_per_ac2t", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "chain.calls_per_ac2t", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "chain.header_hash_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "chain.check_pow_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "chain.seal_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "chain.tx_verify_sig_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "chain.tx_encode_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "chain.tx_decode_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "chain.build_block_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "chain.apply_block_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "chain.apply_ns_per_tx", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "chain.apply_allocs_per_tx", Unit: "count", Kind: "R", Better: "lower"},
	{Name: "chain.apply_deploy_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "chain.apply_call_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "chain.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "chain.header_hash.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "chain.build_block.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "chain.apply_tx.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "vm.gob_encode_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "vm.gob_decode_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "vm.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "contracts.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "gob.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "spv.evidence_build_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "spv.evidence_verify_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "spv.evidence_decode_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "spv.evidence_bytes", Unit: "B", Kind: "R", Better: "lower"},
	{Name: "spv.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "spv.verify.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "p2p.msgs_dropped_per_ac2t", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "p2p.broadcast_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "p2p.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "miner.forks_per_ac2t", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "miner.max_reorg_depth", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "miner.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "miner.mine_one.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "protocol.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "protocol.drive.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "core.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "swap.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "core.single_ac2t_events", Unit: "count", Kind: "R", Better: "lower"},
	{Name: "core.single_ac2t_us", Unit: "us", Kind: "R", Better: "lower"},
	{Name: "core.witness_txs_per_commit", Unit: "ratio", Kind: "A", Better: "lower"},
	{Name: "core.witness_bytes_per_commit", Unit: "B", Kind: "A", Better: "lower"},

	{Name: "batch.batches_published", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "batch.decisions_per_batch", Unit: "count", Kind: "A", Better: "higher"},
	{Name: "batch.republishes", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "batch.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "xchain.build_world_ms", Unit: "ms", Kind: "R", Better: "lower"},
	{Name: "xchain.stuck", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "xchain.atomicity_violations", Unit: "count", Kind: "A", Better: "lower"},
	{Name: "xchain.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "engine.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "engine.parallel_speedup_w2", Unit: "ratio", Kind: "H", Better: "higher"},

	{Name: "trace.span_emit_ns", Unit: "ns", Kind: "R", Better: "lower"},
	{Name: "trace.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "trace.engine_overhead_pct", Unit: "%", Kind: "H", Better: "lower"},

	{Name: "runtime.malloc.cum_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "runtime.gc_bg_share", Unit: "ratio", Kind: "P", Better: "lower"},
	{Name: "runtime.gc_cycles_per_kac2t", Unit: "count", Kind: "H", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Kind: "H", Better: "lower"},
	{Name: "other.cpu_self_share", Unit: "ratio", Kind: "P", Better: "lower"},

	{Name: "harness.profile_overhead_pct", Unit: "%", Kind: "H", Better: "lower"},
	{Name: "harness.rep_spread_pct", Unit: "%", Kind: "H", Better: "lower"},
}
