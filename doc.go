// Package repro is a from-scratch Go reproduction of "Atomic
// Commitment Across Blockchains" (Zakhary, Agrawal, El Abbadi — VLDB
// 2020): the AC3WN protocol, its AC3TW centralized-witness strawman,
// the Nolan/Herlihy HTLC baselines, and the simulated permissionless
// blockchain substrate they all run on.
//
// The public surface is organized under internal/ (this module is a
// self-contained research artifact; the examples/ and cmd/ trees show
// every intended entry point):
//
//   - internal/sim — deterministic discrete-event simulator
//   - internal/crypto, internal/merkle — hashing, signatures, ms(D),
//     the witness-signature lock, Merkle proofs
//   - internal/chain, internal/vm, internal/miner, internal/p2p —
//     PoW blockchains with a UTXO ledger, smart contracts, miners,
//     gossip, forks and reorgs
//   - internal/wire — the one wire codec: exact-size append encoders
//     and a bounds-checked cursor that decodes by aliasing its input
//     (docs/architecture/ADR-012-one-wire-codec.md)
//   - internal/spv — cross-chain evidence (Section 4.3): checkpoint,
//     header chain, inclusion proof; verified inside the contracts
//   - internal/graph — AC2T graphs D = (V, E), Diam(D), ms(D)
//   - internal/contracts — Algorithm 1 as one template, Algorithms 2–4
//     and the HTLC as contract objects, plus the batch-decision ledger
//   - internal/protocol — the reconciler runtime every commitment
//     protocol is a thin instance over: subscriptions gated by
//     wait-sets, inbox, throttles, timers, the per-edge deploy ledger,
//     the settle phase and its ledger, crash → Resume lifecycle
//     (docs/architecture/ADR-004-protocol-runtime.md, ADR-013/014/017)
//   - internal/swap — Nolan/Herlihy baselines
//   - internal/core — AC3WN, AC3TW, and core.Runner: the lifecycle and
//     typed fault surface every driver works through
//     (docs/architecture/ADR-013-thin-protocols.md)
//   - internal/attack — the Section 6.3 analysis
//   - internal/bench — the evaluation as one table of experiments,
//     the Section 6.2 fee model next to its experiment
//   - internal/engine — sharded concurrent orchestration: thousands
//     of AC2Ts driven in parallel across independent deterministic
//     shard worlds, with backpressure, a protocol table and a scenario
//     table, and aggregated results; engine.NewRunner is the one way
//     any driver stands an AC2T up, engine.RunOne the single-AC2T lab
//     (docs/architecture/ADR-001-engine.md, ADR-015, ADR-019)
//   - internal/lint — ac3lint, the static-analysis suite that
//     machine-checks the determinism contract: no wall clocks, no
//     ambient RNGs, no map-order leaks into serialized output, no
//     concurrency inside shard-world packages, no mutable globals,
//     no encoding/gob (docs/architecture/ADR-009-determinism-lint.md)
//
// Command entry points: cmd/ac3bench regenerates the paper's tables
// and figures, cmd/ac3sim runs one configurable AC2T end to end,
// cmd/ac3engine runs high-throughput mixed workloads on the engine and
// emits JSON aggregates, and cmd/ac3lint runs the determinism-contract
// analyzers (a blocking CI gate).
//
// Hot-path discipline (docs/architecture/ADR-010-hash-and-sign-once.md):
// every hash and signature on the AC2T path is computed once — a block
// keeps its header digest, a transaction its id and signature verdict,
// a run its ms(GD), signed once at Start — and header hashing, proof-
// of-work grinding and merkle node hashing do not touch the heap. The
// repository's benchmark (benchmark/, BENCHMARK.json) is what a
// performance claim is measured with.
//
// Wire discipline (docs/architecture/ADR-012-one-wire-codec.md): every
// value that crosses a chain boundary — transaction, header, SPV
// evidence, contract parameters and call arguments — has EncodedLen and
// AppendTo, so an encoding is one exact-size allocation with nested
// values appended straight into it, and is decoded over the shared
// internal/wire cursor, which aliases the (immutable) input instead of
// copying it and bounds every count before allocating for it. The
// format is canonical: decode then encode reproduces the input. There
// is no reflection-based codec in the module.
//
// State discipline (docs/architecture/ADR-011-one-execution-per-block.md):
// the chain executor runs every block once. A block's ledger state is an
// overlay holding exactly what the block changed; when the executor's GC
// drops the state it keeps that delta as flat slices, re-derives a
// pruned state by re-mounting deltas, and advances its retire-floor
// state by folding them in place — re-execution remains only for a
// block whose delta went with a fork that looked dead. Per-AC2T cost no
// longer grows with how long a world has been running, except for the
// copy and GC scan of the ledger itself.
//
// The benchmarks in bench_test.go regenerate every table and figure;
// see EXPERIMENTS.md for measured-vs-paper results and DESIGN.md for
// the system inventory.
package repro
