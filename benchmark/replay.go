package main

import (
	"bytes"
	"fmt"
	"runtime"

	"repro/internal/batch"
	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/merkle"
	"repro/internal/p2p"
	"repro/internal/sim"
	"repro/internal/spv"
	"repro/internal/swap"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/xchain"
)

// The layer replay [R]: build one small world at the engine's chain
// shape, drive commit-scenario AC2Ts of the workload's protocol through
// it, harvest the canonical blocks, and time each layer's public
// function over those real artefacts. Every call is a span under the
// replay span; a metric is the median over the harvested items.

const (
	replayAC2Ts = 40
	// The engine's shard-world shape (internal/engine/shard.go):
	// confirmation depth 2 on 3-miner, 10-second chains, two asset
	// chains plus the witness chain, AC2Ts admitted every 20 s.
	replayDepth        = 2
	replayArrivalEvery = 20 * sim.Second
	replayFunding      = 200_000
	replayAsset        = 10_000
	replayAbortAfter   = 25 * sim.Minute
	replayDeadline     = 3 * sim.Hour
	// fastOpBatch is how many back-to-back calls one span of a
	// nanosecond-scale operation covers, so the two clock reads that
	// bound the span stay under a few percent of it.
	fastOpBatch = 16
)

var (
	replayAssets  = []chain.ID{"asset-0", "asset-1"}
	replayWitness = chain.ID("witness")
)

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink any

// replayer times layer calls and records their spans.
type replayer struct {
	spans  *spanLog
	parent int
	m      map[string]float64
}

// timeEach calls fn(i) for every i below n, one span per item covering
// inner back-to-back calls, and returns the median nanoseconds per call
// (0 when there are no items: the layer is bypassed on this workload).
func (r *replayer) timeEach(name string, n, inner int, fn func(i int)) float64 {
	ds := make([]float64, n)
	for i := range ds {
		id := r.spans.begin(name, r.parent)
		for k := 0; k < inner; k++ {
			fn(i)
		}
		ds[i] = float64(r.spans.end(id)) / float64(inner)
	}
	return medianOrZero(ds)
}

// replayChainSpec is the engine's chain shape with pruning off, so
// every parent state stays readable for the replay.
func replayChainSpec(id chain.ID) xchain.ChainSpec {
	s := xchain.DefaultChainSpec(id)
	s.Params.ConfirmDepth = replayDepth
	return s
}

// ringSizes draws n ring sizes from the default workload's size
// distribution.
func ringSizes(rng *sim.RNG, n int) []int {
	dist := engine.DefaultWorkload().Sizes
	total := 0
	for _, s := range dist {
		total += s.Weight
	}
	sizes := make([]int, n)
	for i := range sizes {
		k := rng.Intn(total)
		for _, s := range dist {
			if k -= s.Weight; k < 0 {
				sizes[i] = s.Size
				break
			}
		}
	}
	return sizes
}

// replayWorld is a built world plus the participants of each AC2T.
type replayWorld struct {
	w     *xchain.World
	parts [][]*xchain.Participant
}

// buildWorld assembles the three chains and funds one disjoint
// participant set per AC2T, as a shard does.
func buildWorld(seed uint64, sizes []int) (*replayWorld, error) {
	b := xchain.NewBuilder(seed)
	for _, id := range replayAssets {
		b.Chain(replayChainSpec(id))
	}
	b.Chain(replayChainSpec(replayWitness))
	parts := make([][]*xchain.Participant, len(sizes))
	for i, size := range sizes {
		parts[i] = make([]*xchain.Participant, size)
		for j := range parts[i] {
			parts[i][j] = b.Participant(fmt.Sprintf("t%d-p%d", i, j))
			b.Fund(parts[i][j], assetChainOf(i, j), replayFunding)
		}
	}
	w, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &replayWorld{w: w, parts: parts}, nil
}

func assetChainOf(i, j int) chain.ID { return replayAssets[(i+j)%len(replayAssets)] }

// newRunner builds AC2T i as a ring over its participants, for the
// workload's protocol.
func (rw *replayWorld) newRunner(w workload, i int, coord *batch.Coordinator) (core.Runner, error) {
	ps := rw.parts[i]
	edges := make([]graph.Edge, len(ps))
	for j := range ps {
		edges[j] = graph.Edge{From: ps[j].Addr(), To: ps[(j+1)%len(ps)].Addr(), Asset: replayAsset, Chain: assetChainOf(i, j)}
	}
	g, err := graph.New(int64(i+1), edges...)
	if err != nil {
		return nil, err
	}
	if w.Protocol == engine.ProtoHTLC {
		return swap.New(rw.w, swap.Config{
			Graph: g, Participants: ps, Leader: ps[0],
			Delta:        sim.Time(replayDepth+1)*10*sim.Second + 20*sim.Second,
			ConfirmDepth: replayDepth,
		})
	}
	cfg := core.Config{
		Graph: g, Participants: ps, Initiator: ps[0],
		WitnessChain: replayWitness, WitnessDepth: replayDepth, AssetDepth: replayDepth,
		AbortAfter: replayAbortAfter,
	}
	if coord != nil {
		cfg.Batcher, cfg.BatchAddr = coord, coord.Addr()
	}
	return core.New(rw.w, cfg)
}

// drive runs the AC2Ts to settlement and reports how many committed.
func (rw *replayWorld) drive(w workload, seed uint64) (committed int, err error) {
	var coord *batch.Coordinator
	if w.BatchWindow > 0 {
		coord, err = batch.New(rw.w, replayWitness, seed^0xb5297a4d3f84d5a3, batch.Config{Window: w.BatchWindow, StableDepth: 48})
		if err != nil {
			return 0, err
		}
	}
	runners := make([]core.Runner, len(rw.parts))
	for i := range rw.parts {
		if runners[i], err = rw.newRunner(w, i, coord); err != nil {
			return 0, err
		}
		rw.w.Sim.At(sim.Time(i+1)*replayArrivalEvery, runners[i].Start)
	}
	started := sim.Time(len(runners)) * replayArrivalEvery
	done := func() bool {
		if rw.w.Sim.Now() < started {
			return false
		}
		for _, r := range runners {
			if !r.Settled() {
				return false
			}
		}
		return true
	}
	if !rw.w.Sim.RunUntilDone(done, sim.Minute, replayDeadline) {
		return 0, fmt.Errorf("replay world did not settle within %d virtual ms", replayDeadline)
	}
	rw.w.RunFor(30 * sim.Second)
	rw.w.StopMining()
	for _, r := range runners {
		if r.Grade().Committed() {
			committed++
		}
		r.Stop()
	}
	if coord != nil {
		coord.Close()
	}
	return committed, nil
}

// harvestedChain is one chain of the finished world: its ground-truth
// view and canonical blocks, genesis first.
type harvestedChain struct {
	view   *chain.Chain
	blocks []*chain.Block
}

func harvest(w *xchain.World) ([]harvestedChain, error) {
	var out []harvestedChain
	for _, id := range w.Chains() {
		hc := harvestedChain{view: w.View(id)}
		for h := uint64(0); h <= hc.view.Height(); h++ {
			b, ok := hc.view.CanonicalAt(h)
			if !ok {
				return nil, fmt.Errorf("chain %s: no canonical block at height %d", id, h)
			}
			hc.blocks = append(hc.blocks, b)
		}
		out = append(out, hc)
	}
	return out, nil
}

// harvestedEvidence is one SPV evidence blob found in a canonical
// contract call, decoded.
type harvestedEvidence struct {
	raw []byte
	ev  *spv.Evidence
}

// harvestEvidence finds every SPV evidence blob carried by a canonical
// contract call: bare (asset-contract redeem/refund), or inside an
// evidence list (authorize_redeem, batched redeem).
func harvestEvidence(chains []harvestedChain) []harvestedEvidence {
	var out []harvestedEvidence
	for _, hc := range chains {
		for _, b := range hc.blocks {
			for _, tx := range b.Txs {
				if tx.Kind != chain.TxCall || len(tx.Args) == 0 {
					continue
				}
				candidates := [][]byte{tx.Args}
				if list, err := contracts.DecodeEvidenceList(tx.Args); err == nil {
					candidates = append(candidates, list...)
				}
				for _, raw := range candidates {
					if ev, err := spv.Decode(raw); err == nil && len(ev.Headers) > 0 {
						out = append(out, harvestedEvidence{raw: raw, ev: ev})
					}
				}
			}
		}
	}
	return out
}

// paramsOf returns an empty value of the constructor-parameter type a
// contract type's deployments carry.
func paramsOf(contractType string) any {
	switch contractType {
	case contracts.TypePermissionless:
		return new(contracts.PermissionlessParams)
	case contracts.TypeWitness:
		return new(contracts.WitnessParams)
	case contracts.TypeHTLC:
		return new(contracts.HTLCParams)
	case contracts.TypeBatchWitness:
		return new(contracts.BatchWitnessParams)
	}
	return nil
}

// replayLayers runs the layer replay for w and adds the [R] metrics to
// m. An error means an artefact did not replay to the same result.
func replayLayers(w workload, seed uint64, shardTxs int, spans *spanLog, parent int, m map[string]float64) error {
	r := &replayer{spans: spans, parent: parent, m: m}
	rng := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)

	// xchain: building one shard's world, as engine.Run does per shard.
	var buildErr error
	r.m["xchain.build_world_ms"] = r.timeEach("xchain.build_world", 3, 1, func(i int) {
		rw, err := buildWorld(seed+uint64(i), ringSizes(rng, shardTxs))
		if err != nil {
			buildErr = err
		}
		sink = rw
	}) / 1e6
	if buildErr != nil {
		return buildErr
	}

	// core/swap: one AC2T alone on a quiet world.
	if err := r.singleAC2T(w, seed); err != nil {
		return err
	}

	rw, err := buildWorld(seed, ringSizes(rng, replayAC2Ts))
	if err != nil {
		return err
	}
	id := spans.begin("replay.drive", parent)
	committed, err := rw.drive(w, seed)
	spans.end(id)
	if err != nil {
		return err
	}
	chains, err := harvest(rw.w)
	if err != nil {
		return err
	}
	logf("%s: replay world: %d of %d AC2Ts committed, %d+%d+%d canonical blocks", w.Name, committed, replayAC2Ts,
		len(chains[0].blocks), len(chains[1].blocks), len(chains[2].blocks))

	if err := r.chainLayer(chains); err != nil {
		return err
	}
	if err := r.spvLayer(chains); err != nil {
		return err
	}
	r.cryptoLayer(chains, rw.parts[0][0].Key)
	r.substrateLayers()
	return nil
}

// singleAC2T measures one commit-scenario AC2T on an otherwise idle
// world: simulator events and host time from Start to settlement.
func (r *replayer) singleAC2T(w workload, seed uint64) error {
	rw, err := buildWorld(seed, []int{2})
	if err != nil {
		return err
	}
	runner, err := rw.newRunner(w, 0, nil)
	if err != nil {
		return err
	}
	rw.w.RunUntil(replayArrivalEvery)
	events := rw.w.Sim.Executed
	id := r.spans.begin("core.single_ac2t", r.parent)
	runner.Start()
	ok := rw.w.Sim.RunUntilDone(runner.Settled, 10*sim.Second, replayDeadline)
	r.m["core.single_ac2t_us"] = float64(r.spans.end(id)) / 1e3
	r.m["core.single_ac2t_events"] = float64(rw.w.Sim.Executed - events)
	if !ok || !runner.Grade().Committed() {
		return fmt.Errorf("a single %s AC2T on a quiet world did not commit", w.Protocol)
	}
	return nil
}

// replayable reports whether b carries work (a transaction besides its
// coinbase) and can be executed again on its parent state. A block
// whose own state is a flattened base (overlay depth 0) cannot:
// chain.ApplyBlock on its parent mutates contract objects that
// chain.State.flatten shares with the ancestors' layers, so only the
// first of several executions succeeds (README, Known hazards 1).
func (hc *harvestedChain) replayable(b *chain.Block) bool {
	if len(b.Txs) < 2 {
		return false
	}
	st, ok := hc.view.StateAt(b.Hash())
	return ok && st.OverlayDepth() > 0
}

// workBlock is a replayable block with its chain.
type workBlock struct {
	hc *harvestedChain
	b  *chain.Block
}

// chainLayer times the chain, vm and merkle layers over the harvested
// blocks and transactions.
func (r *replayer) chainLayer(chains []harvestedChain) error {
	var blocks []*chain.Block
	var work []workBlock
	var txs []*chain.Tx
	for i := range chains {
		hc := &chains[i]
		for _, b := range hc.blocks[1:] {
			blocks = append(blocks, b)
			if hc.replayable(b) {
				work = append(work, workBlock{hc, b})
				txs = append(txs, b.Txs[1:]...)
			}
		}
	}
	if len(work) == 0 {
		return fmt.Errorf("no canonical block carries a transaction")
	}

	r.m["chain.header_hash_ns"] = r.timeEach("chain.header_hash", len(blocks), fastOpBatch, func(i int) { sink = blocks[i].Header.Hash() })
	r.m["chain.check_pow_ns"] = r.timeEach("chain.check_pow", len(blocks), fastOpBatch, func(i int) { sink = blocks[i].Header.CheckPoW() })
	r.m["chain.seal_us"] = r.timeEach("chain.seal", len(blocks), 1, func(i int) {
		h := *blocks[i].Header
		h.Seal(0)
		sink = h.Nonce
	}) / 1e3

	encoded := make([][]byte, len(txs))
	r.m["chain.tx_encode_ns"] = r.timeEach("chain.tx_encode", len(txs), 1, func(i int) { encoded[i] = txs[i].Encode() })
	decoded := make([]*chain.Tx, len(txs))
	var decodeErr error
	r.m["chain.tx_decode_ns"] = r.timeEach("chain.tx_decode", len(txs), 1, func(i int) {
		if decoded[i], decodeErr = chain.DecodeTx(encoded[i]); decodeErr != nil {
			decoded[i] = txs[i]
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("a canonical transaction does not decode: %w", decodeErr)
	}
	// The decoded copies have never been verified, so this is the cold
	// path: one ed25519 verification, not the memoized verdict.
	sigOK := true
	r.m["chain.tx_verify_sig_ns"] = r.timeEach("chain.tx_verify_sig", len(decoded), 1, func(i int) { sigOK = decoded[i].VerifySig() && sigOK })
	for i, tx := range decoded {
		if tx.ID() != txs[i].ID() || !sigOK {
			return fmt.Errorf("a canonical transaction did not survive encode/decode/verify")
		}
	}

	if err := r.applyBlocks(work); err != nil {
		return err
	}

	// vm: the gob codec over the constructor parameters of every
	// canonical deployment.
	var params []any
	var paramBytes [][]byte
	for _, tx := range txs {
		if v := paramsOf(tx.ContractType); tx.Kind == chain.TxDeploy && v != nil {
			params = append(params, v)
			paramBytes = append(paramBytes, tx.Params)
		}
	}
	var gobErr error
	r.m["vm.gob_decode_ns"] = r.timeEach("vm.gob_decode", len(params), 1, func(i int) {
		if err := vm.DecodeGob(paramBytes[i], params[i]); err != nil {
			gobErr = err
		}
	})
	if gobErr != nil {
		return fmt.Errorf("canonical contract parameters do not decode: %w", gobErr)
	}
	r.m["vm.gob_encode_ns"] = r.timeEach("vm.gob_encode", len(params), 1, func(i int) { sink = vm.EncodeGob(params[i]) })

	// merkle: transaction-id leaves in windows of 16.
	var leaves []crypto.Hash
	for _, tx := range txs {
		id := tx.ID()
		leaves = append(leaves, merkle.LeafHash(id[:]))
	}
	const width = 16
	windows := len(leaves) / width
	r.m["merkle.root_ns"] = r.timeEach("merkle.root", windows, 1, func(i int) { sink = merkle.Root(leaves[i*width : (i+1)*width]) })
	proofOK := true
	r.m["merkle.prove_verify_ns"] = r.timeEach("merkle.prove_verify", windows, 1, func(i int) {
		win := leaves[i*width : (i+1)*width]
		p, err := merkle.Prove(win, i%width)
		proofOK = proofOK && err == nil && p.Verify(merkle.Root(win))
	})
	if !proofOK {
		return fmt.Errorf("a merkle proof over canonical transaction ids did not verify")
	}
	return nil
}

// applyBlocks times ApplyBlock on every block that carries work, then
// its transactions one by one through ApplyTx for the per-class costs.
func (r *replayer) applyBlocks(work []workBlock) error {
	parentOf := func(wb workBlock) (*chain.State, error) {
		st, ok := wb.hc.view.StateAt(wb.b.Header.Parent)
		if !ok {
			return nil, fmt.Errorf("chain %s height %d: parent state not retained", wb.b.Header.ChainID, wb.b.Header.Height)
		}
		return st, nil
	}
	var blockNs, perTxNs, perTxAllocs, deployNs, callNs []float64
	for _, wb := range work {
		parent, err := parentOf(wb)
		if err != nil {
			return err
		}
		params, reg := wb.hc.view.Params(), wb.hc.view.Registry()
		id := r.spans.begin("chain.apply_block", r.parent)
		_, err = chain.ApplyBlock(parent, reg, params, wb.b)
		d := float64(r.spans.end(id))
		if err != nil {
			return fmt.Errorf("canonical block rejected on replay: %w", err)
		}
		blockNs = append(blockNs, d)
		perTxNs = append(perTxNs, d/float64(len(wb.b.Txs)))

		// Allocations in a second pass: reading MemStats stops the
		// world, which must not land inside a timed span.
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sink, _ = chain.ApplyBlock(parent, reg, params, wb.b)
		runtime.ReadMemStats(&m1)
		perTxAllocs = append(perTxAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(len(wb.b.Txs)))

		child := parent.Child()
		for _, tx := range wb.b.Txs {
			id := r.spans.begin("chain.apply_tx "+tx.Kind.String(), r.parent)
			err := chain.ApplyTx(child, reg, params.ID, wb.b.Header.Height, wb.b.Header.Time, tx)
			d := float64(r.spans.end(id))
			if err != nil {
				return fmt.Errorf("canonical transaction rejected on replay: %w", err)
			}
			switch tx.Kind {
			case chain.TxDeploy:
				deployNs = append(deployNs, d)
			case chain.TxCall:
				callNs = append(callNs, d)
			}
		}
	}
	if len(deployNs) == 0 || len(callNs) == 0 {
		return fmt.Errorf("replay world produced %d deployments and %d calls", len(deployNs), len(callNs))
	}
	r.m["chain.apply_block_us"] = median(blockNs) / 1e3
	r.m["chain.apply_ns_per_tx"] = median(perTxNs)
	r.m["chain.apply_allocs_per_tx"] = median(perTxAllocs)
	r.m["chain.apply_deploy_us"] = median(deployNs) / 1e3
	r.m["chain.apply_call_us"] = median(callNs) / 1e3
	return nil
}

// spvLayer times SPV evidence over every blob harvested from a
// canonical call. Build is replayed in situ: each chain is re-grown
// block by block, and an evidence blob is rebuilt at the moment the
// view's tip is the blob's last header — the view its author had —
// and must come out byte-identical. HTLC worlds carry no evidence;
// the metrics are then 0.
func (r *replayer) spvLayer(chains []harvestedChain) error {
	evs := harvestEvidence(chains)
	var verifyErr error
	r.m["spv.evidence_decode_us"] = r.timeEach("spv.evidence_decode", len(evs), 1, func(i int) {
		ev, _ := spv.Decode(evs[i].raw)
		sink = ev
	}) / 1e3

	byID := make(map[chain.ID]*harvestedChain)
	for i := range chains {
		byID[chains[i].view.Params().ID] = &chains[i]
	}
	r.m["spv.evidence_verify_us"] = r.timeEach("spv.evidence_verify", len(evs), 1, func(i int) {
		ev := evs[i].ev
		hc := byID[ev.ChainID]
		if hc == nil {
			verifyErr = fmt.Errorf("evidence names unknown chain %q", ev.ChainID)
			return
		}
		cp, ok := hc.view.Block(ev.Headers[0].Parent)
		if !ok {
			verifyErr = fmt.Errorf("evidence checkpoint not on chain %s", ev.ChainID)
			return
		}
		if _, err := ev.Verify(cp.Header, replayDepth); err != nil {
			verifyErr = err
		}
	}) / 1e3
	if verifyErr != nil {
		return fmt.Errorf("canonical evidence did not verify: %w", verifyErr)
	}

	sizes := make([]float64, len(evs))
	atTip := make(map[crypto.Hash][]int) // last header hash → evidence indexes
	for i, e := range evs {
		sizes[i] = float64(len(e.raw))
		last := e.ev.Headers[len(e.ev.Headers)-1].Hash()
		atTip[last] = append(atTip[last], i)
	}
	r.m["spv.evidence_bytes"] = medianOrZero(sizes)

	return r.regrow(chains, evs, atTip)
}

// regrow re-grows every chain block by block on a fresh view of its
// executor (every block is a cache hit there, so growing is cheap). At
// each height it times BuildBlock over the transactions the canonical
// block carries and checks the rebuilt block commits to the same ones;
// after adopting the canonical block it rebuilds the evidence blobs
// whose author saw exactly this tip.
func (r *replayer) regrow(chains []harvestedChain, evs []harvestedEvidence, atTip map[crypto.Hash][]int) error {
	var blockNs, evidenceNs []float64
	for _, hc := range chains {
		view := hc.view.Executor().NewView()
		for _, b := range hc.blocks[1:] {
			if hc.replayable(b) {
				miner := b.Txs[0].Outs[0].Owner
				id := r.spans.begin("chain.build_block", r.parent)
				rebuilt, _, invalid := view.BuildBlock(miner, b.Header.Time, b.Txs[1:])
				blockNs = append(blockNs, float64(r.spans.end(id)))
				if len(invalid) > 0 || rebuilt.Header.TxRoot != b.Header.TxRoot {
					return fmt.Errorf("chain %s height %d: BuildBlock over the canonical transactions built a different block", b.Header.ChainID, b.Header.Height)
				}
			}
			if _, err := view.AddBlock(b); err != nil {
				return fmt.Errorf("chain %s height %d: canonical block rejected on replay: %w", b.Header.ChainID, b.Header.Height, err)
			}
			for _, i := range atTip[b.Hash()] {
				e := evs[i]
				tx, err := chain.DecodeTx(e.ev.TxBytes)
				if err != nil {
					return err
				}
				id := r.spans.begin("spv.evidence_build", r.parent)
				rebuilt, err := spv.Build(view, e.ev.Headers[0].Parent, tx.ID(), replayDepth)
				evidenceNs = append(evidenceNs, float64(r.spans.end(id)))
				if err != nil || !bytes.Equal(rebuilt.Encode(), e.raw) {
					return fmt.Errorf("evidence rebuilt at its author's tip differs from the canonical blob (%v)", err)
				}
			}
		}
	}
	if len(blockNs) == 0 {
		return fmt.Errorf("no canonical block carries a transaction")
	}
	if len(evs) > 0 && len(evidenceNs) == 0 {
		return fmt.Errorf("none of %d evidence blobs could be rebuilt on the canonical chain", len(evs))
	}
	r.m["chain.build_block_us"] = median(blockNs) / 1e3
	r.m["spv.evidence_build_us"] = medianOrZero(evidenceNs) / 1e3
	return nil
}

// cryptoLayer times signing, verification and hashing over the
// harvested transactions and headers, and the multisignature calls
// over block hashes standing in for graph digests.
func (r *replayer) cryptoLayer(chains []harvestedChain, key *crypto.KeyPair) {
	var signed []*chain.Tx
	var headers [][]byte
	var digests []crypto.Hash
	for _, hc := range chains {
		for _, b := range hc.blocks[1:] {
			headers = append(headers, b.Header.Encode())
			digests = append(digests, b.Hash())
			signed = append(signed, b.Txs[1:]...)
		}
	}
	r.m["crypto.sign_ns"] = r.timeEach("crypto.sign", len(signed), 1, func(i int) { sink = key.Sign(signed[i].SigHash().Bytes()) })
	r.m["crypto.verify_ns"] = r.timeEach("crypto.verify", len(signed), 1, func(i int) { sink = signed[i].Sig.Verify(signed[i].SigHash().Bytes()) })
	r.m["crypto.sum_ns"] = r.timeEach("crypto.sum", len(headers), fastOpBatch, func(i int) { sink = crypto.Sum(headers[i]) })

	rng := sim.NewRNG(1)
	rand := crypto.NewRandReader(rng.Uint64)
	keys := make([]*crypto.KeyPair, 4)
	addrs := make([]crypto.Address, len(keys))
	for i := range keys {
		keys[i] = crypto.MustGenerateKey(rand)
		addrs[i] = keys[i].Addr
	}
	n := min(len(digests), 64)
	full := make([]*crypto.MultiSig, n)
	r.m["crypto.multisig_add_ns"] = r.timeEach("crypto.multisig_add", n, 1, func(i int) {
		ms := crypto.NewMultiSig(digests[i])
		ms.Add(keys[0])
		full[i] = ms
	})
	for _, ms := range full {
		ms.Add(keys[1])
		ms.Add(keys[2])
	}
	r.m["crypto.multisig_complete_ns"] = r.timeEach("crypto.multisig_complete", n, 1, func(i int) { sink = full[i].Complete(addrs[:3]) })
	r.m["crypto.multisig_threshold_ns"] = r.timeEach("crypto.multisig_threshold", n, 1, func(i int) { sink = full[i].CompleteThreshold(addrs, 3) })
}

// substrateLayers times the layers that need no artefacts: simulator
// dispatch, gossip broadcast, and trace span emission.
func (r *replayer) substrateLayers() {
	const batches, perBatch = 32, 1024
	noop := func() {}

	s := sim.New(1)
	r.m["sim.dispatch_ns"] = r.timeEach("sim.dispatch", batches, 1, func(int) {
		for k := 0; k < perBatch; k++ {
			s.After(sim.Time(k%7), noop)
		}
		s.Run()
	}) / perBatch

	ps := sim.New(1)
	net := p2p.NewNetwork(ps, p2p.LatencyModel{Base: 100, Jitter: 200})
	for id := p2p.NodeID(0); id < 3; id++ {
		net.Register(id, func(p2p.NodeID, any) {})
	}
	r.m["p2p.broadcast_ns"] = r.timeEach("p2p.broadcast", batches, 1, func(int) {
		for k := 0; k < perBatch; k++ {
			net.Broadcast(p2p.NodeID(k%3), k)
		}
		ps.Run()
	}) / perBatch

	rec := trace.NewRecorder(0, 0)
	r.m["trace.span_emit_ns"] = r.timeEach("trace.span_emit", batches, 1, func(i int) {
		for k := 0; k < perBatch; k++ {
			rec.Span("tx", "phase", int64(k), int64(k+1), i)
		}
	}) / perBatch
}
