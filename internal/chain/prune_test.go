package chain

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// pruneParams returns the executor-GC test configuration: a prune
// horizon of 8 (clearing the default ConfirmDepth 6) and optional
// history retirement.
func pruneParams(prune, retire int) Params {
	p := DefaultParams("prunenet")
	p.DifficultyBits = 8
	p.PruneDepth = prune
	p.RetireDepth = retire
	return p
}

// mineChain extends view v with n empty blocks and returns them.
func mineChain(t *testing.T, v *Chain, miner crypto.Address, n int, from sim.Time) []*Block {
	t.Helper()
	blocks := make([]*Block, n)
	for i := range blocks {
		blocks[i] = mineOn(t, v, miner, from+sim.Time(i+1)*10)
	}
	return blocks
}

// TestPruneDropsBuriedStates pins the tentpole's memory claim: with
// PruneDepth set, states buried deeper than the horizon below the tip
// are dropped (Pruned counts them, StatesLive stays bounded), while a
// deep read below the horizon transparently re-derives the state from
// the retained deltas — without running a block again, and to the state
// ApplyBlock produced.
func TestPruneDropsBuriedStates(t *testing.T) {
	rng := sim.NewRNG(90)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	miner := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	exec, err := NewExecutor(pruneParams(8, 0), nil, GenesisAlloc{key.Addr: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	v := exec.NewView()
	blocks := mineChain(t, v, miner.Addr, 40, 0)

	st := exec.Stats()
	if st.Pruned == 0 {
		t.Fatalf("no states pruned after 40 blocks at horizon 8: %+v", st)
	}
	// Retained: horizon window + genesis (the replay base).
	if st.StatesLive > 8+2 {
		t.Fatalf("StatesLive = %d, want <= %d", st.StatesLive, 8+2)
	}
	// The state of a deeply buried block was pruned...
	deep := blocks[4] // height 5, far below horizon 40-8=32
	if exec.blocks[deep.Hash()].state != nil {
		t.Fatalf("state at height %d survived pruning", deep.Header.Height)
	}
	// ...but reads re-derive it from the blocks' deltas, and the result
	// is exactly the ApplyBlock verdict (same total value as an unpruned
	// replica).
	replayed, ok := v.StateAt(deep.Hash())
	if !ok {
		t.Fatal("StateAt below the prune horizon failed")
	}
	if got := exec.Stats(); got.Replays != 0 {
		t.Fatalf("deep read re-executed blocks whose deltas are retained: %+v", got)
	}
	if exec.blocks[deep.Hash()].state == nil {
		t.Fatal("re-derived endpoint not memoized")
	}
	wantValue := uint64(100_000) + uint64(deep.Header.Height)*uint64(exec.params.BlockReward)
	if uint64(replayed.TotalValue()) != wantValue {
		t.Fatalf("replayed state TotalValue = %d, want %d", replayed.TotalValue(), wantValue)
	}
	// Executed counts no replay work: accounting is identical with
	// pruning on or off.
	if got := exec.Stats(); got.Executed != uint64(len(blocks))+1 {
		t.Fatalf("Executed = %d, want %d (replays must not count)", got.Executed, len(blocks)+1)
	}
}

// vaultChain returns a view of a pruning executor whose registry knows
// the vault, its block at height 2 deploying one with the miner's
// genesis grant and the block above opening it: the first spends,
// adds, stores a contract and sets its balance, so its layer holds a
// slice of each kind, carved from the executor's slabs but for the
// contract, which lies in its block.
func vaultChain(t *testing.T, seed uint64, retire int) (exec *Executor, v *Chain, miner *crypto.KeyPair, deploy *Block) {
	t.Helper()
	rng := sim.NewRNG(seed)
	miner = crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	reg := vm.NewRegistry()
	reg.Register("vault", func() vm.Contract { return &vault{} })
	exec, err := NewExecutor(pruneParams(8, retire), reg, GenesisAlloc{miner.Addr: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	v = exec.NewView()
	var grant OutPoint
	for op := range ownedMap(v.TipState(), miner.Addr) {
		grant = op
	}
	tx := NewDeploy(miner, 1, []TxIn{{Prev: grant}}, []TxOut{{Value: 99_000, Owner: miner.Addr}},
		"vault", vaultParams{Recipient: miner.Addr, Key: 7}.Encode(), 1_000)
	mineChain(t, v, miner.Addr, 1, 0)
	deploy = mineOn(t, v, miner.Addr, 20, tx)
	mineOn(t, v, miner.Addr, 30, NewCall(miner, 2, tx.ContractAddr(), "open", []byte{7}, nil, nil, 0))
	return exec, v, miner, deploy
}

// TestPrunedStateIsCollected: once no live state rests on it, a pruned
// block's State is garbage even though the executor keeps the block's
// delta — the delta is the layer's slices, carved from the executor's
// slabs or lying in the block, apart from the State, and pins neither
// it nor its parents.
func TestPrunedStateIsCollected(t *testing.T) {
	exec, v, miner, b := vaultChain(t, 91, 0)
	r := exec.blocks[b.Hash()]
	held := weak.Make(r.state)
	// Past a flatten and the prune horizon: the live states rest on a
	// base of their own.
	mineChain(t, v, miner.Addr, 2*flattenDepth, 40)
	runtime.GC()
	d := r.delta
	if r.state != nil || !r.kept || len(d.added) != 2 || len(d.spent) != 1 || len(d.contracts) != 1 || len(d.balances) != 1 {
		t.Fatalf("block at height 2: state %p, delta kept %v with %d added, %d spent, %d contracts, %d balances; want pruned to 2, 1, 1, 1",
			r.state, r.kept, len(d.added), len(d.spent), len(d.contracts), len(d.balances))
	}
	if held.Value() != nil {
		t.Fatal("the pruned block's State survived a collection while its delta was kept")
	}
	if st, ok := exec.stateOf(b.Hash()); !ok || st.OverlayDepth() == 0 {
		t.Fatal("the pruned block's state was not re-mounted from its delta")
	}
}

// TestRetiredBlockIsCollected: a retired block, and the contract its
// layer stored — since replaced by the call above it — are garbage even
// though the slabs its record and its layer's slices were carved from
// live on: here because the test holds the record's slot and the
// slices, and a live block stores a second contract, in a run because
// the blocks above share the slabs. Retire zeroes the record's slot;
// the layer's slabs hold no pointer.
func TestRetiredBlockIsCollected(t *testing.T) {
	exec, v, miner, r, change, carved, held, stored := func() (*Executor, *Chain, *crypto.KeyPair, *record, OutPoint, blockDelta, weak.Pointer[Block], weak.Pointer[vault]) {
		exec, v, miner, b := vaultChain(t, 92, 16)
		r := exec.blocks[b.Hash()]
		d := r.state.own
		return exec, v, miner, r, OutPoint{TxID: b.Txs[1].ID()}, blockDelta{added: d.added, spent: d.spent, balances: d.balances},
			weak.Make(b), weak.Make(d.contracts[0].c.(*vault))
	}()
	// Past a flatten and the retire horizon: no live state's overlay
	// chain reaches down to the block's.
	mineChain(t, v, miner.Addr, 2*flattenDepth, 40)
	mineOn(t, v, miner.Addr, sim.Time(50+20*flattenDepth), NewDeploy(miner, 3, []TxIn{{Prev: change}},
		[]TxOut{{Value: 98_000, Owner: miner.Addr}}, "vault", vaultParams{Recipient: miner.Addr, Key: 8}.Encode(), 1_000))
	runtime.GC()
	if exec.retireFloor <= 3 || exec.Stats().Retired == 0 {
		t.Fatalf("retire floor %d: the blocks at heights 2 and 3 were not retired", exec.retireFloor)
	}
	if !reflect.DeepEqual(*r, record{}) {
		t.Fatalf("the retired block's record slot still holds %+v", *r)
	}
	if held.Value() != nil {
		t.Fatal("the retired block survived a collection while its record's slab lived on")
	}
	if stored.Value() != nil {
		t.Fatal("the retired block's contract survived a collection while its layer's slabs lived on")
	}
	if len(carved.spent) != 1 || len(carved.balances) != 1 {
		t.Fatalf("the carved slices changed under the test: %+v", carved)
	}
}

// TestSealedDeltaSurvivesPruneAndRemount: a built block's delta, sealed
// into slices carved from the executor's slabs, is kept
// unchanged when its state is pruned — while later blocks are built in
// the buffers it was written in — and re-mounted as it was sealed.
func TestSealedDeltaSurvivesPruneAndRemount(t *testing.T) {
	rng := sim.NewRNG(93)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	miner := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	exec, err := NewExecutor(pruneParams(8, 0), nil, GenesisAlloc{key.Addr: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	v := exec.NewView()
	var grant OutPoint
	for op := range ownedMap(v.TipState(), key.Addr) {
		grant = op
	}
	split := NewTransfer(key, 1, []TxIn{{Prev: grant}}, []TxOut{
		{Value: 40_000, Owner: key.Addr}, {Value: 30_000, Owner: key.Addr}, {Value: 30_000, Owner: key.Addr}})
	// The coinbase alone fits the block's slot; the split's three
	// outputs beside it do not.
	var blocks []*Block
	var sealed []blockDelta
	for i, txs := range [][]*Tx{nil, {split}} {
		b, built, _ := v.BuildBlock(miner.Addr, sim.Time(i+1)*10, txs)
		b.Header.Seal(0)
		if _, err := v.AddMinedBlock(b, built); err != nil {
			t.Fatal(err)
		}
		d := built.own
		sealed = append(sealed, blockDelta{slices.Clone(d.added), slices.Clone(d.spent),
			slices.Clone(d.contracts), slices.Clone(d.balances), d.keys})
		blocks = append(blocks, b)
	}
	if n := len(sealed[1].added); n != 4 {
		t.Fatalf("the split's block adds %d outputs, want 4", n)
	}
	mineChain(t, v, miner.Addr, 20, 30)
	for i, b := range blocks {
		r := exec.blocks[b.Hash()]
		if r.state != nil || !r.kept {
			t.Fatalf("block %d: state %p, delta kept %v; want pruned to its delta", i, r.state, r.kept)
		}
		if !reflect.DeepEqual(r.delta, sealed[i]) {
			t.Fatalf("block %d: kept delta %+v, sealed %+v", i, r.delta, sealed[i])
		}
		st, ok := exec.stateOf(b.Hash())
		if !ok || !reflect.DeepEqual(st.own, sealed[i]) {
			t.Fatalf("block %d: re-mounted layer %+v, sealed %+v", i, st.own, sealed[i])
		}
		for _, e := range sealed[i].added {
			if out, ok := st.UTXO(e.op); !ok || out != e.out {
				t.Fatalf("block %d: re-mounted state reads %v, %v for %v; want %v", i, out, ok, e.op, e.out)
			}
		}
	}
	if got := exec.Stats().Replays; got != 0 {
		t.Fatalf("%d blocks re-executed; their deltas were kept", got)
	}
}

// TestDeepReorgAcrossPruneHorizon is the tentpole's correctness
// regression: a fork branching below the prune horizon overtakes the
// canonical chain. The pruning executor must re-derive the fork
// point's state and reach verdicts — tip, reorg accounting, execution
// counts, and ledger totals — identical to an executor that never
// pruned anything. While the needed deltas are there that costs no
// re-execution; when the fork's first blocks arrived early, lost the
// tie and were pruned as a dead fork (delta dropped), reviving the
// fork re-executes exactly those blocks, with the same verdicts.
func TestDeepReorgAcrossPruneHorizon(t *testing.T) {
	rng := sim.NewRNG(91)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	miner := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	alloc := GenesisAlloc{key.Addr: 100_000}

	// One scratch chain builds the shared 40-block main line; a second,
	// forked at height 28, builds a 15-block overtaking branch.
	scratch, err := NewExecutor(pruneParams(0, 0), nil, alloc)
	if err != nil {
		t.Fatal(err)
	}
	main := mineChain(t, scratch.NewView(), miner.Addr, 40, 0)

	forkExec, err := NewExecutor(pruneParams(0, 0), nil, alloc)
	if err != nil {
		t.Fatal(err)
	}
	forker := forkExec.NewView()
	for _, b := range main[:28] {
		if _, err := forker.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	fork := mineChain(t, forker, key.Addr, 15, 10_000) // heights 29..43

	for _, tc := range []struct {
		name        string
		stream      []*Block
		wantReplays uint64
	}{
		{"deltas retained", slices.Concat(main, fork), 0},
		// fork[:2] (heights 29, 30) arrive while main is at 30, stay a
		// dead fork, and are swept once main reaches 40.
		{"dead fork revived", slices.Concat(main[:30], fork[:2], main[30:], fork[2:]), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Twin executors consume the identical stream; only GC differs.
			pruned, err := NewExecutor(pruneParams(8, 0), nil, alloc)
			if err != nil {
				t.Fatal(err)
			}
			full, err := NewExecutor(pruneParams(0, 0), nil, alloc)
			if err != nil {
				t.Fatal(err)
			}
			vp, vf := pruned.NewView(), full.NewView()
			for _, b := range tc.stream {
				if _, err := vp.AddBlock(b); err != nil {
					t.Fatalf("pruned executor rejected block at height %d: %v", b.Header.Height, err)
				}
				if _, err := vf.AddBlock(b); err != nil {
					t.Fatalf("full executor rejected block at height %d: %v", b.Header.Height, err)
				}
			}

			if pruned.Stats().Pruned == 0 {
				t.Fatalf("fork below the horizon exercised no pruning: %+v", pruned.Stats())
			}
			if got := pruned.Stats().Replays; got != tc.wantReplays {
				t.Fatalf("re-executed %d blocks, want %d: %+v", got, tc.wantReplays, pruned.Stats())
			}
			if full.Stats().Pruned != 0 || full.Stats().Replays != 0 {
				t.Fatalf("unpruned executor pruned/replayed: %+v", full.Stats())
			}
			// Identical verdicts everywhere it counts.
			if vp.Tip().Hash() != vf.Tip().Hash() {
				t.Fatalf("tips diverge: pruned %s vs full %s", vp.Tip().Hash(), vf.Tip().Hash())
			}
			if vp.Tip().Hash() != fork[len(fork)-1].Hash() {
				t.Fatal("overtaking fork did not become the tip")
			}
			if vp.Reorgs != vf.Reorgs || vp.MaxReorgDepth != vf.MaxReorgDepth {
				t.Fatalf("reorg accounting diverges: %d/%d vs %d/%d",
					vp.Reorgs, vp.MaxReorgDepth, vf.Reorgs, vf.MaxReorgDepth)
			}
			sp, sf := pruned.Stats(), full.Stats()
			if sp.Executed != sf.Executed || sp.Hits != sf.Hits {
				t.Fatalf("execution accounting diverges: Executed %d/%d, Hits %d/%d",
					sp.Executed, sf.Executed, sp.Hits, sf.Hits)
			}
			if !reflect.DeepEqual(snapshot(vp.TipState()), snapshot(vf.TipState())) {
				t.Fatal("ledgers diverge at the tip")
			}
			if vp.TipState().TotalValue() != vf.TipState().TotalValue() {
				t.Fatalf("ledger totals diverge: %d vs %d",
					vp.TipState().TotalValue(), vf.TipState().TotalValue())
			}
		})
	}
}

// TestRetireReleasesHistory pins the history-GC tier: with RetireDepth
// set, whole blocks below the retire floor are released (bodies,
// index entries, view records), genesis survives as the identity
// anchor, and everything at or above the floor stays re-derivable from
// the floor state — which got there by folding deltas, not by running
// any block a second time.
func TestRetireReleasesHistory(t *testing.T) {
	rng := sim.NewRNG(92)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	miner := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	exec, err := NewExecutor(pruneParams(8, 20), nil, GenesisAlloc{key.Addr: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	v := exec.NewView()

	// A spend mined early, then 60 empty blocks to push it far below
	// the retire floor (60 - 20 = 40).
	tx := mustTransfer(t, v, key, 1, 5_000)
	spendBlock := mineOn(t, v, miner.Addr, 10, tx)
	blocks := mineChain(t, v, miner.Addr, 60, 10)

	st := exec.Stats()
	if st.Retired == 0 {
		t.Fatalf("no blocks retired after 61 blocks at retire depth 20: %+v", st)
	}
	if st.Replays != 0 {
		t.Fatalf("advancing the retire floor re-executed %d blocks", st.Replays)
	}
	// Retired history is gone from every surface.
	if _, ok := v.Block(spendBlock.Hash()); ok {
		t.Fatal("retired block still served")
	}
	if _, _, found := v.FindTx(tx.ID()); found {
		t.Fatal("retired transaction still indexed")
	}
	if _, ok := v.CanonicalAt(spendBlock.Header.Height); ok {
		t.Fatal("retired height still canonical")
	}
	if _, ok := v.StateAt(spendBlock.Hash()); ok {
		t.Fatal("retired state still readable")
	}
	// Genesis survives retirement as the chain-identity anchor.
	if _, ok := v.Block(v.exec.genesis.Hash()); !ok {
		t.Fatal("genesis retired")
	}
	// Everything at/above the retire floor is re-derivable: a read
	// between the floor and the prune horizon mounts the retained deltas
	// on a copy of the floor state, with the effects of all retired
	// history (the early spend included) intact.
	tip := v.Tip().Header.Height
	midBlock, ok := v.CanonicalAt(tip - 15)
	if !ok {
		t.Fatal("height above the retire floor lost its canonical record")
	}
	mid, ok := v.StateAt(midBlock.Hash())
	if !ok {
		t.Fatal("state above the retire floor not re-derivable")
	}
	wantValue := uint64(100_000) + uint64(tip-15)*uint64(exec.params.BlockReward)
	if uint64(mid.TotalValue()) != wantValue {
		t.Fatalf("re-derived mid state TotalValue = %d, want %d", mid.TotalValue(), wantValue)
	}
	if _, unspent := mid.UTXO(tx.Ins[0].Prev); unspent {
		t.Fatal("an output spent in retired history is unspent again above the floor")
	}
	// The read got a copy: the floor itself stays private to the
	// executor and keeps no tombstones however many spends it folded.
	for cur := mid; cur != nil; cur = cur.parent {
		if cur == exec.floor {
			t.Fatal("a served state is layered on the executor's floor state")
		}
	}
	if len(exec.floor.own.spent) != 0 {
		t.Fatalf("floor state accumulated %d tombstones", len(exec.floor.own.spent))
	}
	// The floor is monotone: more mining advances it and retires more.
	before := exec.Stats().Retired
	mineChain(t, v, miner.Addr, 20, 10_000)
	if exec.Stats().Retired <= before {
		t.Fatalf("retire floor did not advance: %d -> %d", before, exec.Stats().Retired)
	}
	if got := exec.Stats().Replays; got != 0 {
		t.Fatalf("retirement re-executed %d blocks", got)
	}
	// The state served before the floor moved on still reads the same.
	if uint64(mid.TotalValue()) != wantValue {
		t.Fatalf("a served state changed when the floor advanced: TotalValue %d, want %d", mid.TotalValue(), wantValue)
	}
	// A recent block (within every horizon) keeps full service.
	recent := blocks[len(blocks)-1]
	if _, ok := v.Block(recent.Hash()); !ok {
		t.Fatal("recent block lost")
	}
}

// TestDeepReadSharesTheFloor: a read below every retained state starts
// from a snapshot of the executor's floor, and the snapshot shares the
// floor's tables instead of copying them — what the read allocates is
// the path it mounts, whatever the ledger holds. (With map-backed bases
// the 50,000-output ledger below cost megabytes per deep read.)
func TestDeepReadSharesTheFloor(t *testing.T) {
	miner := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(96).Uint64))
	deepReadBytes := func(outputs int) uint64 {
		alloc := make(GenesisAlloc, outputs)
		for i := range outputs {
			alloc[crypto.Address{0xD0, byte(i), byte(i >> 8), byte(i >> 16)}] = 1
		}
		exec, err := NewExecutor(pruneParams(8, 20), nil, alloc)
		if err != nil {
			t.Fatal(err)
		}
		v := exec.NewView()
		mineChain(t, v, miner.Addr, 60, 10)
		if exec.floor == nil || count(&exec.floor.base.utxos) < outputs {
			t.Fatalf("the floor holds %d outputs, want at least %d", count(&exec.floor.base.utxos), outputs)
		}
		// The block above the checkpoint: pruned, not retired, one delta
		// away from the floor.
		b, _ := v.CanonicalAt(exec.retireFloor + 1)
		h := b.Hash()
		exec.dropState(exec.blocks[h])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, ok := exec.stateOf(h)
		runtime.ReadMemStats(&after)
		if !ok || st.TotalValue() != vm.Amount(outputs)+vm.Amount(b.Header.Height)*exec.params.BlockReward {
			t.Fatalf("deep read at height %d: ok=%v, total value %d", b.Header.Height, ok, st.TotalValue())
		}
		if exec.Stats().Replays != 0 {
			t.Fatal("the deep read re-executed a block")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := deepReadBytes(500), deepReadBytes(50_000)
	t.Logf("a deep read allocates %d B over a ledger of 500 outputs, %d B over one of 50,000", small, large)
	if large > 2*small+4096 {
		t.Fatalf("a deep read allocates %d B over 50,000 outputs against %d B over 500: it copies the ledger", large, small)
	}
}
