package chain

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// viewModel is what one view answers from, kept the plain way: the
// blocks it holds and its canonical hash at each height, in maps.
type viewModel struct {
	have      map[crypto.Hash]bool
	canonical map[uint64]crypto.Hash
	tip       *Block
}

// TestViewsAgainstMapModel drives several views of one executor that
// prunes and retires history at small depths through a random block
// tree — forks, tip switches, blocks offered out of order — and after
// every block offered holds each view's answers to those of a map-kept
// model: HasBlock, Block, IsCanonical, DepthOf, CanonicalAt, FindTx,
// ContractOps, NextBurial, Since, Locator and BlocksAfter. The model
// follows the executor's sweeps as they were written with maps: a block
// swept below the prune floor while canonical in no view leaves the
// transaction and contract-op indexes, and retirement drops the heights
// under the new floor from every view (genesis stays canonical at 0).
func TestViewsAgainstMapModel(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runViewsModel(t, seed) })
	}
}

func runViewsModel(t *testing.T, seed uint64) {
	const views, steps = 3, 1000
	rng := sim.NewRNG(seed)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	miner := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	alloc := GenesisAlloc{key.Addr: 1_000_000}
	reg := vm.NewRegistry()
	reg.Register("vault", func() vm.Contract { return &vault{} })
	archive, err := NewExecutor(pruneParams(0, 0), reg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	params := pruneParams(3, 6)
	params.ConfirmDepth = 1
	e, err := NewExecutor(params, reg, alloc)
	if err != nil {
		t.Fatal(err)
	}
	genesis := e.genesis

	// Every block mined, by hash and by height; the block of each
	// transaction (ids are unique: every transaction takes a fresh nonce).
	all := map[crypto.Hash]*Block{genesis.Hash(): genesis}
	atHeight := map[uint64][]crypto.Hash{0: {genesis.Hash()}}
	txBlock := map[crypto.Hash]crypto.Hash{genesis.Txs[0].ID(): genesis.Hash()}
	var vaults []crypto.Address
	admitted := map[crypto.Hash]bool{genesis.Hash(): true}
	unindexed := map[crypto.Hash]bool{}

	vs := make([]*Chain, views)
	ms := make([]*viewModel, views)
	pending := make([][]*Block, views) // blocks not yet offered to each view
	prevTip := make([]*Block, views)
	for i := range vs {
		vs[i] = e.NewView()
		ms[i] = &viewModel{have: map[crypto.Hash]bool{genesis.Hash(): true}, canonical: map[uint64]crypto.Hash{0: genesis.Hash()}, tip: genesis}
		prevTip[i] = genesis
	}

	var nonce uint64
	gens := []*blockGen{{t: t, view: archive.NewView(), key: key, miner: miner.Addr, rng: rng, nonce: &nonce}}
	var top uint64
	record := func(blocks []*Block) {
		for _, b := range blocks {
			h := b.Hash()
			all[h] = b
			atHeight[b.Header.Height] = append(atHeight[b.Header.Height], h)
			top = max(top, b.Header.Height)
			for _, tx := range b.Txs {
				if tx.Kind != TxCoinbase {
					txBlock[tx.ID()] = h
				}
				if tx.Kind == TxDeploy {
					vaults = append(vaults, tx.ContractAddr())
				}
			}
			for i := range pending {
				pending[i] = append(pending[i], b)
			}
		}
	}

	canonicalIn := func(m *viewModel, h crypto.Hash) bool {
		return m.have[h] && m.canonical[all[h].Header.Height] == h
	}
	adopt := func(m *viewModel, b *Block) {
		m.have[b.Hash()] = true
		if b.Header.Height <= m.tip.Header.Height {
			return
		}
		m.tip = b
		for cur := b; m.canonical[cur.Header.Height] != cur.Hash(); cur = all[cur.Header.Parent] {
			m.canonical[cur.Header.Height] = cur.Hash()
			if cur.Header.Height == 0 {
				break
			}
		}
	}
	// cut reports whether b's branch left the checkpoint's under the
	// retire floor. Its blocks above the floor keep their records, but
	// one made a tip would reorg a view across the floor, and one whose
	// state was pruned cannot be derived again: RetireDepth is meant to
	// exceed every reorg, and such a block is out of this model's reach.
	cut := func(b *Block) bool {
		floor := e.retireFloor
		if floor == 0 {
			return false
		}
		cur := b
		for cur.Header.Height > floor {
			cur = all[cur.Header.Parent]
		}
		return cur.Hash() != e.ckpt
	}
	// live picks a branch to grow: one the floor did not cut off, its
	// tip near the highest of those.
	live := func() *blockGen {
		var near []*blockGen
		var high uint64
		for _, g := range gens {
			if !cut(g.view.Tip()) {
				near, high = append(near, g), max(high, g.view.Height())
			}
		}
		near = slices.DeleteFunc(near, func(g *blockGen) bool { return g.view.Height()+3 < high })
		return near[rng.Intn(len(near))]
	}
	hashes := func(bs []*Block) []crypto.Hash {
		out := make([]crypto.Hash, len(bs))
		for i, b := range bs {
			if b != nil {
				out[i] = b.Hash()
			}
		}
		return out
	}

	check := func(step int) {
		t.Helper()
		for i, v := range vs {
			m := ms[i]
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("step %d, view %d: %s", step, i, fmt.Sprintf(format, args...))
			}
			if v.Tip().Hash() != m.tip.Hash() {
				fail("tip %d, model %d", v.Height(), m.tip.Header.Height)
			}
			for h, b := range all {
				if got := v.HasBlock(h); got != m.have[h] {
					fail("HasBlock(height %d) = %v", b.Header.Height, got)
				}
				if got, ok := v.Block(h); ok != m.have[h] || ok && got.Hash() != h {
					fail("Block(height %d) = %v", b.Header.Height, ok)
				}
				want := canonicalIn(m, h)
				if got := v.IsCanonical(h); got != want {
					fail("IsCanonical(height %d) = %v", b.Header.Height, got)
				}
				if d, ok := v.DepthOf(h); ok != want || ok && d != int(m.tip.Header.Height-b.Header.Height) {
					fail("DepthOf(height %d) = %d, %v", b.Header.Height, d, ok)
				}
			}
			for h := range top + 2 {
				got, ok := v.CanonicalAt(h)
				want, wok := m.canonical[h]
				if ok != wok || ok && got.Hash() != want {
					fail("CanonicalAt(%d) = %v", h, ok)
				}
			}
			for id, bh := range txBlock {
				b, idx, ok := v.FindTx(id)
				wok := canonicalIn(m, bh) && !unindexed[bh]
				if ok != wok || ok && (b.Hash() != bh || idx != all[bh].FindTx(id)) {
					fail("FindTx in block at height %d: %v, model %v", all[bh].Header.Height, ok, wok)
				}
			}
			for _, a := range vaults {
				// The indexed canonical operations on a, by height.
				var deploys, calls int
				var at []uint64
				for height, bh := range m.canonical {
					for _, tx := range all[bh].Txs {
						if unindexed[bh] || !(tx.Kind == TxDeploy && tx.ContractAddr() == a || tx.Kind == TxCall && tx.Contract == a) {
							continue
						}
						if tx.Kind == TxCall {
							calls++
						} else {
							deploys++
						}
						at = append(at, height)
					}
				}
				if d, c := v.ContractOps(map[crypto.Address]bool{a: true}); d != deploys || c != calls {
					fail("ContractOps = %d deploys, %d calls; model %d, %d", d, c, deploys, calls)
				}
				for _, d := range []int{1, 3} {
					shown := int64(m.tip.Header.Height) - int64(d)
					next, found := uint64(0), false
					for _, height := range at {
						if int64(height) > shown && (!found || height < next) {
							next, found = height, true
						}
					}
					if got, ok := v.NextBurial(a, d); ok != found || got != next+uint64(d) {
						fail("NextBurial(depth %d) = %d, %v; model %d, %v", d, got, ok, next+uint64(d), found)
					}
				}
			}
			hs := slices.Collect(maps.Keys(all))
			slices.SortFunc(hs, func(a, b crypto.Hash) int { return slices.Compare(a[:], b[:]) })
			for _, old := range []*Block{prevTip[i], all[hs[rng.Intn(len(hs))]]} {
				got, reorged := v.Since(old, nil)
				var want []*Block
				wreorged := false
				switch {
				case m.tip.Header.Parent == old.Hash():
					want = []*Block{m.tip}
				case !canonicalIn(m, old.Hash()):
					wreorged = true
				default:
					for h := old.Header.Height + 1; h <= m.tip.Header.Height; h++ {
						want = append(want, all[m.canonical[h]])
					}
				}
				if reorged != wreorged || !slices.Equal(hashes(got), hashes(want)) {
					fail("Since(height %d) = %d blocks, reorged %v; model %d, %v", old.Header.Height, len(got), reorged, len(want), wreorged)
				}
			}
			prevTip[i] = v.Tip()

			var loc []crypto.Hash
			tip, floor := m.tip.Header.Height, e.retireFloor
			for back := uint64(0); ; back = max(1, 2*back) {
				if back >= tip-floor {
					loc = append(loc, m.canonical[floor])
					break
				}
				loc = append(loc, m.canonical[tip-back])
			}
			if got := v.Locator(); !slices.Equal(got, loc) {
				fail("Locator = %d hashes, model %d", len(got), len(loc))
			}
			other := vs[(i+1)%views].Locator()
			want, limit := hs[rng.Intn(len(hs))], 1+rng.Intn(6)
			var branch []*Block
			if !m.have[want] {
				want = m.tip.Hash()
			}
			for b := all[want]; !slices.Contains(other, b.Hash()); b = all[b.Header.Parent] {
				if !m.have[b.Header.Parent] {
					branch = nil
					break
				}
				branch = append(branch, b)
			}
			slices.Reverse(branch)
			branch = branch[:min(len(branch), limit)]
			if got := v.BlocksAfter(other, want, limit); !slices.Equal(hashes(got), hashes(branch)) {
				fail("BlocksAfter = %d blocks, model %d", len(got), len(branch))
			}
		}
	}

	// deliver offers view i one of the blocks it has not been offered,
	// mostly one whose parent it holds, and brings the model along.
	deliver := func(step, i int) {
		v, m := vs[i], ms[i]
		// Blocks under the floor are never offered: the executor
		// refuses them, where the map-kept code took genesis's
		// children. Blocks of a branch the floor cut off are dropped.
		pending[i] = slices.DeleteFunc(pending[i], func(b *Block) bool {
			return b.Header.Height < e.retireFloor || cut(b)
		})
		var ready []int
		for j, b := range pending[i] {
			if m.have[b.Header.Parent] || rng.Intn(8) == 0 {
				ready = append(ready, j)
			}
		}
		if len(ready) == 0 {
			return
		}
		j := ready[rng.Intn(len(ready))]
		b := pending[i][j]
		pruneFloor, retireFloor := e.pruneFloor, e.retireFloor
		_, err := v.AddBlock(b)
		if want := m.have[b.Header.Parent] || m.have[b.Hash()]; (err == nil) != want {
			t.Fatalf("step %d: AddBlock at height %d: %v, model expects success %v", step, b.Header.Height, err, want)
		}
		if err != nil { // offered before its parent: offered again later
			return
		}
		pending[i] = slices.Delete(pending[i], j, j+1)
		admitted[b.Hash()] = true
		adopt(m, b)
		for height := max(pruneFloor, 1); height < e.pruneFloor; height++ {
			for _, bh := range atHeight[height] {
				if admitted[bh] && !slices.ContainsFunc(ms, func(m *viewModel) bool { return m.canonical[height] == bh }) {
					unindexed[bh] = true
				}
			}
		}
		for height := max(retireFloor, 1); height < e.retireFloor; height++ {
			for _, m := range ms {
				for _, bh := range atHeight[height] {
					delete(m.have, bh)
				}
				delete(m.canonical, height)
			}
		}
		check(step)
	}

	record(gens[0].mine(3))
	for step := range steps {
		switch r := rng.Intn(10); {
		case r < 2:
			record(live().mine(1))
		case r == 2 && len(gens) < 24:
			g := live()
			f := g.fork(g.view.Height() - uint64(rng.Intn(min(4, int(g.view.Height())))))
			gens = append(gens, f)
			record(f.mine(1))
		default:
			i := rng.Intn(views)
			for range 1 + rng.Intn(4) {
				deliver(step, i)
			}
		}
	}
	st := e.Stats()
	if st.Retired == 0 || len(unindexed) == 0 || vs[0].Reorgs+vs[1].Reorgs+vs[2].Reorgs == 0 {
		t.Fatalf("the walk retired %d blocks, swept %d dead forks, switched %d tips: it exercised too little",
			st.Retired, len(unindexed), vs[0].Reorgs+vs[1].Reorgs+vs[2].Reorgs)
	}
	t.Logf("%d blocks mined, %d retired, %d dead forks swept, reorgs %d/%d/%d, floor %d",
		len(all), st.Retired, len(unindexed), vs[0].Reorgs, vs[1].Reorgs, vs[2].Reorgs, e.retireFloor)
}
