package chain

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// ledger is a state materialized the slow way — every layer walked
// oldest first, nothing read through flatten, the owner index or a
// delta — so it can stand as the reference those are checked against.
type ledger struct {
	UTXOs     map[OutPoint]TxOut
	Contracts map[crypto.Address]vm.Contract
	Balances  map[crypto.Address]vm.Amount
}

func snapshot(st *State) ledger {
	l := ledger{
		UTXOs:     make(map[OutPoint]TxOut),
		Contracts: make(map[crypto.Address]vm.Contract),
		Balances:  make(map[crypto.Address]vm.Amount),
	}
	var layers []*State
	for cur := st; cur != nil; cur = cur.parent {
		layers = append(layers, cur)
	}
	for _, layer := range slices.Backward(layers) {
		if b := layer.base; b != nil {
			for k, o := range b.utxos.scan(utxoKey{}, 0) {
				l.UTXOs[k.outPoint()] = o
			}
			for a, c := range b.contracts.scan(crypto.Address{}, 0) {
				l.Contracts[a] = c
			}
			for a, v := range b.balances.scan(crypto.Address{}, 0) {
				l.Balances[a] = v
			}
		}
		for _, op := range layer.own.spent {
			delete(l.UTXOs, op)
		}
		for _, e := range layer.own.added {
			l.UTXOs[e.op] = e.out
		}
		for _, e := range layer.own.contracts {
			l.Contracts[e.addr] = e.c
		}
		for _, e := range layer.own.balances {
			l.Balances[e.addr] = e.v
		}
	}
	return l
}

func (l ledger) ownedBy(addr crypto.Address) map[OutPoint]TxOut {
	out := make(map[OutPoint]TxOut)
	for op, o := range l.UTXOs {
		if o.Owner == addr {
			out[op] = o
		}
	}
	return out
}

func (l ledger) owners() []crypto.Address {
	set := make(map[crypto.Address]bool)
	for _, o := range l.UTXOs {
		set[o.Owner] = true
	}
	out := make([]crypto.Address, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	return out
}

// checkOwnerIndex compares AppendOwned with the brute-force scan for
// every owner in st plus one address that owns nothing.
func checkOwnerIndex(t *testing.T, what string, st *State) {
	t.Helper()
	l := snapshot(st)
	for _, a := range append(l.owners(), crypto.Address{0xEE}) {
		if got, want := ownedMap(st, a), l.ownedBy(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AppendOwned(%s) = %d outputs, brute-force scan finds %d", what, a, len(got), len(want))
		}
	}
}

// TestApplyBlockTwiceOnOneParent is the regression for benchmark Known
// hazard 1: ApplyBlock on a parent whose overlay chain was due for a
// flatten used to run on the flattened copy itself, whose
// ContractForWrite handed out contract objects the parent still
// shared — the first execution mutated them and a second execution of
// the same block on the same parent failed ("already open" here,
// "redeem in state RD" in the engine). The same contract-calling block
// is applied twice at every parent overlay depth, base layers
// included, over two flatten periods.
func TestApplyBlockTwiceOnOneParent(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	const calls = 2*flattenDepth + 2

	// One block splits alice's funds, the next deploys one vault per
	// future call.
	op, o := e.utxoOf("alice", 10_000)
	outs := make([]TxOut, calls)
	for i := range outs {
		outs[i] = TxOut{Value: o.Value / calls, Owner: e.keys["alice"].Addr}
	}
	outs[0].Value += o.Value - o.Value/calls*calls
	split := NewTransfer(e.keys["alice"], 1, []TxIn{{Prev: op}}, outs)
	e.mine(split)
	params := vaultParams{Recipient: e.keys["bob"].Addr, Key: 9}.Encode()
	deploys := make([]*Tx, calls)
	for i := range deploys {
		deploys[i] = NewDeploy(e.keys["alice"], uint64(10+i),
			[]TxIn{{Prev: OutPoint{TxID: split.ID(), Index: uint32(i)}}}, nil, "vault", params, outs[i].Value)
	}
	e.mine(deploys...)

	depths := make(map[int]bool)
	for i := range calls {
		parent := e.chain.TipState()
		blk := e.mine(NewCall(e.keys["bob"], uint64(1000+i), deploys[i].ContractAddr(), "open", []byte{9}, nil, nil, 0))
		for _, p := range []*State{parent, parent.flatten()} {
			depths[p.OverlayDepth()] = true
			before := snapshot(p)
			held := make(map[crypto.Address]vault) // the objects' contents, not just their identity
			for a, c := range before.Contracts {
				held[a] = *c.(*vault)
			}
			first, err := ApplyBlock(p, e.chain.Registry(), e.chain.Params(), blk)
			if err != nil {
				t.Fatalf("block %d on a parent at overlay depth %d: %v", i, p.OverlayDepth(), err)
			}
			second, err := ApplyBlock(p, e.chain.Registry(), e.chain.Params(), blk)
			if err != nil {
				t.Fatalf("block %d applied a second time on its parent at overlay depth %d: %v", i, p.OverlayDepth(), err)
			}
			if !reflect.DeepEqual(snapshot(first), snapshot(second)) {
				t.Fatalf("block %d: two executions on one parent (overlay depth %d) disagree", i, p.OverlayDepth())
			}
			if !reflect.DeepEqual(snapshot(first), snapshot(e.chain.TipState())) {
				t.Fatalf("block %d: re-execution disagrees with the state the chain recorded", i)
			}
			after := snapshot(p)
			for a, c := range after.Contracts {
				if c != before.Contracts[a] || *c.(*vault) != held[a] {
					t.Fatalf("block %d: executing on a parent at overlay depth %d changed the parent's contract %s", i, p.OverlayDepth(), a)
				}
			}
		}
	}
	for d := 0; d <= flattenDepth; d++ {
		if !depths[d] {
			t.Fatalf("no parent at overlay depth %d was exercised", d)
		}
	}
}

// TestChildIsAlwaysAnOverlay pins what the executor's deltas rest on:
// however deep the parent, Child is an empty layer of its own, and the
// parent reads the same afterwards.
func TestChildIsAlwaysAnOverlay(t *testing.T) {
	st := NewState()
	for i := range 3 * flattenDepth {
		before := snapshot(st)
		c := st.Child()
		if d := c.own; c.parent == nil || len(d.added)+len(d.spent)+len(d.contracts)+len(d.balances) != 0 || d.keys != (fingerprint{}) {
			t.Fatalf("Child of a state at overlay depth %d is not an empty overlay", st.OverlayDepth())
		}
		if c.OverlayDepth() < 1 || c.OverlayDepth() > flattenDepth {
			t.Fatalf("Child at overlay depth %d, want 1..%d", c.OverlayDepth(), flattenDepth)
		}
		if !reflect.DeepEqual(snapshot(c), before) || !reflect.DeepEqual(snapshot(st), before) {
			t.Fatalf("Child of a state at overlay depth %d changed what it reads", st.OverlayDepth())
		}
		c.AddUTXO(OutPoint{Index: uint32(i)}, TxOut{Value: 1, Owner: crypto.Address{byte(i % 5)}})
		if i > 0 {
			c.Spend(OutPoint{Index: uint32(i - 1)})
		}
		st = c
	}
}

// TestOwnerIndexMatchesScan checks the eager base index against the
// brute-force scan where it could go wrong: for owners nobody queried
// before, across flatten boundaries, and after spends.
func TestOwnerIndexMatchesScan(t *testing.T) {
	e := newEnv(t, "alice", "bob")
	fresh := func(i int) crypto.Address { return crypto.Address{0xF0, byte(i), byte(i >> 8)} }
	for i := range 2*flattenDepth + 10 {
		// alice pays a never-seen address, and every third block bob
		// spends too, so base layers see both adds and removals.
		txs := []*Tx{e.transferTo("alice", fresh(i), 3)}
		if i%3 == 0 {
			txs = append(txs, e.transfer("bob", "alice", 2))
		}
		e.mine(txs...)
		checkOwnerIndex(t, "tip state", e.chain.TipState())
	}
	// A wallet created only now reads its (empty) balance without the
	// base having heard of it, and the miner — thousands of coinbases at
	// scale, never queried by the engine — is served from the index too.
	st := e.chain.TipState()
	if got := ownedMap(st, crypto.Address{0xAB}); len(got) != 0 {
		t.Fatalf("unknown owner holds %d outputs", len(got))
	}
	if got := ownedMap(st, e.miner.Addr); len(got) != int(e.chain.Height()) {
		t.Fatalf("miner holds %d coinbases, want %d", len(got), e.chain.Height())
	}
}

// transferTo is transfer to a bare address.
func (e *testEnv) transferTo(from string, to crypto.Address, amt vm.Amount) *Tx {
	e.t.Helper()
	op, o := e.utxoOf(from, amt)
	e.nonce++
	outs := []TxOut{{Value: amt, Owner: to}}
	if o.Value > amt {
		outs = append(outs, TxOut{Value: o.Value - amt, Owner: e.keys[from].Addr})
	}
	return NewTransfer(e.keys[from], e.nonce, []TxIn{{Prev: op}}, outs)
}

// TestOwnerIndexOnBaseLayer mutates a base directly, the way flatten
// and the executor's floor do.
func TestOwnerIndexOnBaseLayer(t *testing.T) {
	base := NewState()
	a, b := crypto.Address{1}, crypto.Address{2}
	for i := range uint32(10) {
		owner := a
		if i%2 == 1 {
			owner = b
		}
		base.AddUTXO(OutPoint{Index: i}, TxOut{Value: vm.Amount(i + 1), Owner: owner})
	}
	checkOwnerIndex(t, "after adds", base)
	for _, i := range []uint32{0, 9, 4, 5} {
		base.Spend(OutPoint{Index: i})
	}
	checkOwnerIndex(t, "after spends", base)
	for i := range uint32(10) {
		base.Spend(OutPoint{Index: i})
	}
	checkOwnerIndex(t, "emptied", base)
	if count(&base.base.owned) != 0 || len(base.own.spent) != 0 {
		t.Fatalf("emptied base keeps %d index entries and %d tombstones", count(&base.base.owned), len(base.own.spent))
	}
}

// TestOwnerIndexSiblingsDoNotAlias grows two forks from one base past
// a flatten each, then keeps mutating one of the new bases in place:
// the bases share table nodes (clone copies four roots), so a write
// through one must never show in another. (TestStateAgainstMapModel
// checks the same for every table under random histories.)
func TestOwnerIndexSiblingsDoNotAlias(t *testing.T) {
	owner, other := crypto.Address{1}, crypto.Address{2}
	base := NewState()
	for i := range uint32(8) {
		base.AddUTXO(OutPoint{Index: i}, TxOut{Value: 1, Owner: owner})
	}
	base.AddUTXO(OutPoint{Index: 100}, TxOut{Value: 1, Owner: other})

	// grow stacks flattenDepth overlays on st, each adding one output
	// for owner (numbered from first) and, every fourth layer, spending
	// one of the base's.
	grow := func(st *State, first uint32) *State {
		for i := range uint32(flattenDepth) {
			st = st.Child()
			st.AddUTXO(OutPoint{Index: first + i}, TxOut{Value: 2, Owner: owner})
			if i%4 == 0 {
				st.Spend(OutPoint{Index: i / 4 % 8})
			}
		}
		return st
	}
	baseBefore := snapshot(base)
	left, right := grow(base, 1000), grow(base, 2000)
	leftBase, rightBase := left.Child().parent, right.Child().parent
	if leftBase.parent != nil || rightBase.parent != nil || leftBase == rightBase {
		t.Fatal("the forks did not flatten into bases of their own")
	}
	wantLeft, wantRight := snapshot(left), snapshot(right)

	check := func(what string) {
		t.Helper()
		for _, s := range []struct {
			name string
			st   *State
			want ledger
		}{{"shared base", base, baseBefore}, {"left base", leftBase, wantLeft}, {"right base", rightBase, wantRight}} {
			if !reflect.DeepEqual(snapshot(s.st), s.want) {
				t.Fatalf("%s: %s changed", what, s.name)
			}
			checkOwnerIndex(t, what+": "+s.name, s.st)
		}
	}
	check("after both flattens")

	// The executor's floor is cloned for a deep read and then keeps
	// advancing in place; neither side may see the other's writes.
	floor := leftBase.clone()
	copyOfFloor := floor.clone()
	wantCopy := snapshot(copyOfFloor)
	for i := range uint32(40) {
		floor.AddUTXO(OutPoint{Index: 5000 + i}, TxOut{Value: 3, Owner: owner})
		floor.Spend(OutPoint{Index: 1000 + i})
	}
	floor.Spend(OutPoint{Index: 100})
	checkOwnerIndex(t, "advanced floor", floor)
	if !reflect.DeepEqual(snapshot(copyOfFloor), wantCopy) {
		t.Fatal("advancing the floor in place changed its copy")
	}
	checkOwnerIndex(t, "copy of the floor", copyOfFloor)
	copyOfFloor.AddUTXO(OutPoint{Index: 9000}, TxOut{Value: 1, Owner: owner})
	checkOwnerIndex(t, "floor after its copy was written", floor)
	check("after in-place writes on a clone")
}

// blockGen grows one branch of a block tree on a view of an archive
// executor: every block carries a random pick of a transfer, a vault
// deployment and a vault call.
type blockGen struct {
	t      *testing.T
	view   *Chain
	key    *crypto.KeyPair
	miner  crypto.Address
	rng    *sim.RNG
	nonce  *uint64
	vaults []crypto.Address // deployed on this branch, not opened yet
}

// fork returns a generator for a new branch off g's block at height
// (every view of the archive shares one executor, so feeding the prefix
// costs nothing).
func (g *blockGen) fork(height uint64) *blockGen {
	g.t.Helper()
	f := *g
	f.view = g.view.Executor().NewView()
	for h := uint64(1); h <= height; h++ {
		b, _ := g.view.CanonicalAt(h)
		if _, err := f.view.AddBlock(b); err != nil {
			g.t.Fatal(err)
		}
	}
	// Only vaults that exist (and are still closed) at the fork point
	// can be opened on the new branch.
	f.vaults = nil
	for _, a := range g.vaults {
		if c, ok := f.view.TipState().Contract(a); ok && !c.(*vault).Open {
			f.vaults = append(f.vaults, a)
		}
	}
	return &f
}

func (g *blockGen) mine(n int) []*Block {
	g.t.Helper()
	out := make([]*Block, n)
	for i := range out {
		var txs []*Tx
		var deployed *Tx
		// The funding output: the smallest outpoint worth spending, so
		// the choice does not depend on map order.
		owned := ownedMap(g.view.TipState(), g.key.Addr)
		ops := make([]OutPoint, 0, len(owned))
		for op, o := range owned {
			if o.Value >= 100 {
				ops = append(ops, op)
			}
		}
		slices.SortFunc(ops, OutPoint.Compare)
		*g.nonce++
		switch pick := g.rng.Intn(4); {
		case len(ops) == 0 || pick == 0:
		case pick == 1: // split
			v := owned[ops[0]].Value
			txs = append(txs, NewTransfer(g.key, *g.nonce, []TxIn{{Prev: ops[0]}},
				[]TxOut{{Value: v / 2, Owner: g.key.Addr}, {Value: v - v/2, Owner: g.key.Addr}}))
		case pick == 2: // pay a fresh address
			v := owned[ops[0]].Value
			to := crypto.Address{0xF1, byte(*g.nonce), byte(*g.nonce >> 8)}
			txs = append(txs, NewTransfer(g.key, *g.nonce, []TxIn{{Prev: ops[0]}},
				[]TxOut{{Value: 10, Owner: to}, {Value: v - 10, Owner: g.key.Addr}}))
		default: // lock 50 in a vault
			v := owned[ops[0]].Value
			deployed = NewDeploy(g.key, *g.nonce, []TxIn{{Prev: ops[0]}}, []TxOut{{Value: v - 50, Owner: g.key.Addr}},
				"vault", vaultParams{Recipient: g.key.Addr, Key: 5}.Encode(), 50)
			txs = append(txs, deployed)
		}
		if len(g.vaults) > 0 && g.rng.Intn(2) == 0 {
			*g.nonce++
			txs = append(txs, NewCall(g.key, *g.nonce, g.vaults[0], "open", []byte{5}, nil, nil, 0))
			g.vaults = g.vaults[1:]
		}
		out[i] = mineOn(g.t, g.view, g.miner, sim.Time(*g.nonce)*10, txs...)
		if deployed != nil {
			g.vaults = append(g.vaults, deployed.ContractAddr())
		}
	}
	return out
}

// checkRecords holds the record invariant without reading through the
// executor (a read would memoize): StatesLive is the number of records
// that hold a state, and every record above the retire floor can get one
// back — it holds a state, or a delta to mount, or is replayable, and
// for the last two its parent's record is still there. (At the floor
// itself only the checkpoint is readable, from the floor state.)
func checkRecords(t *testing.T, name string, e *Executor) {
	t.Helper()
	live := 0
	for h, r := range e.blocks {
		if r.block == nil || r.block.Hash() != h {
			t.Fatalf("%s: record under %s holds another block", name, h)
		}
		if r.state != nil {
			live++
			continue
		}
		if height := r.block.Header.Height; height > e.retireFloor && e.blocks[r.block.Header.Parent] == nil {
			t.Fatalf("%s: block at height %d above the floor %d has no state and no parent record to re-derive it from", name, height, e.retireFloor)
		}
	}
	if got := e.Stats().StatesLive; got != live {
		t.Fatalf("%s: StatesLive = %d, %d records hold a state", name, got, live)
	}
	if e.floor != nil && e.blocks[e.ckpt] == nil {
		t.Fatalf("%s: the checkpoint block was retired", name)
	}
}

// TestDeltaAndReexecutionAgree is the delta ≡ re-execution parity
// test: one random block tree — a dead fork that is later revived into
// a reorg deeper than PruneDepth, a second deep reorg off a canonical
// ancestor, retirement running throughout — is fed to an executor that
// keeps deltas, to a twin whose records' deltas the test throws away
// after every block (so every re-derivation and every floor advance
// re-executes), and to an archive that never collects anything. At every
// retained height all three must hold the same UTXOs, contract objects,
// balances and total value, and agree on every verdict; after every
// block the two collecting executors hold the record invariant.
func TestDeltaAndReexecutionAgree(t *testing.T) {
	const prune, retire = 8, 24
	rng := sim.NewRNG(95)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	miner := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	alloc := GenesisAlloc{key.Addr: 1_000_000}
	reg := vm.NewRegistry()
	reg.Register("vault", func() vm.Contract { return &vault{} })
	newExec := func(prune, retire int) *Executor {
		e, err := NewExecutor(pruneParams(prune, retire), reg, alloc)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	var nonce uint64
	main := &blockGen{t: t, view: newExec(0, 0).NewView(), key: key, miner: miner.Addr, rng: rng, nonce: &nonce}
	var stream []*Block
	stream = append(stream, main.mine(14)...)
	stub := main.fork(12)
	stream = append(stream, stub.mine(2)...)  // heights 13–14: loses the tie, dead
	stream = append(stream, main.mine(16)...) // main to 30: the stub is pruned as a dead fork
	stream = append(stream, stub.mine(18)...) // stub to 32: revived, reorg 18 deep
	deep := stub.fork(20)
	stream = append(stream, deep.mine(14)...) // heights 21–34: reorg 12 deep off a canonical ancestor
	stream = append(stream, deep.mine(40)...) // the floor passes everything above

	withDeltas, reexec, archive := newExec(prune, retire), newExec(prune, retire), newExec(0, 0)
	vd, vr, va := withDeltas.NewView(), reexec.NewView(), archive.NewView()
	for _, b := range stream {
		for _, v := range []*Chain{vd, vr, va} {
			if _, err := v.AddBlock(b); err != nil {
				t.Fatalf("block at height %d rejected: %v", b.Header.Height, err)
			}
		}
		for _, r := range reexec.blocks {
			r.delta, r.kept = blockDelta{}, false
		}
		checkRecords(t, "deltas", withDeltas)
		checkRecords(t, "re-execution", reexec)
		if vd.Tip().Hash() != va.Tip().Hash() || vr.Tip().Hash() != va.Tip().Hash() {
			t.Fatalf("tips diverge after the block at height %d", b.Header.Height)
		}
	}

	sd, sr, sa := withDeltas.Stats(), reexec.Stats(), archive.Stats()
	if sd.Executed != sa.Executed || sr.Executed != sa.Executed || sd.Hits != sa.Hits || sr.Hits != sa.Hits {
		t.Fatalf("execution accounting diverges: deltas %+v, re-execution %+v, archive %+v", sd, sr, sa)
	}
	if vd.Reorgs != va.Reorgs || vr.Reorgs != va.Reorgs || vd.MaxReorgDepth != va.MaxReorgDepth || vr.MaxReorgDepth != va.MaxReorgDepth {
		t.Fatal("reorg accounting diverges")
	}
	if va.MaxReorgDepth <= prune {
		t.Fatalf("deepest reorg %d does not cross the prune horizon %d", va.MaxReorgDepth, prune)
	}
	// Only the revived stub's two blocks had lost their deltas.
	if sd.Replays != 2 {
		t.Fatalf("executor with deltas re-executed %d blocks, want the 2 of the revived fork", sd.Replays)
	}
	if sr.Replays <= sd.Replays {
		t.Fatalf("twin without deltas re-executed only %d blocks", sr.Replays)
	}
	if sd.Retired == 0 || sd.Retired != sr.Retired || withDeltas.retireFloor != reexec.retireFloor || withDeltas.ckpt != reexec.ckpt {
		t.Fatalf("retirement diverges: %d blocks to floor %d vs %d blocks to floor %d",
			sd.Retired, withDeltas.retireFloor, sr.Retired, reexec.retireFloor)
	}

	// The floor states themselves, then every retained height through
	// the public read path.
	ckpt, _ := archive.stateOf(withDeltas.ckpt)
	want := snapshot(ckpt)
	for name, e := range map[string]*Executor{"deltas": withDeltas, "re-execution": reexec} {
		if !reflect.DeepEqual(snapshot(e.floor), want) {
			t.Fatalf("%s: floor state differs from the archive's state at the checkpoint", name)
		}
		if len(e.floor.own.spent) != 0 || count(&e.floor.base.utxos) != len(want.UTXOs) {
			t.Fatalf("%s: floor holds %d tombstones and %d outputs, want 0 and %d", name, len(e.floor.own.spent), count(&e.floor.base.utxos), len(want.UTXOs))
		}
		checkOwnerIndex(t, name+": floor", e.floor)
	}
	for h := withDeltas.retireFloor; h <= va.Height(); h++ {
		b, _ := va.CanonicalAt(h)
		ref, _ := va.StateAt(b.Hash())
		want := snapshot(ref)
		for name, v := range map[string]*Chain{"deltas": vd, "re-execution": vr} {
			st, ok := v.StateAt(b.Hash())
			if !ok {
				t.Fatalf("%s: no state at retained height %d", name, h)
			}
			if !reflect.DeepEqual(snapshot(st), want) {
				t.Fatalf("%s: ledger at height %d differs from the archive's", name, h)
			}
			if st.TotalValue() != ref.TotalValue() {
				t.Fatalf("%s: total value at height %d is %d, archive has %d", name, h, st.TotalValue(), ref.TotalValue())
			}
			checkOwnerIndex(t, name, st)
		}
	}
	if _, ok := vd.StateAt(stream[0].Hash()); ok {
		t.Fatal("a state below the retire floor is still served")
	}
}
