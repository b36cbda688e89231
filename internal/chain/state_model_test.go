package chain

import (
	"maps"
	"reflect"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// modelLedger is what a state must read as, kept in plain maps and
// copied whole wherever the state tree shares structure.
type modelLedger struct {
	utxos     map[OutPoint]TxOut
	contracts map[crypto.Address]vault // by value: the objects' contents
	balances  map[crypto.Address]vm.Amount
}

func (l modelLedger) clone() modelLedger {
	return modelLedger{maps.Clone(l.utxos), maps.Clone(l.contracts), maps.Clone(l.balances)}
}

// modelNode is one state of the tree under test. A node is open while
// nothing has been built on it: only open nodes are written, the way
// the chain writes only the layer under construction and the executor
// only its private floor.
type modelNode struct {
	st     *State
	ref    modelLedger
	parent int // the node Child was called on, -1 for a base
	open   bool
}

// stateModel grows a forked tree of states by the operations the chain
// package performs on them and mirrors every write in plain maps.
type stateModel struct {
	t      *testing.T
	rng    *sim.RNG
	nodes  []*modelNode
	ops    []OutPoint         // every outpoint ever added
	outs   map[OutPoint]TxOut // what each was added with
	addrs  []crypto.Address   // every contract address ever used
	owners []crypto.Address
	serial uint32
	tip    int        // the end of the longest chain, extended more often than not
	buf    blockDelta // the buffers built layers are written in
	slabs  blockDelta // and the slabs they are sealed into
}

func (m *stateModel) add(st *State, ref modelLedger, parent int, open bool) *modelNode {
	n := &modelNode{st: st, ref: ref, parent: parent, open: open}
	m.nodes = append(m.nodes, n)
	return n
}

// pick returns a random node that is ok, if a few draws find one.
func (m *stateModel) pick(ok func(*modelNode) bool) (int, *modelNode) {
	for range 8 {
		if i := m.rng.Intn(len(m.nodes)); ok(m.nodes[i]) {
			return i, m.nodes[i]
		}
	}
	return -1, nil
}

func (m *stateModel) freshOutPoint() OutPoint {
	m.serial++
	op := OutPoint{Index: m.serial % 3}
	switch m.rng.Intn(4) {
	case 0: // low entropy: a counter and nothing else
		op.Index = m.serial
	case 1: // several outputs of one transaction
		op.TxID = crypto.Sum([]byte{byte(m.serial / 3), byte(m.serial / 768)})
	case 2: // on the fingerprint bit every such key shares; some on its id's first eight bytes too
		if m.rng.Intn(2) == 0 {
			op.TxID = crypto.Hash{0: 0x5A, 7: 0xA5, 30: byte(m.serial >> 8), 31: byte(m.serial)}
			break
		}
		for i := uint32(0); ; i++ {
			op.TxID = crypto.Sum([]byte{byte(m.serial), byte(m.serial >> 8), byte(i), byte(i >> 8), 2})
			if bitOf(op.TxID[:], op.Index) == sharedBit {
				break
			}
		}
	default:
		op.TxID = crypto.Sum([]byte{byte(m.serial), byte(m.serial >> 8), 1})
	}
	m.ops = append(m.ops, op)
	return op
}

// sharedBit is the fingerprint bit some of the model's outpoints and
// addresses are made to share, so that one layer's lookups for them
// never skip it and must tell them apart by comparing keys.
const sharedBit = 0xA5

// freshAddr returns a new contract address: a digest, one on the
// shared fingerprint bit, or one differing from the others like it
// only past its first eight bytes.
func (m *stateModel) freshAddr() crypto.Address {
	var a crypto.Address
	a[0], a[18], a[19] = 0xC0, byte(len(m.addrs)), byte(len(m.addrs)>>8)
	switch m.rng.Intn(3) {
	case 0:
		a = crypto.Address(crypto.Sum(a[:]).Bytes()[:crypto.AddressSize])
	case 1:
		for a[2] = 0; bitOf(a[:], 0) != sharedBit; a[2]++ {
			a[3] += byte(m.rng.Intn(256))
		}
	}
	m.addrs = append(m.addrs, a)
	return a
}

// write performs a few random writes on st and mirrors them in ref.
func (m *stateModel) write(st *State, ref modelLedger) {
	for range 1 + m.rng.Intn(5) {
		switch m.rng.Intn(8) {
		case 0, 1, 2:
			op := m.freshOutPoint()
			out := TxOut{Value: vm.Amount(1 + m.rng.Intn(50)), Owner: m.owners[m.rng.Intn(len(m.owners))]}
			m.outs[op] = out
			st.AddUTXO(op, out)
			ref.utxos[op] = out
			if m.rng.Intn(4) == 0 { // spent by a later transaction of the same block
				st.Spend(op)
				delete(ref.utxos, op)
			}
		case 3, 4:
			// Spend something live — or, now and then, put back an
			// output this state once held (a layer may re-add what a
			// layer below it spent).
			if len(m.ops) == 0 {
				continue
			}
			op := m.ops[m.rng.Intn(len(m.ops))]
			if out, live := ref.utxos[op]; live {
				st.Spend(op)
				delete(ref.utxos, op)
				if m.rng.Intn(4) == 0 {
					st.AddUTXO(op, out)
					ref.utxos[op] = out
				}
			} else if m.rng.Intn(3) == 0 {
				// Re-added over a tombstone, this layer's or one below.
				st.AddUTXO(op, m.outs[op])
				ref.utxos[op] = m.outs[op]
			}
		case 5:
			a := m.freshAddr()
			v := vault{Key: byte(m.rng.Intn(256))}
			st.PutContract(a, &v)
			ref.contracts[a] = v
			st.SetBalance(a, 7)
			ref.balances[a] = 7
			if m.rng.Intn(3) == 0 { // called in the same block: both overwritten in the layer
				w := v
				w.Key++
				st.PutContract(a, &w)
				ref.contracts[a] = w
				st.SetBalance(a, 9)
				ref.balances[a] = 9
			}
		case 6: // a call: the stored object is cloned, the clone written and stored
			if len(m.addrs) == 0 {
				continue
			}
			a := m.addrs[m.rng.Intn(len(m.addrs))]
			c, ok := st.Contract(a)
			if _, want := ref.contracts[a]; ok != want {
				m.t.Fatalf("Contract(%s) found=%v, the model says %v", a, ok, want)
			}
			if ok {
				v := c.Clone().(*vault)
				v.Key++
				v.Open = !v.Open
				st.PutContract(a, v)
				ref.contracts[a] = *v
			}
		default:
			if len(m.addrs) == 0 {
				continue
			}
			a := m.addrs[m.rng.Intn(len(m.addrs))]
			v := vm.Amount(m.rng.Intn(100))
			st.SetBalance(a, v)
			ref.balances[a] = v
		}
	}
}

func (m *stateModel) step() {
	isBase := func(n *modelNode) bool { return n.st.parent == nil }
	isOpen := func(n *modelNode) bool { return n.open }
	any := func(*modelNode) bool { return true }
	switch m.rng.Intn(12) {
	case 0, 1, 2: // build on a state; it is shared from now on
		i, p := m.tip, m.nodes[m.tip]
		if fork := m.rng.Intn(10) < 3; fork {
			i, p = m.pick(any)
		}
		p.open = false
		c := m.add(p.st.Child(), p.ref.clone(), i, true)
		// Written in buffers every built layer reuses, then sealed, as
		// BuildBlock's layers are: no layer may see another's writes.
		c.st.own, m.buf = m.buf, blockDelta{}
		m.write(c.st, c.ref)
		m.buf = c.st.own.seal(&m.slabs, nil)
		if i == m.tip {
			m.tip = len(m.nodes) - 1 // so overlay chains grow past flattenDepth
		}
	case 3, 4, 5, 6: // write the layer under construction (or a private base)
		if _, n := m.pick(isOpen); n != nil {
			m.write(n.st, n.ref)
		}
	case 7: // collapse a chain into a base of its own
		if _, p := m.pick(any); p != nil {
			// The new base shares the contract objects of p's layers,
			// which are never written once stored: p stays as open as
			// it was.
			m.add(p.st.flatten(), p.ref.clone(), -1, true)
		}
	case 8, 9: // snapshot a base; both sides may keep writing
		if _, b := m.pick(isBase); b != nil {
			m.add(b.st.clone(), b.ref.clone(), -1, true)
		}
	default: // a block's state pruned to its delta, then re-mounted
		_, c := m.pick(func(n *modelNode) bool { return n.parent >= 0 })
		if c == nil {
			return
		}
		// The delta is the layer itself: neither it nor the layer
		// re-mounted from it is written again.
		c.open = false
		p, d := m.nodes[c.parent], c.st.own
		if m.rng.Intn(2) == 0 {
			// On the parent, as the executor re-derives a pruned state.
			p.open = false
			st := p.st.Child()
			st.own = d
			m.add(st, c.ref.clone(), c.parent, false)
		} else {
			// Folded into a base, as the executor's floor advances.
			st := p.st.flatten()
			st.apply(&d)
			m.add(st, c.ref.clone(), -1, true)
		}
	}
}

// ownedMap is a wallet read collected into a map, what tests compare
// with their models.
func ownedMap(st *State, a crypto.Address) map[OutPoint]TxOut {
	m := make(map[OutPoint]TxOut)
	for _, o := range st.AppendOwned(nil, a) {
		m[o.Op] = o.Out
	}
	return m
}

// checkLayer holds a layer's own invariants: every key it holds has
// its fingerprint bit, an outpoint is added or spent at most once and
// never both, and an address has at most one contract and one balance.
func checkLayer(t *testing.T, d *blockDelta) {
	t.Helper()
	ops := make(map[OutPoint]bool)
	for _, e := range d.added {
		if ops[e.op] || !d.keys.has(bitOf(e.op.TxID[:], e.op.Index)) {
			t.Fatalf("layer holds output %s twice or without its bit", e.op)
		}
		ops[e.op] = true
	}
	for _, op := range d.spent {
		if ops[op] || !d.keys.has(bitOf(op.TxID[:], op.Index)) {
			t.Fatalf("layer holds tombstone %s twice, beside its output or without its bit", op)
		}
		ops[op] = true
	}
	contracts, balances := make(map[crypto.Address]bool), make(map[crypto.Address]bool)
	for _, e := range d.contracts {
		if contracts[e.addr] || !d.keys.has(bitOf(e.addr[:], 0)) {
			t.Fatalf("layer holds contract %s twice or without its bit", e.addr)
		}
		contracts[e.addr] = true
	}
	for _, e := range d.balances {
		if balances[e.addr] || !d.keys.has(bitOf(e.addr[:], 0)) {
			t.Fatalf("layer holds balance %s twice or without its bit", e.addr)
		}
		balances[e.addr] = true
	}
}

// check compares everything n's state can be asked with the model.
func (m *stateModel) check(n *modelNode) {
	m.t.Helper()
	for _, op := range m.ops {
		got, ok := n.st.UTXO(op)
		if want, live := n.ref.utxos[op]; ok != live || got != want {
			m.t.Fatalf("UTXO(%s) = %v, %v; the model holds %v, %v", op, got, ok, want, live)
		}
	}
	for _, a := range m.addrs {
		c, ok := n.st.Contract(a)
		if want, live := n.ref.contracts[a]; ok != live || (ok && *c.(*vault) != want) {
			m.t.Fatalf("Contract(%s) = %v, %v; the model holds %v, %v", a, c, ok, want, live)
		}
		if got, want := n.st.Balance(a), n.ref.balances[a]; got != want {
			m.t.Fatalf("Balance(%s) = %d, the model holds %d", a, got, want)
		}
	}
	var total vm.Amount
	owned := make(map[crypto.Address]map[OutPoint]TxOut)
	for _, a := range m.owners {
		owned[a] = make(map[OutPoint]TxOut)
	}
	for op, o := range n.ref.utxos {
		owned[o.Owner][op] = o
		total += o.Value
	}
	for _, v := range n.ref.balances {
		total += v
	}
	for _, a := range m.owners {
		// Appended after a prefix it keeps, in outpoint order, each once.
		list := n.st.AppendOwned([]Owned{{Out: TxOut{Value: 7}}}, a)
		if list[0].Out.Value != 7 {
			m.t.Fatalf("AppendOwned(%s) overwrote its destination's prefix", a)
		}
		for i := 2; i < len(list); i++ {
			if list[i-1].Op.Compare(list[i].Op) >= 0 {
				m.t.Fatalf("AppendOwned(%s) lists %v before %v", a, list[i-1].Op, list[i].Op)
			}
		}
		if got := ownedMap(n.st, a); !reflect.DeepEqual(got, owned[a]) {
			m.t.Fatalf("AppendOwned(%s) holds %d outputs, the model %d", a, len(got), len(owned[a]))
		}
	}
	if got := n.st.TotalValue(); got != total {
		m.t.Fatalf("TotalValue = %d, the model sums %d", got, total)
	}
	if n.st.base == nil {
		checkLayer(m.t, &n.st.own)
	}
	if b := n.st.base; b != nil {
		checkShape(m.t, &b.utxos)
		checkShape(m.t, &b.owned)
		checkShape(m.t, &b.contracts)
		checkShape(m.t, &b.balances)
	}
}

// TestStateAgainstMapModel drives random Child / flatten / clone /
// delta+mount / delta+apply sequences with random AddUTXO, Spend,
// PutContract (of a fresh object or a stored one's written clone) and
// SetBalance writes over a forked tree of states and, as it goes and at
// the end, compares every node — siblings, snapshots and the bases they
// were taken from included — with a plain-map copy of what it should
// hold: a write through one state must show in no other. The writes
// include an output spent in the layer that added it, one re-added over
// a tombstone, a contract and its balance overwritten within one layer,
// and keys made to share one fingerprint bit.
func TestStateAgainstMapModel(t *testing.T) {
	for seed := range uint64(6) {
		m := &stateModel{t: t, rng: sim.NewRNG(100 + seed), outs: make(map[OutPoint]TxOut)}
		for i := range 5 {
			m.owners = append(m.owners, crypto.Address{0xA0, byte(i)})
		}
		m.add(NewState(), modelLedger{
			utxos:     make(map[OutPoint]TxOut),
			contracts: make(map[crypto.Address]vault),
			balances:  make(map[crypto.Address]vm.Amount),
		}, -1, true)
		deepest := 0
		for step := range 1500 {
			m.step()
			deepest = max(deepest, m.nodes[m.tip].st.OverlayDepth())
			if step%25 == 0 {
				m.check(m.nodes[m.rng.Intn(len(m.nodes))])
			}
		}
		if deepest < flattenDepth {
			t.Fatalf("seed %d: overlay chains never reached flattenDepth (deepest %d)", seed, deepest)
		}
		for _, n := range m.nodes {
			m.check(n)
		}
	}
}
