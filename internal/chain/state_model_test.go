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
	ops    []OutPoint       // every outpoint ever added
	addrs  []crypto.Address // every contract address ever used
	owners []crypto.Address
	serial uint32
	tip    int // the end of the longest chain, extended more often than not
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
	switch m.rng.Intn(3) {
	case 0: // low entropy: a counter and nothing else
		op.Index = m.serial
	case 1: // several outputs of one transaction
		op.TxID = crypto.Sum([]byte{byte(m.serial / 3), byte(m.serial / 768)})
	default:
		op.TxID = crypto.Sum([]byte{byte(m.serial), byte(m.serial >> 8), 1})
	}
	m.ops = append(m.ops, op)
	return op
}

// write performs a few random writes on st and mirrors them in ref.
func (m *stateModel) write(st *State, ref modelLedger) {
	for range 1 + m.rng.Intn(5) {
		switch m.rng.Intn(8) {
		case 0, 1, 2:
			op := m.freshOutPoint()
			out := TxOut{Value: vm.Amount(1 + m.rng.Intn(50)), Owner: m.owners[m.rng.Intn(len(m.owners))]}
			st.AddUTXO(op, out)
			ref.utxos[op] = out
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
			}
		case 5:
			var a crypto.Address
			a[0], a[1], a[19] = 0xC0, byte(len(m.addrs)), byte(len(m.addrs)>>8)
			if m.rng.Intn(2) == 0 {
				a = crypto.Address(crypto.Sum(a[:]).Bytes()[:crypto.AddressSize])
			}
			m.addrs = append(m.addrs, a)
			v := vault{Key: byte(m.rng.Intn(256))}
			st.PutContract(a, &v)
			ref.contracts[a] = v
			st.SetBalance(a, 7)
			ref.balances[a] = 7
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
		m.write(c.st, c.ref)
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
	default: // a pruned block's state, re-mounted from its delta
		_, c := m.pick(func(n *modelNode) bool { return n.parent >= 0 })
		if c == nil {
			return
		}
		p, d := m.nodes[c.parent], c.st.delta()
		if m.rng.Intn(2) == 0 {
			// On a fresh overlay. It shares the delta's contract
			// objects, as the executor's re-derived states do.
			p.open = false
			st := p.st.Child()
			st.apply(d)
			m.add(st, c.ref.clone(), c.parent, true)
		} else {
			// Folded into a base, as the executor's floor advances.
			st := p.st.flatten()
			st.apply(d)
			m.add(st, c.ref.clone(), -1, true)
		}
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
		if got := n.st.UTXOsOwnedBy(a); !reflect.DeepEqual(got, owned[a]) {
			m.t.Fatalf("UTXOsOwnedBy(%s) holds %d outputs, the model %d", a, len(got), len(owned[a]))
		}
	}
	if got := n.st.TotalValue(); got != total {
		m.t.Fatalf("TotalValue = %d, the model sums %d", got, total)
	}
	if b := n.st.base; b != nil {
		checkShape(m.t, &b.utxos)
		checkShape(m.t, &b.owned)
		checkShape(m.t, &b.contracts)
		checkShape(m.t, &b.balances)
	}
}

// TestStateAgainstMapModel drives random Child / flatten / clone /
// delta+apply sequences with random AddUTXO, Spend, PutContract (of a
// fresh object or a stored one's written clone) and SetBalance writes
// over a forked tree of states and, as it goes and at the end, compares
// every node — siblings, snapshots and the bases they were taken from
// included — with a plain-map copy of what it should hold: a write
// through one state must show in no other.
func TestStateAgainstMapModel(t *testing.T) {
	for seed := range uint64(6) {
		m := &stateModel{t: t, rng: sim.NewRNG(100 + seed)}
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
