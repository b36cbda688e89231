package miner

import (
	"repro/internal/chain"
	"repro/internal/crypto"
)

// mempool holds one view's pending transactions in arrival order, one
// entry per arrival: one that left and came back is offered once.
type mempool struct {
	view  *chain.Chain // forgets what it remembers of a removed transaction
	byID  map[crypto.Hash]*entry
	order []*entry
	buf   []*chain.Tx // ordered's result, refilled by every call
}

type entry struct {
	tx       *chain.Tx
	failures int
	dead     bool // removed; the next ordered() drops it from order
}

func (m *mempool) add(tx *chain.Tx) {
	id := tx.ID()
	if m.byID[id] != nil {
		return
	}
	e := &entry{tx: tx}
	m.byID[id] = e
	m.order = append(m.order, e)
}

func (m *mempool) remove(id crypto.Hash) {
	if e := m.byID[id]; e != nil {
		e.dead = true
		delete(m.byID, id)
		m.view.Forget(id)
	}
}

// fail records a validation failure and returns the running count.
func (m *mempool) fail(id crypto.Hash) int {
	e := m.byID[id]
	if e == nil {
		return 0
	}
	e.failures++
	return e.failures
}

// ordered returns pending transactions in arrival order, compacting
// removed entries away. The result is valid until the next call.
func (m *mempool) ordered() []*chain.Tx {
	out := m.buf[:0]
	live := m.order[:0]
	for _, e := range m.order {
		if !e.dead {
			out = append(out, e.tx)
			live = append(live, e)
		}
	}
	clear(m.order[len(live):])
	m.order = live
	m.buf = out
	return out
}

func (m *mempool) size() int { return len(m.byID) }
