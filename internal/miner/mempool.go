package miner

import (
	"repro/internal/chain"
	"repro/internal/crypto"
)

// mempool holds one view's pending transactions in arrival order, one
// slot per arrival, by value: one that left and came back is offered
// once, from the slot of its latest arrival.
type mempool struct {
	view  *chain.Chain // forgets what it remembers of a removed transaction
	byID  map[crypto.Hash]held
	order []slot
	seq   int         // arrivals so far
	buf   []*chain.Tx // ordered's result, refilled by every call
}

// held is a pending transaction's latest arrival and its failure count.
type held struct{ seq, failures int }

// slot is one arrival, live while it is its transaction's latest.
type slot struct {
	tx  *chain.Tx
	seq int
}

func (m *mempool) add(tx *chain.Tx) {
	if _, ok := m.byID[tx.ID()]; !ok {
		m.seq++
		m.byID[tx.ID()] = held{seq: m.seq}
		m.order = append(m.order, slot{tx, m.seq})
	}
}

func (m *mempool) remove(id crypto.Hash) {
	if _, ok := m.byID[id]; ok {
		delete(m.byID, id)
		m.view.Forget(id)
	}
}

// fail records a validation failure and returns the running count.
func (m *mempool) fail(id crypto.Hash) int {
	h, ok := m.byID[id]
	if !ok {
		return 0
	}
	h.failures++
	m.byID[id] = h
	return h.failures
}

// ordered returns pending transactions in arrival order, compacting
// removed arrivals away. The result is valid until the next call.
func (m *mempool) ordered() []*chain.Tx {
	out := m.buf[:0]
	live := m.order[:0]
	for _, s := range m.order {
		if h, ok := m.byID[s.tx.ID()]; ok && h.seq == s.seq {
			out = append(out, s.tx)
			live = append(live, s)
		}
	}
	clear(m.order[len(live):])
	m.order = live
	m.buf = out
	return out
}

func (m *mempool) size() int { return len(m.byID) }
