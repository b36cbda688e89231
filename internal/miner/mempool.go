package miner

import (
	"repro/internal/chain"
	"repro/internal/crypto"
)

// mempool holds one view's pending transactions in arrival order.
type mempool struct {
	view     *chain.Chain // forgets what it remembers of a removed transaction
	byID     map[crypto.Hash]*chain.Tx
	order    []crypto.Hash
	failures map[crypto.Hash]int
	buf      []*chain.Tx // ordered's result, refilled by every call
}

func newMempool(view *chain.Chain) *mempool {
	return &mempool{
		view:     view,
		byID:     make(map[crypto.Hash]*chain.Tx),
		failures: make(map[crypto.Hash]int),
	}
}

func (m *mempool) add(tx *chain.Tx) {
	id := tx.ID()
	if _, dup := m.byID[id]; dup {
		return
	}
	m.byID[id] = tx
	m.order = append(m.order, id)
}

func (m *mempool) remove(id crypto.Hash) {
	delete(m.byID, id)
	delete(m.failures, id)
	m.view.Forget(id)
	// order is compacted lazily in ordered().
}

// fail records a validation failure and returns the running count.
func (m *mempool) fail(id crypto.Hash) int {
	m.failures[id]++
	return m.failures[id]
}

// ordered returns pending transactions in arrival order, compacting
// tombstones. The result is valid until the next call.
func (m *mempool) ordered() []*chain.Tx {
	out := m.buf[:0]
	live := m.order[:0]
	for _, id := range m.order {
		if tx, ok := m.byID[id]; ok {
			out = append(out, tx)
			live = append(live, id)
		}
	}
	m.order = live
	m.buf = out
	return out
}

func (m *mempool) size() int { return len(m.byID) }
