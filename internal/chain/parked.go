package chain

import (
	"slices"

	"repro/internal/crypto"
)

// Parked candidates (ADR-020). Invariant: each was rejected, without its
// contract consulting the clock, against a state that agrees with the
// view's tip state on its keys. A needless release costs one trial, so
// keys are coarse: a transaction id for all its outputs, and beside them
// a contract address, zero-padded.

// touched appends the keys applying tx writes: its own id first, then
// those its verdict also reads — its contract and its inputs' ids.
func (tx *Tx) touched(buf []crypto.Hash) []crypto.Hash {
	buf = append(buf, tx.ID())
	switch tx.Kind {
	case TxDeploy:
		buf = append(buf, addrKey(tx.ContractAddr()))
	case TxCall:
		buf = append(buf, addrKey(tx.Contract))
	}
	for _, in := range tx.Ins {
		buf = append(buf, in.Prev.TxID)
	}
	return buf
}

func addrKey(a crypto.Address) (k crypto.Hash) {
	copy(k[:], a[:])
	return k
}

// park records a candidate that was just tried, so is not parked already.
func (c *Chain) park(tx *Tx) {
	id := tx.ID()
	c.parked[id] = tx
	var buf [8]crypto.Hash
	for _, k := range tx.touched(buf[:0])[1:] {
		c.parkedBy[k] = append(c.parkedBy[k], id)
	}
	c.exec.stats.ParkedHigh = max(c.exec.stats.ParkedHigh, len(c.parked))
}

// wrote releases every candidate whose verdict read something one of
// txs — just applied, or of a block joining or leaving the chain — writes.
func (c *Chain) wrote(txs ...*Tx) {
	if len(c.parked) == 0 {
		return
	}
	var buf [8]crypto.Hash
	for _, tx := range txs {
		for _, k := range tx.touched(buf[:0]) {
			for _, id := range slices.Clone(c.parkedBy[k]) {
				c.Forget(id)
			}
		}
	}
}

// Forget drops the record of a candidate, if it has one: it was released,
// or its node removed it from the mempool, which no record outlives.
func (c *Chain) Forget(id crypto.Hash) {
	tx := c.parked[id]
	if tx == nil {
		return
	}
	delete(c.parked, id)
	var buf [8]crypto.Hash
	for _, k := range tx.touched(buf[:0])[1:] {
		if ids := slices.DeleteFunc(c.parkedBy[k], func(x crypto.Hash) bool { return x == id }); len(ids) > 0 {
			c.parkedBy[k] = ids
		} else {
			delete(c.parkedBy, k)
		}
	}
}

// Parked reports how many rejected candidates the view is holding back.
func (c *Chain) Parked() int { return len(c.parked) }
