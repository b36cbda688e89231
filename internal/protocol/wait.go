package protocol

import (
	"math"
	"slices"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/miner"
	"repro/internal/sim"
	"repro/internal/vm"
)

// waitSet is what a participant's last drive was left waiting for: the
// step function ran to the end and did what was enabled, so a later
// drive can only differ if one of the things it looked at has changed.
// The recording reads (Contract, EnsureTx, FindCall) and Throttle fill
// it in during the drive; Runtime.wake consults it on every tip change
// and skips the drive when nothing recorded can have flipped. Rebuilt
// from scratch by every drive, so it never outlives the state it was
// computed against. ADR-014 has the predicate → alarm table.
type waitSet struct {
	// ids is the runtime's subscription set (shared, read-only) and
	// chains the per-chain part of the set, parallel to it.
	ids    []chain.ID
	chains []chainWait
	// at is the earliest virtual time a throttle or resubmit window
	// re-opens (noTime: none pending). Not a timer — checked at the
	// first wake-up past it, exactly when an ungated drive would have
	// found the window open.
	at sim.Time
	// version is Runtime.version when the drive began: anything the run
	// itself changed since, including by this very drive, is unseen.
	version uint64
	// anyTip: the drive read chain state the runtime cannot index.
	anyTip bool
}

// chainWait is the part of a wait-set that one chain's tip changes can
// satisfy.
type chainWait struct {
	// addrs are the contracts read, txs the transactions awaited: a
	// connected block that touches one can change an answer.
	addrs []crypto.Address
	txs   []crypto.Hash
	// atTip, parallel to addrs, keeps what each contract read as at
	// depth 0 during this drive: a read at depth d of a contract nothing
	// touched in the last d blocks is that answer again.
	atTip []tipRead
	// height is the lowest tip height at which an answer at depth flips
	// by burial alone — inclusion or operation height + depth
	// (noHeight: none pending).
	height uint64
	// The slices' first backing arrays: no measured drive reads two
	// contracts or awaits two transactions on one chain (ADR-024).
	oneAddr [1]crypto.Address
	oneTip  [1]tipRead
	oneTx   [1]crypto.Hash
}

// tipRead is one contract's state (nil: none) as read when at was the
// tip; the zero value is "not read".
type tipRead struct {
	ct vm.Contract
	at *chain.Block
}

const (
	noTime   = sim.Time(math.MaxInt64)
	noHeight = uint64(math.MaxUint64)
)

// reset empties the set at the start of a drive.
func (w *waitSet) reset(version uint64) {
	for i := range w.chains {
		cw := &w.chains[i]
		clear(cw.atTip) // do not pin contract states past the drive
		cw.addrs, cw.txs, cw.atTip, cw.height = cw.addrs[:0], cw.txs[:0], cw.atTip[:0], noHeight
	}
	w.at, w.version, w.anyTip = noTime, version, false
}

// on returns the per-chain part for id. A chain outside the
// subscription set has no tip changes to wait for; the read then
// degrades to waking on every tip change there is.
func (w *waitSet) on(id chain.ID) *chainWait {
	if i := slices.Index(w.ids, id); i >= 0 {
		return &w.chains[i]
	}
	w.anyTip = true
	return &chainWait{}
}

// watchAddr adds addr to the contracts watched on its chain and returns
// the chain's part of the set and addr's index in it.
func (w *waitSet) watchAddr(id chain.ID, addr crypto.Address) (*chainWait, int) {
	cw := w.on(id)
	i := slices.Index(cw.addrs, addr)
	if i < 0 {
		i = len(cw.addrs)
		cw.addrs, cw.atTip = append(cw.addrs, addr), append(cw.atTip, tipRead{})
	}
	return cw, i
}

// read answers view.ContractAtDepth(addr, depth) and records what can
// change the answer: a block that deploys or calls addr and, at depth,
// the tip height at which such an operation already on the chain
// surfaces there. With no such operation pending, the contract at depth
// is the contract at the tip — served from this drive's own tip read
// when there was one (a step typically reads SCw at both).
func (w *waitSet) read(view *chain.Chain, id chain.ID, addr crypto.Address, depth int) vm.Contract {
	cw, i := w.watchAddr(id, addr)
	if depth > 0 {
		if h, pending := view.NextBurial(addr, depth); pending {
			cw.height = min(cw.height, h)
		} else if r := cw.atTip[i]; r.at == view.Tip() {
			return r.ct
		}
	}
	ct, _ := view.ContractAtDepth(addr, depth)
	if depth == 0 {
		cw.atTip[i] = tipRead{ct: ct, at: view.Tip()}
	}
	return ct
}

func (w *waitSet) watchTx(id chain.ID, tx crypto.Hash) {
	if cw := w.on(id); !slices.Contains(cw.txs, tx) {
		cw.txs = append(cw.txs, tx)
	}
}

func (w *waitSet) flipAt(id chain.ID, height uint64) {
	cw := w.on(id)
	cw.height = min(cw.height, height)
}

func (w *waitSet) wakeBy(t sim.Time) { w.at = min(w.at, t) }

// due reports whether a tip change of chain ci, summarised by sum, can
// have changed what the last drive saw: a reorg (anything read from the
// abandoned blocks is void), a run-state change since the drive began,
// a throttle or resubmit window that has re-opened, a burial height
// reached, or a connected block that touches a watched contract or
// transaction.
func (w *waitSet) due(ci int, sum miner.TipSummary, version uint64, now sim.Time) bool {
	cw := &w.chains[ci]
	if sum.Reorg || w.anyTip || w.version != version || now >= w.at || sum.Height >= cw.height {
		return true
	}
	for _, b := range sum.Connected {
		if b.Touches(cw.addrs, cw.txs) {
			return true
		}
	}
	return false
}
