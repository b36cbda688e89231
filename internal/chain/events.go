package chain

// TipEvent is what a chain view publishes, synchronously, after every
// change of its canonical tip. It carries what the node layer cannot
// read off the view afterwards. What joined the chain and whether the
// old tip was abandoned a subscriber derives with Since, for however
// many tip changes its wake-up coalesced.
type TipEvent struct {
	// Disconnected lists the blocks that left the canonical chain,
	// oldest first. Non-empty only when a fork was abandoned — their
	// transactions are no longer confirmed and must be re-announced
	// (the miner layer returns them to the mempool) or retracted.
	Disconnected []*Block
}

// OnTipChange registers fn to run synchronously whenever the canonical
// tip changes, in registration order. The chain view is fully updated
// when fn runs, so fn may read any query method; it must not mutate
// the view. Listeners are for the node layer — actors that need
// scheduled, cancelable delivery subscribe through miner.Node's signal
// instead.
func (c *Chain) OnTipChange(fn func(TipEvent)) {
	if fn == nil {
		panic("chain: OnTipChange with nil listener")
	}
	c.listeners = append(c.listeners, fn)
}
