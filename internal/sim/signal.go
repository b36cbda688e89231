package sim

// Signal is the simulator's notification primitive: actors register
// one-shot waiters, and a Notify schedules every registered waiter to
// run at the current virtual instant. It is the schedule-on-notify
// building block the event-driven watch layer (miner clients, protocol
// reconcilers, the orchestration engine) is built on, replacing
// fixed-cadence polling.
//
// Determinism rules:
//
//   - Delivery is FIFO in registration order. Two runs that register
//     and notify in the same order observe identical delivery order.
//   - Notify consumes zero events when nobody waits — an idle signal
//     is free, which is exactly why notification beats polling.
//   - Consecutive Notify calls at one instant coalesce into a single
//     dispatch event; waiters registered between a Notify and its
//     dispatch are included in that dispatch. Waiters must therefore
//     treat a wakeup as "state may have changed, re-check", never as
//     a counted edge.
//   - There is no wall clock anywhere: dispatch rides the ordinary
//     (time, seq) event heap via After(0).
type Signal struct {
	s         *Sim
	waiters   []listing
	spare     []listing // the previous dispatch's batch, emptied, for the next one to fill
	dispatch  func()    // g.run, made once so that a Notify allocates nothing
	scheduled bool
}

// Waiter is one registered one-shot callback. Cancel is idempotent and
// safe at any time, including after the waiter fired.
type Waiter struct {
	target   Waker
	gen      uint32 // bumped by Rearm: a listing of an older gen is stale
	canceled bool
}

// Waker is what a waiter wakes. A pointer held in the interface costs
// no allocation, so a subscriber keeping its waiter by value arms it for
// nothing.
type Waker interface{ Wake() }

type listing struct {
	w   *Waiter
	gen uint32
}

// NewSignal creates a signal bound to the simulator's clock.
func (s *Sim) NewSignal() *Signal {
	g := &Signal{s: s}
	g.dispatch = g.run
	return g
}

// NewWaiter returns an unlisted waiter that wakes t, for a caller to
// keep by value and register with Rearm. Cancel deregisters it; a fired
// or canceled waiter is inert.
func NewWaiter(t Waker) Waiter { return Waiter{target: t} }

// Rearm registers w for the next notification, again after the first
// time: a subscriber that waits on every notification keeps one waiter.
// w joins at the back. Any earlier listing of w — a waiter canceled or
// re-armed before it fired — goes stale, so w runs once.
func (g *Signal) Rearm(w *Waiter) {
	w.gen++
	w.canceled = false
	g.waiters = append(g.waiters, listing{w, w.gen})
}

// Notify schedules all registered waiters to run at the current
// virtual instant, FIFO in registration order, and clears the list.
// A notify with no waiters is a no-op and costs no simulator event;
// repeated notifies before dispatch coalesce into one event.
func (g *Signal) Notify() {
	if g.scheduled || len(g.waiters) == 0 {
		return
	}
	g.scheduled = true
	g.s.After(0, g.dispatch)
}

// run is the dispatch event a Notify schedules.
func (g *Signal) run() {
	g.scheduled = false
	batch := g.waiters
	g.waiters = g.spare // waiters re-registering meanwhile fill the other buffer
	for _, l := range batch {
		if w := l.w; l.gen == w.gen && !w.canceled {
			w.canceled = true // one-shot: mark fired
			w.target.Wake()
		}
	}
	clear(batch)
	g.spare = batch[:0]
}

// Waiting reports the number of listed registrations, stale ones included.
// kept: observed across packages by the engine's
// TestShardActivityListsOneWaiter.
func (g *Signal) Waiting() int { return len(g.waiters) }

// Cancel removes the waiter from its signal's next dispatch. Idempotent:
// canceling twice, or after the waiter already fired, is a no-op.
func (w *Waiter) Cancel() { w.canceled = true }
