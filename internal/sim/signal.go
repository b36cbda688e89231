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
	waiters   []*Waiter
	spare     []*Waiter // the previous dispatch's batch, emptied, for the next one to fill
	dispatch  func()    // g.run, made once so that a Notify allocates nothing
	scheduled bool
}

// Waiter is one registered one-shot callback. Cancel is idempotent and
// safe at any time, including after the waiter fired.
type Waiter struct {
	fn       func()
	canceled bool
}

// NewSignal creates a signal bound to the simulator's clock.
func (s *Sim) NewSignal() *Signal {
	g := &Signal{s: s}
	g.dispatch = g.run
	return g
}

// Wait registers fn to run at the next notification. The returned
// Waiter cancels the registration; a fired or canceled waiter is inert.
func (g *Signal) Wait(fn func()) *Waiter {
	if fn == nil {
		panic("sim: Signal.Wait with nil fn")
	}
	w := &Waiter{fn: fn}
	g.waiters = append(g.waiters, w)
	return w
}

// Rearm registers w for the next notification again, reusing the
// waiter and its callback: what a subscriber that waits on every
// notification does instead of allocating a Wait per wake-up. w must
// have fired — a waiter canceled before firing is still listed until the
// next dispatch and would run twice. Ordering is Wait's: w joins at the
// back.
func (g *Signal) Rearm(w *Waiter) {
	w.canceled = false
	g.waiters = append(g.waiters, w)
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
	for _, w := range batch {
		if !w.canceled {
			w.canceled = true // one-shot: mark fired
			w.fn()
		}
	}
	clear(batch)
	g.spare = batch[:0]
}

// Waiting reports the number of registered waiters.
// kept: observed across packages by the engine's
// TestShardActivityListsOneWaiter.
func (g *Signal) Waiting() int { return len(g.waiters) }

// Cancel removes the waiter from its signal's next dispatch. Idempotent:
// canceling twice, or after the waiter already fired, is a no-op.
func (w *Waiter) Cancel() { w.canceled = true }
