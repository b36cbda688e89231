// Package sim provides a deterministic discrete-event simulation (DES)
// engine used by every other package in this repository.
//
// All blockchain networks, miners, participants, and adversaries are
// actors that schedule callbacks on a single virtual clock. The event
// loop is strictly sequential and ordered by (time, sequence number),
// so a run is a pure function of its configuration and RNG seed: there
// is no wall-clock dependence and no data race by construction.
//
// Time is modeled in virtual milliseconds (an int64). One "Δ" in the
// paper's analysis — enough time to publish a smart contract and have
// the change publicly recognized — is a measured quantity on top of
// this clock, not a constant baked in here.
package sim

import "fmt"

// Time is a virtual timestamp in milliseconds since the start of the
// simulation.
type Time = int64

// Millisecond, Second, Minute and Hour are convenient duration units
// for the virtual clock.
const (
	Millisecond Time = 1
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
}

// eventHeap is a binary min-heap ordered by (at, seq). It holds events
// by value: once grown, scheduling one allocates nothing.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0 && q.less(i, (i-1)/2); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
}

// pop removes and returns the earliest event. The vacated slot is
// zeroed so the backing array does not keep a dispatched closure alive.
func (h *eventHeap) pop() event {
	q := *h
	e, n := q[0], len(q)-1
	q[0], q[n] = q[n], event{}
	*h = q[:n]
	for i := 0; 2*i+1 < n; {
		m := 2*i + 1
		if m+1 < n && q.less(m+1, m) {
			m++
		}
		if !q.less(m, i) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return e
}

// Sim is a deterministic discrete-event simulator. The zero value is
// not usable; construct with New.
type Sim struct {
	now     Time
	seq     uint64
	pending eventHeap
	rng     *RNG
	stopped bool

	// Executed counts events dispatched so far: a shard's event count,
	// and what MaxEvents bounds.
	Executed uint64

	// MaxEvents aborts the run (via panic) when exceeded, guarding
	// against accidentally unbounded simulations. Zero means no limit.
	MaxEvents uint64
}

// New returns a simulator whose random source is seeded with seed.
// Identical seeds and identical scheduling sequences produce identical
// runs.
func New(seed uint64) *Sim {
	return &Sim{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Reset returns the simulator to a pristine state: time zero, empty
// event queue, counters cleared, random source re-seeded with seed. A
// Reset simulator is indistinguishable from New(seed), so a harness
// executing many independent worlds back to back (the engine's shard
// workers, for example) can reuse one Sim value instead of
// reallocating per world.
func (s *Sim) Reset(seed uint64) {
	s.now = 0
	s.seq = 0
	s.pending = nil
	s.stopped = false
	s.Executed = 0
	s.MaxEvents = 0
	s.rng = NewRNG(seed)
}

// RNG returns the simulator's deterministic random source.
func (s *Sim) RNG() *RNG { return s.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) panics: it would make the clock non-monotonic.
func (s *Sim) At(t Time, fn func()) {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling in the past (t=%d, now=%d)", t, s.now))
	}
	s.seq++
	s.pending.push(event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn to run d milliseconds from now. Negative d panics.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: After with negative delay %d", d))
	}
	s.At(s.now+d, fn)
}

// Stop makes the event loop return after the currently executing event
// completes. Pending events remain queued and a later Run resumes them.
func (s *Sim) Stop() { s.stopped = true }

// Run dispatches events in (time, seq) order until no events remain or
// Stop is called.
func (s *Sim) Run() {
	s.stopped = false
	for len(s.pending) > 0 && !s.stopped {
		s.step()
	}
}

// RunUntil dispatches events with at <= deadline, then sets the clock
// to deadline if it has not advanced that far. Events scheduled beyond
// the deadline remain pending.
func (s *Sim) RunUntil(deadline Time) {
	s.stopped = false
	for len(s.pending) > 0 && !s.stopped && s.pending[0].at <= deadline {
		s.step()
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
}

// RunUntilDone dispatches events until done reports true (checked
// every checkEvery of virtual time) or the virtual clock reaches
// deadline, and reports whether done held. This is the
// run-to-quiescence primitive for worlds whose actors never go idle
// on their own (miners keep mining forever): the caller supplies the
// quiescence condition — "all transactions graded", "network
// converged" — instead of waiting for an empty event queue.
func (s *Sim) RunUntilDone(done func() bool, checkEvery Time, deadline Time) bool {
	if done() {
		return true
	}
	if checkEvery <= 0 {
		checkEvery = Second
	}
	finished, returned := false, false
	var check func()
	check = func() {
		if returned {
			return
		}
		if done() {
			finished = true
			s.Stop()
			return
		}
		s.After(checkEvery, check)
	}
	s.After(checkEvery, check)
	s.RunUntil(deadline)
	returned = true
	if !finished {
		finished = done()
	}
	return finished
}

// step executes the earliest pending event.
func (s *Sim) step() {
	e := s.pending.pop()
	if e.at > s.now {
		s.now = e.at
	}
	s.Executed++
	if s.MaxEvents > 0 && s.Executed > s.MaxEvents {
		panic(fmt.Sprintf("sim: exceeded MaxEvents=%d at virtual time %d", s.MaxEvents, s.now))
	}
	e.fn()
}

// Pending reports the number of queued events.
// kept: observed across packages by protocol.Shadow's footprint.
func (s *Sim) Pending() int { return len(s.pending) }
