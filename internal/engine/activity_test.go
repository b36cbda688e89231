package engine

import (
	"testing"

	"repro/internal/sim"
)

// TestShardActivityListsOneWaiter runs one shard the way runShard does
// and counts the waiters on its activity signal after every dispatch.
// One re-armed waiter serves every in-flight AC2T, so a second entry is
// a double arm, and Wake would then run twice per tip change. To
// cover the arm that happens mid-pass, every third in-flight AC2T has
// its deadline pulled in to the present, so the next Wake grades it,
// which admits a queued arrival and so calls armActivity before the
// pass has ended.
func TestShardActivityListsOneWaiter(t *testing.T) {
	const txCount = 48
	wl := named(t, "default", txCount)
	wl.ArrivalEvery = sim.Second // arrivals outrun the in-flight cap and queue
	s := sim.New(0)
	s.Reset(42)
	dispatches, midPass, inWake := 0, 0, false
	var e *shardExec
	e = &shardExec{
		seed: 42, wl: wl, proto: protocolOf(wl.Protocol), prune: Config{}.pruneDepth(),
		s: s, txs: make([]txState, txCount), res: newShardResult(0, 42, txCount),
		graded: func() { // finish admits a queued arrival next
			if inWake && len(e.queue) > 0 {
				midPass++
			}
		},
	}
	if err := e.buildWorld(txCount, nil); err != nil {
		t.Fatal(err)
	}
	e.actWaiter = sim.NewWaiter(wakeFunc(func() { inWake = true; e.Wake(); inWake = false }))
	e.scheduleArrivals()
	var probe sim.Waiter
	// The probe rides the same signal; its check runs as a later event of
	// the same instant, once the whole batch (the shard's Wake
	// included) has been delivered, and before the probe is listed again.
	check := func() {
		dispatches++
		if n := e.activity.Waiting(); n > 1 {
			t.Fatalf("t=%d: %d waiters on the shard's activity signal after a dispatch, want at most 1", s.Now(), n)
		}
		for _, i := range e.activeIdx {
			if i%3 == 0 {
				e.txs[i].deadline = min(e.txs[i].deadline, s.Now())
			}
		}
		e.activity.Rearm(&probe)
	}
	probe = sim.NewWaiter(wakeFunc(func() { s.After(0, check) }))
	e.activity.Rearm(&probe)
	if !s.RunUntilDone(func() bool { return e.res.Graded == txCount }, quiesceCheckEvery, 12*sim.Hour) {
		t.Fatalf("graded %d of %d", e.res.Graded, txCount)
	}
	if dispatches < 100 || midPass == 0 {
		t.Fatalf("vacuous run: %d dispatches, %d arrivals admitted from inside Wake", dispatches, midPass)
	}
}

// wakeFunc adapts a func to a sim.Waker.
type wakeFunc func()

func (f wakeFunc) Wake() { f() }
