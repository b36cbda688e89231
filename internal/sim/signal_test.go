package sim

import (
	"slices"
	"testing"
)

// wakeFunc adapts a func to a Waker.
type wakeFunc func()

func (f wakeFunc) Wake() { f() }

// listen lists a waiter of its own that runs fn at g's next notification.
func listen(g *Signal, fn func()) *Waiter {
	w := NewWaiter(wakeFunc(fn))
	g.Rearm(&w)
	return &w
}

func TestSignalDeliversFIFO(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		listen(g, func() { order = append(order, i) })
	}
	s.After(10, g.Notify)
	s.Run()
	if len(order) != 5 {
		t.Fatalf("delivered %d waiters, want 5", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("delivery order %v is not FIFO", order)
		}
	}
}

func TestSignalNotifyWithoutWaitersIsFree(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	s.After(1, func() { g.Notify() })
	s.Run()
	if s.Executed != 1 {
		t.Fatalf("executed %d events, want 1 (an idle notify must not schedule)", s.Executed)
	}
}

func TestSignalNotifyCoalesces(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	fired := 0
	listen(g, func() { fired++ })
	s.After(1, func() {
		g.Notify()
		g.Notify()
		g.Notify()
	})
	s.Run()
	if fired != 1 {
		t.Fatalf("waiter fired %d times, want 1", fired)
	}
	// Trigger + one coalesced dispatch.
	if s.Executed != 2 {
		t.Fatalf("executed %d events, want 2 (notifies must coalesce)", s.Executed)
	}
}

func TestSignalWaiterIsOneShot(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	fired := 0
	listen(g, func() { fired++ })
	s.After(1, g.Notify)
	s.After(2, g.Notify)
	s.Run()
	if fired != 1 {
		t.Fatalf("one-shot waiter fired %d times", fired)
	}
}

func TestSignalRearmsAcrossNotifies(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	fired := 0
	var wait func()
	wait = func() {
		listen(g, func() {
			fired++
			wait() // persistent subscription pattern: re-arm on fire
		})
	}
	wait()
	s.After(1, g.Notify)
	s.After(2, g.Notify)
	s.After(3, g.Notify)
	s.Run()
	if fired != 3 {
		t.Fatalf("re-arming waiter fired %d times, want 3", fired)
	}
}

// TestSignalRearmReusesTheWaiter: a fired waiter re-registered with
// Rearm behaves like a fresh Wait — runs once per notification, joins
// at the back of the FIFO, can be canceled — without a new Waiter, and
// the two dispatch buffers keep re-registration during a dispatch apart
// from the batch being delivered.
func TestSignalRearmReusesTheWaiter(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	var order []string
	var a, b *Waiter
	a = listen(g, func() { order = append(order, "a"); g.Rearm(a) })
	b = listen(g, func() {
		order = append(order, "b")
		if len(order) < 6 {
			g.Rearm(b)
		}
	})
	for at := Time(1); at <= 3; at++ {
		s.After(at, g.Notify)
	}
	s.After(4, func() { a.Cancel(); g.Notify() })
	s.Run()
	if got, want := len(order), 6; got != want || order[0] != "a" || order[1] != "b" || order[4] != "a" || order[5] != "b" {
		t.Fatalf("deliveries %v, want a b a b a b", order)
	}
	if g.Waiting() != 0 {
		t.Fatalf("%d waiters left listed after a canceled dispatch", g.Waiting())
	}
	late := listen(g, func() { order = append(order, "late") })
	if late == a || late == b {
		t.Fatal("Wait handed out a waiter still owned by a subscriber")
	}
}

func TestSignalCancelIsIdempotent(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	fired := false
	w := listen(g, func() { fired = true })
	w.Cancel()
	w.Cancel() // re-cancel must be harmless
	s.After(1, g.Notify)
	s.Run()
	if fired {
		t.Fatal("canceled waiter fired")
	}
	w.Cancel() // cancel after dispatch must be harmless too
}

func TestSignalCancelDuringDispatch(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	var second *Waiter
	fired := false
	listen(g, func() { second.Cancel() })
	second = listen(g, func() { fired = true })
	s.After(1, g.Notify)
	s.Run()
	if fired {
		t.Fatal("waiter canceled earlier in the same batch still fired")
	}
}

// TestRearmOfAListedWaiterRunsOnceAtTheBack: a waiter re-armed while an
// earlier listing of it is still waiting — canceled or not — runs once
// per dispatch, where a fresh Wait would: at the back.
func TestRearmOfAListedWaiterRunsOnceAtTheBack(t *testing.T) {
	s := New(1)
	g := s.NewSignal()
	var order []string
	a := listen(g, func() { order = append(order, "a") })
	listen(g, func() { order = append(order, "b") })
	c := listen(g, func() { order = append(order, "c") })
	a.Cancel()
	g.Rearm(a) // canceled, still listed
	g.Rearm(c) // live, still listed
	g.Notify()
	s.Run()
	if want := []string{"b", "a", "c"}; !slices.Equal(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	g.Notify()
	s.Run()
	if len(order) != 3 {
		t.Fatalf("a stale listing survived the dispatch: %v", order)
	}
}
