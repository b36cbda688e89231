package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", s.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated at %d: got %v", i, got[:i+1])
		}
	}
}

func TestAfterChainsAdvanceClock(t *testing.T) {
	s := New(1)
	var times []Time
	s.After(10, func() {
		times = append(times, s.Now())
		s.After(5, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if times[0] != 10 || times[1] != 15 {
		t.Fatalf("times = %v, want [10 15]", times)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on scheduling in the past")
		}
	}()
	s := New(1)
	s.After(10, func() { s.At(5, func() {}) })
	s.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative After")
		}
	}()
	New(1).After(-1, func() {})
}

func TestNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on nil fn")
		}
	}()
	New(1).At(0, nil)
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var ran []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		s.At(at, func() { ran = append(ran, at) })
	}
	s.RunUntil(12)
	if len(ran) != 2 || s.Now() != 12 {
		t.Fatalf("ran=%v now=%d, want 2 events and now=12", ran, s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if len(ran) != 4 || s.Now() != 20 {
		t.Fatalf("after Run: ran=%v now=%d", ran, s.Now())
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	s := New(1)
	s.RunUntil(100)
	if s.Now() != 100 {
		t.Fatalf("Now() = %d, want 100", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	n := 0
	s.At(1, func() { n++; s.Stop() })
	s.At(2, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("executed %d events before stop, want 1", n)
	}
	s.Run() // resumes
	if n != 2 {
		t.Fatalf("executed %d events after resume, want 2", n)
	}
}

func TestMaxEventsGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected MaxEvents panic")
		}
	}()
	s := New(1)
	s.MaxEvents = 10
	var loop func()
	loop = func() { s.After(1, loop) }
	s.After(1, loop)
	s.Run()
}

// TestPollStopsWhenDone: RunUntilDone polls done once every checkEvery,
// the first time one interval in, and returns in the instant it holds.
func TestPollStopsWhenDone(t *testing.T) {
	s := New(1)
	n := 0
	s.After(1000, func() {}) // keeps the queue from draining first
	if !s.RunUntilDone(func() bool { n++; return n == 4 }, 10, 1000) {
		t.Fatal("RunUntilDone reported done unheld")
	}
	if n != 4 {
		t.Fatalf("polled %d times, want 4 (one up front, three on the clock)", n)
	}
	if s.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", s.Now())
	}
}

// TestPollCancel: once RunUntilDone has returned at its deadline, its
// poll is canceled — running on never calls done again.
func TestPollCancel(t *testing.T) {
	s := New(1)
	n := 0
	if s.RunUntilDone(func() bool { n++; return false }, 10, 35) {
		t.Fatal("RunUntilDone reported done unheld")
	}
	if n != 5 {
		t.Fatalf("polled %d times, want 5 (up front, at 10, 20, 30, at the deadline)", n)
	}
	s.RunUntil(200)
	if n != 5 {
		t.Fatalf("polled %d times after RunUntilDone returned, want 5", n)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func(seed uint64) []uint64 {
		s := New(seed)
		var out []uint64
		var tick func()
		tick = func() {
			out = append(out, s.RNG().Uint64())
			if len(out) < 100 {
				s.After(s.RNG().Int63n(50)+1, tick)
			}
		}
		s.After(1, tick)
		s.Run()
		return out
	}
	a, b := trace(42), trace(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at step %d", i)
		}
	}
	c := trace(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(7)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(7)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(600)
	}
	mean := sum / n
	if math.Abs(mean-600) > 15 {
		t.Fatalf("Exp mean = %v, want ~600", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(9)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Perm returns a random permutation of [0, n). Only tests shuffle.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	f := func(n uint8) bool {
		m := int(n % 64)
		p := r.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(3)
	f := r.Fork()
	a := r.Uint64()
	b := f.Uint64()
	if a == b {
		t.Fatal("forked stream mirrors parent")
	}
}

func TestExpTimeAtLeastOne(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if d := r.ExpTime(2); d < 1 {
			t.Fatalf("ExpTime returned %d < 1", d)
		}
	}
}

func TestResetMatchesFreshSim(t *testing.T) {
	// A Reset sim must replay exactly like New(seed): same event
	// interleaving, same RNG stream.
	trace := func(s *Sim) []uint64 {
		var out []uint64
		for i := 0; i < 5; i++ {
			i := i
			s.After(Time(i+1)*Second, func() {
				out = append(out, uint64(s.Now())^s.RNG().Uint64())
			})
		}
		s.Run()
		return out
	}
	fresh := trace(New(99))
	reused := New(7)
	reused.After(Second, func() {}) // dirty it
	reused.MaxEvents = 3
	reused.Run()
	reused.Reset(99)
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Executed != 0 || reused.MaxEvents != 0 {
		t.Fatalf("Reset left residue: now=%d pending=%d executed=%d", reused.Now(), reused.Pending(), reused.Executed)
	}
	got := trace(reused)
	if len(got) != len(fresh) {
		t.Fatalf("trace length %d != %d", len(got), len(fresh))
	}
	for i := range got {
		if got[i] != fresh[i] {
			t.Fatalf("trace diverges at %d: %d != %d", i, got[i], fresh[i])
		}
	}
}

func TestRunUntilDone(t *testing.T) {
	s := New(1)
	fired := 0
	// A self-rescheduling actor that never drains the queue — the
	// situation RunUntilDone exists for.
	var tick func()
	tick = func() {
		fired++
		s.After(Second, tick)
	}
	s.After(Second, tick)
	if !s.RunUntilDone(func() bool { return fired >= 10 }, Second/2, Hour) {
		t.Fatal("condition never reported done")
	}
	if fired < 10 || fired > 12 {
		t.Fatalf("fired = %d, want ~10 (stop promptly after quiescence)", fired)
	}
	if s.Now() >= Hour {
		t.Fatalf("ran to deadline (now=%d) despite done condition", s.Now())
	}
	// Deadline path: condition that never holds.
	if s.RunUntilDone(func() bool { return false }, Second, s.Now()+10*Second) {
		t.Fatal("reported done for an impossible condition")
	}
}

func TestRunUntilDoneAlreadyDone(t *testing.T) {
	s := New(1)
	ran := false
	s.After(Second, func() { ran = true })
	if !s.RunUntilDone(func() bool { return true }, Second, Hour) {
		t.Fatal("not done")
	}
	if ran {
		t.Fatal("dispatched events although already done")
	}
}

// TestHeapDispatchesInAtSeqOrder schedules events at random times — few
// distinct instants, so ties are common — from the top level and from
// inside callbacks (at Now() and later), drains them through random
// RunUntil deadlines, and compares the dispatch order with a stable sort
// of the schedule by time: FIFO among ties is (at, seq) order.
func TestHeapDispatchesInAtSeqOrder(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		s := New(seed)
		r := NewRNG(seed)
		type rec struct {
			at Time
			id int
		}
		var scheduled, dispatched []rec
		var schedule func(at Time)
		schedule = func(at Time) {
			ev := rec{at, len(scheduled)}
			scheduled = append(scheduled, ev)
			s.At(at, func() {
				if s.Now() != ev.at {
					t.Fatalf("seed %d: event %d for t=%d ran at t=%d", seed, ev.id, ev.at, s.Now())
				}
				dispatched = append(dispatched, ev)
				for k := r.Intn(3); k > 0 && len(scheduled) < 2000; k-- {
					schedule(s.Now() + Time(r.Intn(3))*Time(r.Intn(4))) // Now() itself half the time
				}
			})
		}
		for _, i := range r.Perm(100) {
			schedule(Time(i % 13))
		}
		for s.Pending() > 0 {
			s.RunUntil(s.Now() + Time(r.Intn(5)))
		}
		want := slices.Clone(scheduled)
		slices.SortStableFunc(want, func(a, b rec) int { return int(a.at - b.at) })
		if len(dispatched) != len(want) {
			t.Fatalf("seed %d: %d of %d events dispatched", seed, len(dispatched), len(want))
		}
		for k := range want {
			if dispatched[k] != want[k] {
				t.Fatalf("seed %d: dispatch %d is event %d at t=%d, want event %d at t=%d", seed, k, dispatched[k].id, dispatched[k].at, want[k].id, want[k].at)
			}
		}
	}
}

// TestAtAndDispatchAllocateNothing pins the value heap's cost: once the
// heap has grown, scheduling a preallocated callback and dispatching it
// allocates nothing, and neither does notifying a signal whose waiter
// re-arms itself.
func TestAtAndDispatchAllocateNothing(t *testing.T) {
	s := New(1)
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 64; i++ {
		s.After(Time(i), fn)
	}
	s.Run()
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			s.At(s.Now()+Time(i%7), fn)
		}
		s.Run()
	}); n != 0 {
		t.Fatalf("At + dispatch: %v allocations per 64 events, want 0", n)
	}

	g := s.NewSignal()
	var w *Waiter
	w = listen(g, func() { fired++; g.Rearm(w) })
	g.Notify()
	s.Run() // both dispatch buffers now have room for w
	before := fired
	if n := testing.AllocsPerRun(100, func() { g.Notify(); s.Run() }); n != 0 {
		t.Fatalf("Notify + dispatch of a re-armed waiter: %v allocations, want 0", n)
	}
	if fired-before != 101 { // AllocsPerRun runs the function once more to warm up
		t.Fatalf("re-armed waiter fired %d times in 101 notifies", fired-before)
	}
}

// BenchmarkDispatch times one step of a steady queue: a callback that
// reschedules itself at a random later time, with n events pending.
func BenchmarkDispatch(b *testing.B) {
	for _, n := range []int{64, 1500} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s, r := New(1), NewRNG(2)
			var fn func()
			fn = func() { s.After(1+r.Int63n(100000), fn) }
			for i := 0; i < n; i++ {
				s.After(r.Int63n(100000), fn)
			}
			b.ReportAllocs()
			for b.Loop() {
				s.step()
			}
		})
	}
}
