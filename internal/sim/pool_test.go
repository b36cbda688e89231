package sim

import (
	"slices"
	"testing"
)

// TestPoolDispatchesAsClosuresWould schedules the same calls through a
// pool and as closures, interleaved with other events, and requires one
// dispatch order: each pooled call rides an After of its own.
func TestPoolDispatchesAsClosuresWould(t *testing.T) {
	run := func(pooled bool) []int {
		s, r := New(1), NewRNG(7)
		var got []int
		p := NewPool(s, func(v int) { got = append(got, v) })
		for i := 0; i < 200; i++ {
			d := r.Int63n(20)
			if i%3 == 0 {
				s.After(d, func() { got = append(got, -i) })
				continue
			}
			if pooled {
				p.After(d, i)
			} else {
				s.After(d, func() { got = append(got, i) })
			}
		}
		s.Run()
		return got
	}
	if a, b := run(true), run(false); !slices.Equal(a, b) {
		t.Fatalf("pooled order %v\nclosure order %v", a, b)
	}
}

// TestPoolRecordIsBackBeforeTheCall pins the recycling order: a record
// returns to the free list with its value copied out before the callback
// runs, so a callback that schedules inside its own call reuses that very
// record, finds its own value intact, and leaves nothing alive behind it.
func TestPoolRecordIsBackBeforeTheCall(t *testing.T) {
	s := New(1)
	type msg struct{ hop *int }
	var p *Pool[msg]
	var hops []int
	p = NewPool(s, func(m msg) {
		n := *m.hop
		if n < 5 {
			next := n + 1
			p.After(1, msg{&next})
		}
		if *m.hop != n {
			t.Fatalf("hop %d: the callback's value changed under it to %d", n, *m.hop)
		}
		hops = append(hops, n)
	})
	first := 0
	p.After(1, msg{&first})
	s.Run()
	if !slices.Equal(hops, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("hops %v", hops)
	}
	if len(p.free) != 1 {
		t.Fatalf("%d records made for a chain of calls one at a time, want 1", len(p.free))
	}
	if p.free[0].v != (msg{}) {
		t.Fatal("a fired record keeps its value alive")
	}
}

// TestPoolAllocatesNothing: once the free list holds a record per call
// in flight, scheduling and dispatching a pooled call allocates nothing.
func TestPoolAllocatesNothing(t *testing.T) {
	s := New(1)
	sum := 0
	p := NewPool(s, func(v int) { sum += v })
	for i := 0; i < 8; i++ {
		p.After(Time(i), i)
	}
	s.Run()
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			p.After(Time(i%3), i)
		}
		s.Run()
	}); n != 0 {
		t.Fatalf("After + dispatch of 8 pooled calls: %v allocations, want 0", n)
	}
	if sum != 102*28 {
		t.Fatalf("sum %d, want every call made once", sum)
	}
}
