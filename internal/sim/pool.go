package sim

// Pool schedules calls of one callback with a value each, allocating
// nothing per call once warm: a free list of records whose fire funcs are
// made once. A record is back on the list, its value copied out, before
// the callback runs, so the callback may schedule again on it and a fired
// record pins nothing. Each call rides its own After, at a closure's (at, seq).
type Pool[T any] struct {
	s    *Sim
	call func(T)
	free []*record[T]
}

type record[T any] struct {
	v    T
	fire func() // p.run(r), made once
}

// NewPool returns a pool that calls call with each scheduled value.
func NewPool[T any](s *Sim, call func(T)) *Pool[T] { return &Pool[T]{s: s, call: call} }

// After schedules call(v) d milliseconds from now, as Sim.After would.
func (p *Pool[T]) After(d Time, v T) {
	if len(p.free) == 0 {
		r := &record[T]{}
		r.fire = func() { p.run(r) }
		p.free = append(p.free, r)
	}
	r := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	r.v = v
	p.s.After(d, r.fire)
}

func (p *Pool[T]) run(r *record[T]) {
	v := r.v
	r.v = *new(T)
	p.free = append(p.free, r)
	p.call(v)
}
