package sim

import "math"

// RNG is a small, fast, deterministic random source (splitmix64 core).
// It intentionally does not use math/rand's global state so that two
// simulators never share entropy.
type RNG struct {
	state uint64
}

// NewRNG returns an RNG seeded with seed. Distinct seeds yield
// independent-looking streams; the same seed always yields the same
// stream.
func NewRNG(seed uint64) *RNG {
	// Avoid the all-zero state pathologies by mixing the seed once.
	r := &RNG{state: seed + 0x9e3779b97f4a7c15}
	r.Uint64()
	return r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with n <= 0")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed duration with the given
// mean. It is used for miner inter-block times: the memoryless
// property makes each miner's next success independent of chain-tip
// changes, matching a Poisson mining process.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// ExpTime returns an exponentially distributed virtual duration (>= 1)
// with the given mean in milliseconds.
func (r *RNG) ExpTime(mean Time) Time {
	d := Time(r.Exp(float64(mean)))
	if d < 1 {
		d = 1
	}
	return d
}

// Fork derives an independent RNG stream from this one, for components
// that need their own entropy without perturbing the parent sequence
// ordering guarantees.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a55a5a5a5a)
}
