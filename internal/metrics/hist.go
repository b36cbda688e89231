package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Hist is a fixed-bucket histogram over int64 samples (virtual
// milliseconds, counts, fees — anything integral), safe for
// concurrent use. Integer arithmetic keeps aggregation deterministic
// regardless of the order concurrent observers interleave in, which
// is what lets the engine promise byte-identical aggregates across
// runs while still collecting from many shard goroutines at once.
type Hist struct {
	mu     sync.Mutex
	bounds []int64  // ascending inclusive upper bounds; +Inf implicit
	counts []uint64 // len(bounds)+1
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// NewHist creates a histogram with the given ascending inclusive
// upper bounds. A sample v lands in the first bucket with v <=
// bound; samples above every bound land in the implicit overflow
// bucket. NewHist panics on empty or unsorted bounds.
func NewHist(bounds ...int64) *Hist {
	if len(bounds) == 0 {
		panic("metrics: NewHist with no bounds")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: NewHist bounds not strictly ascending")
		}
	}
	return &Hist{
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

// Observe records one sample.
func (h *Hist) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.mu.Lock()
	h.counts[i]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.mu.Unlock()
}

// HistSnapshot is an immutable, JSON-friendly view of a histogram.
type HistSnapshot struct {
	// Bounds are the inclusive upper bounds; the final count row is
	// the overflow bucket.
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
	Min    int64    `json:"min"`
	Max    int64    `json:"max"`
}

// Merge folds other into h. Both histograms must share identical
// bucket bounds — they do when built from the same constructor, which
// is how the engine folds per-shard histograms in shard order. Merge
// panics on a bounds mismatch (a programming error, not data).
func (h *Hist) Merge(other *Hist) {
	if other == nil {
		return
	}
	os := other.Snapshot()
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(os.Bounds) != len(h.bounds) {
		panic("metrics: Merge with mismatched bucket bounds")
	}
	for i, b := range h.bounds {
		if os.Bounds[i] != b {
			panic("metrics: Merge with mismatched bucket bounds")
		}
	}
	if os.Count == 0 {
		return
	}
	for i, c := range os.Counts {
		h.counts[i] += c
	}
	if h.n == 0 || os.Min < h.min {
		h.min = os.Min
	}
	if h.n == 0 || os.Max > h.max {
		h.max = os.Max
	}
	h.n += os.Count
	h.sum += os.Sum
}

// Snapshot returns a consistent copy of the histogram's state.
func (h *Hist) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Count:  h.n,
		Sum:    h.sum,
		Min:    h.min,
		Max:    h.max,
	}
}

// Quantile estimates the q-quantile (0 < q <= 1) by integer
// interpolation within the bucket holding the rank-⌈q·n⌉ sample,
// clamped to the observed [Min, Max] so estimates never stray outside
// the data. Deterministic: pure integer arithmetic over the counts.
// Returns 0 on an empty histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	// rank = ceil(q * n), 1-based.
	rank := uint64(q * float64(s.Count))
	if float64(rank) < q*float64(s.Count) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c < rank {
			cum += c
			continue
		}
		// The rank-th sample lies in bucket i. Interpolate linearly
		// between the bucket's bounds by the rank's position within it.
		lo := s.Min
		if i > 0 {
			lo = s.Bounds[i-1] + 1
		}
		hi := s.Max
		if i < len(s.Bounds) && s.Bounds[i] < hi {
			hi = s.Bounds[i]
		}
		if lo < s.Min {
			lo = s.Min
		}
		if hi < lo {
			hi = lo
		}
		// position within the bucket: 0 for the first sample, c-1 for
		// the last; integer interpolation keeps this deterministic.
		pos := rank - cum - 1
		if c > 1 {
			return lo + int64(uint64(hi-lo)*pos/(c-1))
		}
		return lo + (hi-lo)/2
	}
	return s.Max
}

// String renders the histogram as an aligned bucket table.
func (s HistSnapshot) String() string {
	var b strings.Builder
	for i, c := range s.Counts {
		var label string
		if i < len(s.Bounds) {
			label = fmt.Sprintf("<= %d", s.Bounds[i])
		} else {
			label = fmt.Sprintf(" > %d", s.Bounds[len(s.Bounds)-1])
		}
		fmt.Fprintf(&b, "%-16s %d\n", label, c)
	}
	fmt.Fprintf(&b, "count=%d sum=%d min=%d max=%d\n", s.Count, s.Sum, s.Min, s.Max)
	return b.String()
}
