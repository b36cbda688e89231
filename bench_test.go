package repro

// One sub-benchmark per table and figure of the paper's evaluation
// (Section 6), plus the safety and scalability claims of Sections 1
// and 5: bench.Experiments, in paper order. Each executes the full
// experiment — real protocol runs on simulated blockchain networks —
// and fails if the experiment's sanity assertions (the paper's
// qualitative claims) do not hold. Run with:
//
//	go test -bench=. -benchmem .          # all ten
//	go test -bench=Experiments/fig10 .    # one
//
// For paper-style table output use cmd/ac3bench instead.

import (
	"testing"

	"repro/internal/bench"
)

// BenchmarkExperiments runs each experiment once per iteration, varying
// the seed so iterations are independent, and fails the sub-benchmark
// if any iteration's claims break.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range bench.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if r := e.Result(42 + uint64(i)); !r.OK {
					b.Fatalf("experiment %s failed its assertions:\n%s", r.ID, r)
				}
			}
		})
	}
}
