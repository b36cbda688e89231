package spv

import (
	"fmt"
	"testing"
)

// BenchmarkEvidenceVerify is the DESIGN.md ✦ ablation for in-contract
// validation: verification cost and evidence size as the header chain
// between checkpoint and tip grows (the price of an older stable-block
// anchor).
func BenchmarkEvidenceVerify(b *testing.B) {
	for _, span := range []int{6, 16, 48, 96} {
		b.Run(fmt.Sprintf("headers=%d", span), func(b *testing.B) {
			f := newBenchFixture(b, span)
			ev, err := Build(f.view, f.view.Genesis().Hash(), f.tx.ID(), 6)
			if err != nil {
				b.Fatal(err)
			}
			checkpoint := f.view.Genesis().Header
			b.ReportMetric(float64(len(ev.Encode())), "evidence-bytes")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Verify(checkpoint, 6); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvidenceBuild measures assembling evidence from a node's
// view (header collection + Merkle proof).
func BenchmarkEvidenceBuild(b *testing.B) {
	f := newBenchFixture(b, 32)
	cp := f.view.Genesis().Hash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(f.view, cp, f.tx.ID(), 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvidenceDecode measures the wire codec contracts run on
// every call argument.
func BenchmarkEvidenceDecode(b *testing.B) {
	f := newBenchFixture(b, 32)
	ev, err := Build(f.view, f.view.Genesis().Hash(), f.tx.ID(), 6)
	if err != nil {
		b.Fatal(err)
	}
	enc := ev.Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvidenceEncode measures serializing evidence into a call
// argument: one exact-size allocation.
func BenchmarkEvidenceEncode(b *testing.B) {
	f := newBenchFixture(b, 32)
	ev, err := Build(f.view, f.view.Genesis().Hash(), f.tx.ID(), 6)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(ev.EncodedLen()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(ev.Encode()) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// newBenchFixture adapts the test fixture for benchmarks.
func newBenchFixture(b *testing.B, blocksAfterTx int) *fixture {
	b.Helper()
	t := &fixtureT{b: b}
	return newFixtureAny(t, blocksAfterTx)
}

// fixtureT adapts testing.B to the minimal interface newFixture
// needs.
type fixtureT struct{ b *testing.B }

func (f *fixtureT) Helper()                        { f.b.Helper() }
func (f *fixtureT) Fatal(args ...any)              { f.b.Fatal(args...) }
func (f *fixtureT) Fatalf(format string, a ...any) { f.b.Fatalf(format, a...) }
