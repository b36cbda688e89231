package crypto

import (
	"testing"

	"repro/internal/sim"
)

// Signature and multisignature costs dominate transaction validation;
// these benchmarks size them.

func BenchmarkSign(b *testing.B) {
	k := MustGenerateKey(NewRandReader(sim.NewRNG(1).Uint64))
	msg := []byte("an AC2T graph digest")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = k.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	k := MustGenerateKey(NewRandReader(sim.NewRNG(1).Uint64))
	msg := []byte("an AC2T graph digest")
	sig := k.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sig.Verify(msg) {
			b.Fatal("valid signature rejected")
		}
	}
}

func BenchmarkMultiSigComplete(b *testing.B) {
	rng := sim.NewRNG(2)
	digest := Sum([]byte("(D, t)"))
	ms := NewMultiSig(digest)
	var required []Address
	for i := 0; i < 8; i++ {
		k := MustGenerateKey(NewRandReader(rng.Uint64))
		ms.Add(k)
		required = append(required, k.Addr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ms.Complete(required) {
			b.Fatal("complete multisig rejected")
		}
	}
}

// BenchmarkMultiSigCompleteMissingSigner measures the structural
// rejection: a required signer is absent, so no signature is verified.
func BenchmarkMultiSigCompleteMissingSigner(b *testing.B) {
	rng := sim.NewRNG(2)
	ms := NewMultiSig(Sum([]byte("(D, t)")))
	var required []Address
	for i := 0; i < 8; i++ {
		k := MustGenerateKey(NewRandReader(rng.Uint64))
		if i < 7 {
			ms.Add(k)
		}
		required = append(required, k.Addr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ms.Complete(required) {
			b.Fatal("incomplete multisig accepted")
		}
	}
}
