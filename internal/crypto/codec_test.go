package crypto

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

// TestDecodeSignatureNeverPanics: a length prefix near 2^32 used to
// wrap the hand-rolled bounds check and slice out of range.
func TestDecodeSignatureNeverPanics(t *testing.T) {
	for _, b := range [][]byte{
		{0xff, 0xff, 0xff, 0xfe, 1, 2, 3, 4},
		{0xff, 0xff, 0xff, 0xfc, 0, 0, 0, 0},
		{0, 0, 0, 1, 9, 0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 0, 0, 0, 0, 0, 1}, // trailing byte
	} {
		if _, err := DecodeSignature(b); err == nil {
			t.Errorf("%x: accepted", b)
		}
	}
}

func decodeMultiSig(b []byte) (*MultiSig, error) {
	m := &MultiSig{}
	r := wire.NewReader(b)
	m.DecodeFrom(&r)
	return m, r.Finish()
}

func TestMultiSigCodecRoundTrip(t *testing.T) {
	a, b := testKey(t, 41), testKey(t, 42)
	ms := NewMultiSig(Sum([]byte("(D, t)")))
	for _, k := range []*KeyPair{nil, a, b} {
		if k != nil {
			ms.Add(k)
		}
		enc := ms.AppendTo(nil)
		if len(enc) != ms.EncodedLen() {
			t.Fatalf("EncodedLen = %d, AppendTo wrote %d", ms.EncodedLen(), len(enc))
		}
		dec, err := decodeMultiSig(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.ID() != ms.ID() || len(dec.Sigs) != len(ms.Sigs) || !bytes.Equal(dec.AppendTo(nil), enc) {
			t.Fatalf("round trip with %d signatures changed the multisignature", len(ms.Sigs))
		}
		if !dec.Complete(ms.Signers()) {
			t.Fatal("decoded multisignature no longer verifies")
		}
	}
	enc := ms.AppendTo(nil)
	enc[HashSize] = 0x7f // signature count far past what the input holds
	if _, err := decodeMultiSig(enc); err == nil {
		t.Fatal("implausible signature count accepted")
	}
}

// FuzzDecodeSignature: never panics; whatever decodes re-encodes to
// the same bytes.
func FuzzDecodeSignature(f *testing.F) {
	f.Add(EncodeSignature(Signature{Pub: make([]byte, 32), Sig: make([]byte, 64)}))
	f.Add([]byte{0xff, 0xff, 0xff, 0xfe, 1, 2, 3, 4})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		sig, err := DecodeSignature(b)
		if err != nil {
			return
		}
		if enc := EncodeSignature(sig); !bytes.Equal(enc, b) {
			t.Fatalf("decode then encode changed the bytes:\n in  %x\n out %x", b, enc)
		}
	})
}
