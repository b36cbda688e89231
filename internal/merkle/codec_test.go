package merkle

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/wire"
)

// DecodeProof reverses Encode.
func DecodeProof(b []byte) (*Proof, error) {
	p := &Proof{}
	r := wire.NewReader(b)
	p.DecodeFrom(&r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("merkle: proof: %w", err)
	}
	return p, nil
}

func TestProofCodecRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 5, 33} {
		leaves := mkLeaves(n)
		root := Root(leaves)
		for idx := range leaves {
			p, err := Prove(leaves, idx)
			if err != nil {
				t.Fatal(err)
			}
			enc := p.Encode()
			if len(enc) != p.EncodedLen() {
				t.Fatalf("EncodedLen = %d, Encode wrote %d", p.EncodedLen(), len(enc))
			}
			dec, err := DecodeProof(enc)
			if err != nil {
				t.Fatalf("n=%d idx=%d: %v", n, idx, err)
			}
			if dec.Index != idx || !dec.Verify(root) || !bytes.Equal(dec.Encode(), enc) {
				t.Fatalf("n=%d idx=%d: round trip changed the proof", n, idx)
			}
		}
	}
	p, err := Prove(mkLeaves(33), 7)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = p.Encode() }); n != 1 {
		t.Fatalf("Encode allocates %.0f times, want exactly 1", n)
	}
}

func TestDecodeProofRejects(t *testing.T) {
	p, err := Prove(mkLeaves(4), 2)
	if err != nil {
		t.Fatal(err)
	}
	enc := p.Encode()
	cases := map[string][]byte{
		"empty":          nil,
		"truncated":      enc[:len(enc)-1],
		"trailing":       append(bytes.Clone(enc), 0),
		"side byte 2":    append(bytes.Clone(enc[:len(enc)-1]), 2),
		"side byte 0xff": append(bytes.Clone(enc[:len(enc)-1]), 0xff),
	}
	huge := bytes.Clone(enc)
	huge[4+32] = 0x7f // sibling count far past what the input holds
	cases["implausible sibling count"] = huge
	for name, b := range cases {
		if _, err := DecodeProof(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzDecodeProof: DecodeProof never panics, and whatever it accepts
// it re-encodes to the very bytes it was given.
func FuzzDecodeProof(f *testing.F) {
	for _, n := range []int{1, 2, 7} {
		p, err := Prove(mkLeaves(n), n-1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p.Encode())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodeProof(b)
		if err != nil {
			return
		}
		if enc := p.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("decode then encode changed the bytes:\n in  %x\n out %x", b, enc)
		}
	})
}
