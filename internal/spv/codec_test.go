package spv

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/merkle"
)

// evidenceVector is one record of testdata/evidence_golden.json,
// captured from the commit before the wire codec (ADR-012): evidence
// bytes are consensus data (contracts verify them, the benchmark
// rebuilds them byte for byte), so Encode must never change. One
// vector changed once, when evidence began to carry its transaction
// in the id form (ADR-026): the last, whose transaction carries 200
// bytes of arguments, now carries their digest. Every vector of two or
// more headers changed when headers after the first began to travel as
// links (ADR-027): their headers were re-linked, each onto the hash,
// height, chain id and difficulty of the one before it, keeping its
// own time, tx root and nonce. The vectors of at most one header kept
// their bytes.
type evidenceVector struct {
	ChainID       string   `json:"chain_id"`
	Headers       []string `json:"headers"`
	TxBlockOffset int      `json:"tx_block_offset"`
	TxBytes       string   `json:"tx_bytes"`
	Proof         struct {
		Index    int      `json:"index"`
		Leaf     string   `json:"leaf"`
		Siblings []string `json:"siblings"`
		Lefts    []bool   `json:"lefts"`
	} `json:"proof"`
	Encode string `json:"encode"`
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 {
		return nil
	}
	return b
}

func (v evidenceVector) evidence(t testing.TB) *Evidence {
	t.Helper()
	e := &Evidence{ChainID: chain.ID(v.ChainID), TxBlockOffset: v.TxBlockOffset, TxBytes: unhex(t, v.TxBytes)}
	for _, hx := range v.Headers {
		h, err := chain.DecodeHeader(unhex(t, hx))
		if err != nil {
			t.Fatal(err)
		}
		e.Headers = append(e.Headers, h)
	}
	e.Proof = &merkle.Proof{Index: v.Proof.Index, Leaf: crypto.Hash(unhex(t, v.Proof.Leaf)), Lefts: v.Proof.Lefts}
	for _, s := range v.Proof.Siblings {
		e.Proof.Siblings = append(e.Proof.Siblings, crypto.Hash(unhex(t, s)))
	}
	return e
}

func goldenEvidence(t testing.TB) []evidenceVector {
	t.Helper()
	raw, err := os.ReadFile("testdata/evidence_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var vecs []evidenceVector
	if err := json.Unmarshal(raw, &vecs); err != nil {
		t.Fatal(err)
	}
	if len(vecs) < 8 {
		t.Fatalf("only %d golden vectors", len(vecs))
	}
	return vecs
}

func TestEvidenceGoldenVectors(t *testing.T) {
	for i, v := range goldenEvidence(t) {
		e := v.evidence(t)
		enc := e.Encode()
		if got := hex.EncodeToString(enc); got != v.Encode {
			t.Fatalf("vector %d: Encode = %s, want %s", i, got, v.Encode)
		}
		if len(enc) != e.EncodedLen() {
			t.Fatalf("vector %d: EncodedLen = %d, Encode wrote %d", i, e.EncodedLen(), len(enc))
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("vector %d: decode: %v", i, err)
		}
		if len(dec.Headers) != len(e.Headers) || dec.TxBlockOffset != e.TxBlockOffset || dec.ChainID != e.ChainID {
			t.Fatalf("vector %d: decoded %d headers at offset %d on %q", i, len(dec.Headers), dec.TxBlockOffset, dec.ChainID)
		}
		for j, h := range dec.Headers {
			if *h != *e.Headers[j] {
				t.Fatalf("vector %d: header %d decoded as %+v", i, j, h)
			}
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("vector %d: decode round trip changed the bytes", i)
		}
	}
}

// FuzzDecode: Decode never panics, and whatever it accepts it
// re-encodes to the very bytes it was given.
func FuzzDecode(f *testing.F) {
	for _, v := range goldenEvidence(f) {
		f.Add(unhex(f, v.Encode))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := Decode(b)
		if err != nil {
			return
		}
		if enc := e.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("decode then encode changed the bytes:\n in  %x\n out %x", b, enc)
		}
	})
}

// realEvidence builds evidence with the given number of headers.
func realEvidence(t fixtureTB, headers int) *Evidence {
	t.Helper()
	f := newFixtureAny(t, headers-1)
	ev, err := Build(f.view, genesis(f.view).Hash(), f.tx.ID(), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Headers) != headers {
		t.Fatalf("built %d headers, want %d", len(ev.Headers), headers)
	}
	return ev
}

// TestDecodeStrictness: counts are bounded by what the remaining bytes
// can hold (they used to be compared with the whole buffer's length),
// and a sibling side byte other than 0 or 1 is rejected (it used to
// read as "right").
func TestDecodeStrictness(t *testing.T) {
	ev := realEvidence(t, 8)
	ev.Proof = &merkle.Proof{Index: 1, Leaf: ev.Proof.Leaf, Siblings: []crypto.Hash{crypto.Sum([]byte("s"))}, Lefts: []bool{true}}
	enc := ev.Encode()

	side := bytes.Clone(enc)
	side[len(side)-1] = 2
	if _, err := Decode(side); err == nil {
		t.Fatal("sibling side byte 2 accepted")
	}

	headerCountAt := 4 + len(ev.ChainID)
	if got := binary.BigEndian.Uint32(enc[headerCountAt:]); got != 8 {
		t.Fatalf("header count at offset %d is %d", headerCountAt, got)
	}
	rest := len(enc) - headerCountAt - 4
	for _, n := range []int{rest/linkLen + 1, rest, 1 << 31} {
		bad := bytes.Clone(enc)
		binary.BigEndian.PutUint32(bad[headerCountAt:], uint32(n))
		if _, err := Decode(bad); err == nil {
			t.Fatalf("header count %d accepted with %d bytes behind it", n, rest)
		}
	}

	siblingCountAt := len(enc) - 33 - 4
	bad := bytes.Clone(enc)
	binary.BigEndian.PutUint32(bad[siblingCountAt:], 2) // 33 bytes behind it hold one
	if _, err := Decode(bad); err == nil {
		t.Fatal("sibling count beyond the remaining bytes accepted")
	}

	if _, err := Decode(append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestEvidenceCodecAllocations(t *testing.T) {
	f := newFixture(t, 39)
	cp := genesis(f.view)
	ev, err := Build(f.view, cp.Hash(), f.tx.ID(), 6)
	if err != nil || len(ev.Headers) != 40 {
		t.Fatalf("built %d headers: %v", len(ev.Headers), err)
	}
	enc := ev.Encode()
	if n := testing.AllocsPerRun(100, func() { _ = ev.Encode() }); n != 1 {
		t.Errorf("Encode allocates %.0f times, want exactly 1", n)
	}
	// The evidence, its header list, the proof and its two slices: the
	// transaction is encoded only into the evidence's own encoding.
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Build(f.view, cp.Hash(), f.tx.ID(), 6); err != nil {
			t.Fatal(err)
		}
	}); n != 5 {
		t.Errorf("Build allocates %.0f times, want 5 (6 with a copy of the transaction's encoding)", n)
	}
	// Verifying from the bytes allocates the proven transaction and no
	// header: every header is decoded onto the stack.
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	txAllocs := testing.AllocsPerRun(100, func() { _, _ = chain.DecodeTx(dec.TxBytes) })
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Verify(enc, ev.ChainID, cp.Header, 6); err != nil {
			t.Fatal(err)
		}
	}); n != txAllocs {
		t.Errorf("Verify of a 40-header blob allocates %.0f times, want %.0f (the transaction's)", n, txAllocs)
	}
	// The evidence, one header array, its pointer slice, the proof and
	// its two slices.
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("Decode of a 40-header evidence allocates %.0f times, want at most 6", n)
	}
}
