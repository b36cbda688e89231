package chain

import (
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
)

// headerVector is one record of testdata/header_golden.json, captured
// from the commit before Header got its append-style encoder: the wire
// bytes, the digest, and the nonce Seal(start) lands on must never
// change, because block hashes, evidence bytes and every seed-42
// aggregate derive from them.
type headerVector struct {
	ChainID     string `json:"chain_id"`
	Parent      string `json:"parent"`
	Height      uint64 `json:"height"`
	Time        uint64 `json:"time"`
	TxRoot      string `json:"tx_root"`
	Bits        uint8  `json:"bits"`
	Nonce       uint64 `json:"nonce"`
	Encode      string `json:"encode"`
	Hash        string `json:"hash"`
	SealStart   uint64 `json:"seal_start"`
	SealedNonce uint64 `json:"sealed_nonce"`
	SealedHash  string `json:"sealed_hash"`
}

func (v headerVector) header(t *testing.T) Header {
	t.Helper()
	return Header{
		ChainID: ID(v.ChainID), Parent: crypto.Hash(unhex(t, v.Parent)), Height: v.Height, Time: sim.Time(v.Time),
		TxRoot: crypto.Hash(unhex(t, v.TxRoot)), Bits: v.Bits, Nonce: v.Nonce,
	}
}

func TestHeaderGoldenVectors(t *testing.T) {
	raw, err := os.ReadFile("testdata/header_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var vecs []headerVector
	if err := json.Unmarshal(raw, &vecs); err != nil {
		t.Fatal(err)
	}
	if len(vecs) < 64 {
		t.Fatalf("only %d golden vectors", len(vecs))
	}
	wrapped := 0
	var sealer Sealer // one for all vectors, as a miner keeps one
	for i, v := range vecs {
		h := v.header(t)
		if got := hex.EncodeToString(h.Encode()); got != v.Encode {
			t.Fatalf("vector %d: Encode = %s, want %s", i, got, v.Encode)
		}
		hash := h.Hash()
		if got := hex.EncodeToString(hash[:]); got != v.Hash {
			t.Fatalf("vector %d: Hash = %s, want %s", i, got, v.Hash)
		}
		dec, err := DecodeHeader(h.Encode())
		if err != nil || *dec != h {
			t.Fatalf("vector %d: decode round trip: %+v, %v", i, dec, err)
		}
		mid := h
		sealer.Seal(&mid, v.SealStart)
		h.Seal(v.SealStart)
		if h.Nonce != v.SealedNonce || mid.Nonce != v.SealedNonce {
			t.Fatalf("vector %d: Seal(%d) landed on nonce %d, a Sealer on %d, want %d", i, v.SealStart, h.Nonce, mid.Nonce, v.SealedNonce)
		}
		hash = h.Hash()
		if got := hex.EncodeToString(hash[:]); got != v.SealedHash {
			t.Fatalf("vector %d: sealed hash = %s, want %s", i, got, v.SealedHash)
		}
		if !h.CheckPoW() {
			t.Fatalf("vector %d: sealed header fails CheckPoW", i)
		}
		if v.SealedNonce < v.SealStart {
			wrapped++
		}
	}
	if wrapped == 0 {
		t.Fatal("no vector grinds past the uint64 wrap")
	}
}

// TestHeaderHashTracksEveryField guards against a digest cached on the
// header: its fields are public and mutable and it is copied by value
// (NewBlock; the benchmark's layer replay copies one and calls
// Seal(0)), so Hash must reflect the fields as they are now.
func TestHeaderHashTracksEveryField(t *testing.T) {
	base := Header{ChainID: "c", Parent: crypto.Sum([]byte("p")), Height: 7, Time: 70, TxRoot: crypto.Sum([]byte("r")), Bits: 6, Nonce: 9}
	mutations := map[string]func(*Header){
		"ChainID": func(h *Header) { h.ChainID += "x" },
		"Parent":  func(h *Header) { h.Parent[31] ^= 1 },
		"Height":  func(h *Header) { h.Height++ },
		"Time":    func(h *Header) { h.Time++ },
		"TxRoot":  func(h *Header) { h.TxRoot[0] ^= 1 },
		"Bits":    func(h *Header) { h.Bits++ },
		"Nonce":   func(h *Header) { h.Nonce++ },
	}
	for name, mutate := range mutations {
		h := base
		before := h.Hash()
		mutate(&h)
		if h.Hash() == before {
			t.Errorf("Hash unchanged after mutating %s", name)
		}
		if got := crypto.Sum(h.Encode()); h.Hash() != got {
			t.Errorf("after mutating %s: Hash %s != Sum(Encode) %s", name, h.Hash(), got)
		}
	}

	sealed := base
	sealed.Seal(1 << 40)
	want := sealed.Hash()
	cp := sealed // by-value copy, then a different grind start
	cp.Seal(0)
	if !cp.CheckPoW() || cp.Hash() != crypto.Sum(cp.Encode()) {
		t.Fatal("re-sealed copy is inconsistent")
	}
	if cp.Nonce == sealed.Nonce {
		t.Fatal("copy did not re-grind from its own start")
	}
	if sealed.Hash() != want {
		t.Fatal("sealing a copy changed the original's hash")
	}
}

func TestHeaderHashingDoesNotAllocate(t *testing.T) {
	h := Header{ChainID: "witness-7", Parent: crypto.Sum([]byte("p")), Height: 3, Time: 30, TxRoot: crypto.Sum([]byte("r")), Bits: 6}
	h.Seal(0)
	var sink crypto.Hash
	var ok bool
	var sealer Sealer
	sealer.Seal(&Header{ChainID: "x"}, 0) // its one hasher, allocated on first use
	for name, fn := range map[string]func(){
		"Hash":        func() { sink = h.Hash() },
		"CheckPoW":    func() { ok = h.CheckPoW() },
		"Seal":        func() { g := h; g.Seal(12345); sink = g.Hash() },
		"Sealer.Seal": func() { g := h; sealer.Seal(&g, 12345); sink = g.Hash() },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 && !(raceEnabled && name == "Sealer.Seal") {
			t.Errorf("%s allocates %.0f times per call", name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.Encode() }); n != 1 {
		t.Errorf("Encode allocates %.0f times per call, want exactly 1", n)
	}
	_, _ = sink, ok
}
