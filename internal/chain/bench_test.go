package chain

import (
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// benchFixture builds a chain with n blocks of m transfers each.
func benchFixture(b *testing.B, blocks, txsPerBlock int) (*Chain, *crypto.KeyPair) {
	b.Helper()
	rng := sim.NewRNG(1)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	minerKey := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	params := DefaultParams("bench")
	params.DifficultyBits = 0 // isolate what each benchmark measures
	params.MaxBlockTxs = txsPerBlock + 1
	c, err := NewChain(params, nil, GenesisAlloc{key.Addr: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-split so every block has txsPerBlock independent outputs.
	var prev OutPoint
	var total vm.Amount
	for op, o := range c.TipState().UTXOsOwnedBy(key.Addr) {
		prev, total = op, o.Value
	}
	outs := make([]TxOut, txsPerBlock)
	share := total / vm.Amount(txsPerBlock)
	for i := range outs {
		outs[i] = TxOut{Value: share, Owner: key.Addr}
	}
	outs[0].Value += total - share*vm.Amount(txsPerBlock)
	split := NewTransfer(key, 0, []TxIn{{Prev: prev}}, outs)
	blk, _, _ := c.BuildBlock(minerKey.Addr, 10, []*Tx{split})
	blk.Header.Seal(0)
	if _, err := c.AddBlock(blk); err != nil {
		b.Fatal(err)
	}

	nonce := uint64(1)
	now := sim.Time(10)
	for n := 0; n < blocks; n++ {
		var txs []*Tx
		for op, o := range c.TipState().UTXOsOwnedBy(key.Addr) {
			nonce++
			txs = append(txs, NewTransfer(key, nonce, []TxIn{{Prev: op}},
				[]TxOut{{Value: o.Value, Owner: key.Addr}}))
			if len(txs) >= txsPerBlock {
				break
			}
		}
		now += params.BlockInterval
		blk, _, invalid := c.BuildBlock(minerKey.Addr, now, txs)
		if len(invalid) != 0 {
			b.Fatalf("block %d rejected %d txs", n, len(invalid))
		}
		blk.Header.Seal(0)
		if _, err := c.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
	return c, key
}

// BenchmarkStateLookupByOverlayDepth is the DESIGN.md ✦ ablation for
// the copy-on-write state: UTXO lookup cost as the overlay chain
// under the tip grows (flattening bounds it at flattenDepth).
func BenchmarkStateLookupByOverlayDepth(b *testing.B) {
	for _, blocks := range []int{4, 16, 47, 96} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			c, key := benchFixture(b, blocks, 8)
			st := c.TipState()
			var ops []OutPoint
			for op := range st.UTXOsOwnedBy(key.Addr) {
				ops = append(ops, op)
			}
			b.ReportMetric(float64(st.OverlayDepth()), "overlay-depth")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.UTXO(ops[i%len(ops)]); !ok {
					b.Fatal("utxo vanished")
				}
			}
		})
	}
}

// BenchmarkSealByDifficulty is the DESIGN.md ✦ ablation for PoW: how
// grinding cost scales with difficulty bits (verification stays one
// hash regardless).
func BenchmarkSealByDifficulty(b *testing.B) {
	for _, bits := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			h := Header{ChainID: "bench", Height: 1, Time: 10, Bits: uint8(bits)}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Nonce = 0
				h.Parent = crypto.Sum([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
				h.Seal(uint64(i) << 32)
			}
		})
	}
}

// BenchmarkCheckPoW measures verification (one hash + leading-zero
// count) — the cost every SPV evidence header imposes on a validator.
func BenchmarkCheckPoW(b *testing.B) {
	h := Header{ChainID: "bench", Height: 1, Time: 10, Bits: 12}
	h.Seal(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !h.CheckPoW() {
			b.Fatal("sealed header fails PoW")
		}
	}
}

// BenchmarkHeaderHash measures one header digest: encode into a stack
// buffer plus one SHA-256, no heap traffic.
func BenchmarkHeaderHash(b *testing.B) {
	h := Header{ChainID: "bench", Parent: crypto.Sum([]byte("p")), Height: 1, Time: 10, TxRoot: crypto.Sum([]byte("r")), Bits: 6}
	var sink crypto.Hash
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Nonce = uint64(i)
		sink = h.Hash()
	}
	_ = sink
}

// BenchmarkApplyBlock measures full block validation + state
// transition for a 64-transfer block.
func BenchmarkApplyBlock(b *testing.B) {
	c, key := benchFixture(b, 1, 64)
	var txs []*Tx
	nonce := uint64(1 << 20)
	for op, o := range c.TipState().UTXOsOwnedBy(key.Addr) {
		nonce++
		txs = append(txs, NewTransfer(key, nonce, []TxIn{{Prev: op}},
			[]TxOut{{Value: o.Value, Owner: key.Addr}}))
		if len(txs) >= 64 {
			break
		}
	}
	rng := sim.NewRNG(9)
	minerKey := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	blk, _, invalid := c.BuildBlock(minerKey.Addr, 1<<40, txs)
	if len(invalid) != 0 {
		b.Fatal("fixture txs invalid")
	}
	blk.Header.Seal(0)
	parentState, _ := c.StateAt(blk.Header.Parent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ApplyBlock(parentState, c.Registry(), c.Params(), blk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxEncodeDecode measures the wire codec used by blocks and
// evidence.
func BenchmarkTxEncodeDecode(b *testing.B) {
	rng := sim.NewRNG(3)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	tx := NewTransfer(key, 7,
		[]TxIn{{Prev: OutPoint{TxID: crypto.Sum([]byte("x"))}}},
		[]TxOut{{Value: 10, Owner: key.Addr}, {Value: 20, Owner: key.Addr}})
	enc := tx.Encode()
	b.ReportMetric(float64(len(enc)), "bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTx(enc); err != nil {
			b.Fatal(err)
		}
	}
}
