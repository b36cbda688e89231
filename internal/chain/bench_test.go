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
	exec, err := NewExecutor(params, nil, GenesisAlloc{key.Addr: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	c := exec.NewView()
	// Pre-split so every block has txsPerBlock independent outputs.
	var prev OutPoint
	var total vm.Amount
	for op, o := range ownedMap(c.TipState(), key.Addr) {
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
		for op, o := range ownedMap(c.TipState(), key.Addr) {
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
// under the tip grows (flattening bounds it at flattenDepth), and —
// base=N — the cost of a lookup that misses all flattenDepth overlays
// and lands in a base of N outputs, which may grow with log N and no
// faster.
func BenchmarkStateLookupByOverlayDepth(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("blocks=%d/base=%d", flattenDepth, n), func(b *testing.B) {
			st := benchState(n)
			live := n - 2*flattenDepth // the overlays spent the base's first outputs
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := st.UTXO(OutPoint{Index: uint32(2*flattenDepth + i*7919%live)}); !ok {
					b.Fatal("utxo vanished")
				}
			}
		})
	}
	for _, blocks := range []int{4, 16, 47, 96} {
		b.Run(fmt.Sprintf("blocks=%d", blocks), func(b *testing.B) {
			c, key := benchFixture(b, blocks, 8)
			st := c.TipState()
			var ops []OutPoint
			for op := range ownedMap(st, key.Addr) {
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

// benchState returns a base of n outputs spread over n/4 owners with
// flattenDepth overlays on top, each adding four outputs and spending
// two of the base's — the shape Child collapses every flattenDepth
// blocks.
func benchState(n int) *State {
	owner := func(i int) crypto.Address {
		return crypto.Address{byte(i), byte(i >> 8), byte(i >> 16)}
	}
	st := NewState()
	for i := range n {
		st.AddUTXO(OutPoint{Index: uint32(i)}, TxOut{Value: 1, Owner: owner(i / 4)})
	}
	for layer := range flattenDepth {
		st = st.Child()
		for j := range 4 {
			i := n + layer*4 + j
			st.AddUTXO(OutPoint{Index: uint32(i)}, TxOut{Value: 1, Owner: owner(i / 4)})
		}
		st.Spend(OutPoint{Index: uint32(layer * 2)})
		st.Spend(OutPoint{Index: uint32(layer*2 + 1)})
	}
	return st
}

// BenchmarkFlatten measures collapsing a full overlay chain into a new
// base: a snapshot of the old base with the overlays' deltas folded in,
// owner index included. The cost follows the deltas, not the base
// (TestFlattenCostIndependentOfLedgerSize), and is paid once per
// flattenDepth blocks.
func BenchmarkFlatten(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("base=%d", n), func(b *testing.B) {
			st := benchState(n)
			b.ReportAllocs()
			b.ResetTimer()
			var f *State
			for i := 0; i < b.N; i++ {
				f = st.flatten()
			}
			b.StopTimer()
			if got := count(&f.base.utxos); got != n+2*flattenDepth {
				b.Fatalf("flattened base holds %d outputs", got)
			}
		})
	}
}

// TestFlattenCostIndependentOfLedgerSize: what a flatten allocates
// depends on what the overlays changed, not on what the base holds —
// the same deltas over a base a hundred times the size cost at most a
// few more levels of table. (Cloning the base's maps, 1,000 → 100,000
// outputs took a flatten from 214 KB to 12.6 MB.)
func TestFlattenCostIndependentOfLedgerSize(t *testing.T) {
	bytesPerFlatten := func(n int) int64 {
		st := benchState(n)
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st.flatten()
			}
		}).AllocedBytesPerOp()
	}
	small, large := bytesPerFlatten(1_000), bytesPerFlatten(100_000)
	t.Logf("a flatten allocates %d B over 1,000 outputs, %d B over 100,000", small, large)
	if large > 3*small {
		t.Fatalf("a flatten allocates %d B over 100,000 outputs against %d B over 1,000", large, small)
	}
}

// BenchmarkAppendOwnedColdOwner measures a wallet read for an address
// the state has never been asked about — every AC2T's fresh wallets —
// under a full overlay chain: the overlays' deltas plus one index
// lookup, independent of the base's size.
func BenchmarkAppendOwnedColdOwner(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("base=%d", n), func(b *testing.B) {
			st := benchState(n)
			var buf []Owned
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A different owner every time; three in four own
				// nothing at all.
				buf = st.AppendOwned(buf[:0], crypto.Address{byte(i), byte(i >> 8), byte(i >> 16), byte(i & 3)})
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

// BenchmarkSealAttempt is the cost of one nonce attempt at the
// simulation's difficulty (6 bits, ~64 attempts a seal) on a header of
// the engine's chain-id length: Header.Seal hashes two SHA-256 blocks per
// attempt, a Sealer resumes from the midstate and hashes one.
func BenchmarkSealAttempt(b *testing.B) {
	var sealer Sealer
	for name, seal := range map[string]func(*Header, uint64){
		"Header.Seal": func(h *Header, start uint64) { h.Seal(start) },
		"Sealer":      sealer.Seal,
	} {
		b.Run(name, func(b *testing.B) {
			attempts := uint64(0)
			for i := 0; i < b.N; i++ {
				h := Header{ChainID: "asset-0", Height: 1, Time: 10, Bits: 6, Parent: crypto.Sum([]byte{byte(i), byte(i >> 8), byte(i >> 16)})}
				seal(&h, uint64(i)<<32)
				attempts += h.Nonce - uint64(i)<<32 + 1
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(attempts), "ns/attempt")
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
	for op, o := range ownedMap(c.TipState(), key.Addr) {
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

// largeCall is the shape of an authorize_redeem: a contract call whose
// argument is ~10 kB of SPV evidence.
func largeCall() *Tx {
	key := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(3).Uint64))
	return NewCall(key, 7, key.Addr, "authorize_redeem", make([]byte, 10<<10),
		[]TxIn{{Prev: OutPoint{TxID: crypto.Sum([]byte("x"))}}},
		[]TxOut{{Value: 10, Owner: key.Addr}}, 0)
}

// BenchmarkTxEncode measures encoding a transaction that carries
// evidence: one exact-size allocation.
func BenchmarkTxEncode(b *testing.B) {
	tx := largeCall()
	b.SetBytes(int64(tx.EncodedLen()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(tx.Encode()) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkTxSigHashLargeArgs measures hashing that transaction's body
// (SigHash is memoized, so each iteration hashes a fresh copy).
func BenchmarkTxSigHashLargeArgs(b *testing.B) {
	tx := largeCall()
	b.SetBytes(int64(tx.EncodedLen()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cp := Tx{Kind: tx.Kind, Nonce: tx.Nonce, Ins: tx.Ins, Outs: tx.Outs, Contract: tx.Contract, Fn: tx.Fn, Args: tx.Args}
		if cp.SigHash() != tx.SigHash() {
			b.Fatal("copy hashes differently")
		}
	}
}
