package chain

import (
	"testing"
	"testing/quick"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/vm"
)

// TestPropertyValueConservation drives random programs of transfers
// (random splits and merges between two principals) and checks that
// total ledger value equals the genesis allocation plus minted
// coinbase after every block — the UTXO conservation invariant.
func TestPropertyValueConservation(t *testing.T) {
	f := func(seedRaw uint16, opsRaw uint8) bool {
		seed := uint64(seedRaw)
		ops := int(opsRaw%24) + 1
		rng := sim.NewRNG(seed)
		alice := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
		bob := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
		minerKey := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
		keys := map[crypto.Address]*crypto.KeyPair{alice.Addr: alice, bob.Addr: bob}

		params := DefaultParams("prop")
		params.DifficultyBits = 4
		exec, err := NewExecutor(params, nil, GenesisAlloc{alice.Addr: 50_000, bob.Addr: 50_000})
		if err != nil {
			return false
		}
		c := exec.NewView()
		genesisTotal := c.TipState().TotalValue()

		now := sim.Time(0)
		nonce := uint64(0)
		blocks := 0
		for op := 0; op < ops; op++ {
			// Pick a random owner with funds, split or merge randomly.
			st := c.TipState()
			var owner *crypto.KeyPair
			if rng.Intn(2) == 0 {
				owner = alice
			} else {
				owner = bob
			}
			owned := ownedMap(st, owner.Addr)
			if len(owned) == 0 {
				continue
			}
			var ins []TxIn
			var total vm.Amount
			take := rng.Intn(len(owned)) + 1
			for opnt, out := range owned {
				ins = append(ins, TxIn{Prev: opnt})
				total += out.Value
				if len(ins) >= take {
					break
				}
			}
			// Random split into 1..3 outputs to random owners.
			nOuts := rng.Intn(3) + 1
			outs := make([]TxOut, 0, nOuts)
			remaining := total
			for i := 0; i < nOuts-1 && remaining > 1; i++ {
				v := vm.Amount(rng.Int63n(int64(remaining))) + 1
				if v >= remaining {
					v = remaining - 1
				}
				to := alice.Addr
				if rng.Intn(2) == 0 {
					to = bob.Addr
				}
				outs = append(outs, TxOut{Value: v, Owner: to})
				remaining -= v
			}
			outs = append(outs, TxOut{Value: remaining, Owner: owner.Addr})
			nonce++
			tx := NewTransfer(keys[owner.Addr], nonce, ins, outs)

			now += params.BlockInterval
			b, _, invalid := c.BuildBlock(minerKey.Addr, now, []*Tx{tx})
			if len(invalid) != 0 {
				return false // our generated transfer must be valid
			}
			b.Header.Seal(rng.Uint64())
			if _, err := c.AddBlock(b); err != nil {
				return false
			}
			blocks++
			want := genesisTotal + vm.Amount(blocks)*params.BlockReward
			if got := c.TipState().TotalValue(); got != want {
				t.Logf("conservation broken: got %d want %d after %d blocks", got, want, blocks)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTxEncodeDecodeRoundTrip fuzzes transaction round trips:
// any transaction this package builds must survive Encode/DecodeTx
// with an identical id and verifiable signature.
func TestPropertyTxEncodeDecodeRoundTrip(t *testing.T) {
	rng := sim.NewRNG(4242)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	f := func(kind uint8, nonce uint64, value uint32, blob []byte) bool {
		var tx *Tx
		ins := []TxIn{{Prev: OutPoint{TxID: crypto.Sum(blob), Index: uint32(nonce % 7)}}}
		outs := []TxOut{{Value: vm.Amount(value)%1000 + 1, Owner: key.Addr}}
		switch kind % 3 {
		case 0:
			tx = NewTransfer(key, nonce, ins, outs)
		case 1:
			tx = NewDeploy(key, nonce, ins, outs, "some.type", blob, vm.Amount(value))
		default:
			tx = NewCall(key, nonce, key.Addr, "fn", blob, ins, outs, vm.Amount(value))
		}
		dec, err := DecodeTx(tx.Encode())
		if err != nil {
			return false
		}
		if dec.ID() != tx.ID() {
			return false
		}
		return dec.Sig.Verify(dec.SigHash().Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHeaderRoundTrip fuzzes header encode/decode.
func TestPropertyHeaderRoundTrip(t *testing.T) {
	f := func(height uint32, tm int64, nonce uint64, bits uint8, seed []byte) bool {
		h := &Header{
			ChainID: "prop-chain",
			Parent:  crypto.Sum(seed),
			Height:  uint64(height),
			Time:    tm,
			TxRoot:  crypto.Sum(seed, []byte("root")),
			Bits:    bits,
			Nonce:   nonce,
		}
		dec, err := DecodeHeader(h.Encode())
		if err != nil {
			return false
		}
		return dec.Hash() == h.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDecodersRejectGarbage throws random bytes at the
// decoders: they must error or produce self-consistent values — never
// panic.
func TestPropertyDecodersRejectGarbage(t *testing.T) {
	f := func(b []byte) bool {
		if tx, err := DecodeTx(b); err == nil {
			// Accidentally valid encodings must re-encode to the
			// same id.
			if dec2, err2 := DecodeTx(tx.Encode()); err2 != nil || dec2.ID() != tx.ID() {
				return false
			}
		}
		if h, err := DecodeHeader(b); err == nil {
			if dec2, err2 := DecodeHeader(h.Encode()); err2 != nil || dec2.Hash() != h.Hash() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
