package chain

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
	"unsafe"

	"repro/internal/crypto"
	"repro/internal/sim"
)

// txVector is one record of testdata/tx_golden.json, captured from the
// commit before the wire codec (ADR-012) by encoding generated
// transactions with the bytes.Buffer encoder it replaced: Encode and
// SigHash must never change, because transaction ids, block hashes,
// evidence bytes and every seed-42 aggregate derive from them. They
// changed once, for the two vectors whose Args are longer than a
// digest, when the id began to commit to Args by their SHA-256 digest
// (ADR-026); those two carry their id form (AppendIDForm), which the
// others' Encode is.
type txVector struct {
	Kind  byte   `json:"kind"`
	Nonce uint64 `json:"nonce"`
	Ins   []struct {
		TxID  string `json:"txid"`
		Index uint32 `json:"index"`
	} `json:"ins"`
	Outs []struct {
		Value uint64 `json:"value"`
		Owner string `json:"owner"`
	} `json:"outs"`
	ContractType string `json:"contract_type"`
	Params       string `json:"params"`
	Contract     string `json:"contract"`
	Fn           string `json:"fn"`
	Args         string `json:"args"`
	Value        uint64 `json:"value"`
	SigPub       string `json:"sig_pub"`
	SigSig       string `json:"sig_sig"`
	Encode       string `json:"encode"`
	SigHash      string `json:"sig_hash"`
	IDForm       string `json:"id_form"`
}

// idForm is the vector's id form: its encoding unless Args are longer
// than a digest.
func (v txVector) idForm() string {
	if v.IDForm == "" {
		return v.Encode
	}
	return v.IDForm
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

func (v txVector) tx(t testing.TB) *Tx {
	t.Helper()
	tx := &Tx{
		Kind: TxKind(v.Kind), Nonce: v.Nonce, ContractType: v.ContractType, Params: unhex(t, v.Params),
		Fn: v.Fn, Args: unhex(t, v.Args), Value: v.Value,
		Sig: crypto.Signature{Pub: unhex(t, v.SigPub), Sig: unhex(t, v.SigSig)},
	}
	copy(tx.Contract[:], unhex(t, v.Contract))
	for _, in := range v.Ins {
		tx.Ins = append(tx.Ins, TxIn{Prev: OutPoint{TxID: crypto.Hash(unhex(t, in.TxID)), Index: in.Index}})
	}
	for _, out := range v.Outs {
		o := TxOut{Value: out.Value}
		copy(o.Owner[:], unhex(t, out.Owner))
		tx.Outs = append(tx.Outs, o)
	}
	return tx
}

func goldenTxs(t testing.TB) []txVector {
	t.Helper()
	raw, err := os.ReadFile("testdata/tx_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var vecs []txVector
	if err := json.Unmarshal(raw, &vecs); err != nil {
		t.Fatal(err)
	}
	if len(vecs) < 24 {
		t.Fatalf("only %d golden vectors", len(vecs))
	}
	return vecs
}

func TestTxGoldenVectors(t *testing.T) {
	streamed := 0
	for i, v := range goldenTxs(t) {
		tx := v.tx(t)
		enc := tx.Encode()
		if got := hex.EncodeToString(enc); got != v.Encode {
			t.Fatalf("vector %d: Encode = %s, want %s", i, got, v.Encode)
		}
		if len(enc) != tx.EncodedLen() {
			t.Fatalf("vector %d: EncodedLen = %d, Encode wrote %d", i, tx.EncodedLen(), len(enc))
		}
		sigHash := tx.SigHash()
		if got := hex.EncodeToString(sigHash[:]); got != v.SigHash {
			t.Fatalf("vector %d: SigHash = %s, want %s", i, got, v.SigHash)
		}
		if tx.bodyLen() > 256 {
			streamed++
		}
		dec, err := DecodeTx(enc)
		if err != nil {
			t.Fatalf("vector %d: decode: %v", i, err)
		}
		if dec.ID() != tx.ID() || !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("vector %d: decode round trip changed the transaction", i)
		}
		idf := tx.AppendIDForm(nil)
		if got := hex.EncodeToString(idf); got != v.idForm() || len(idf) != tx.IDFormLen() {
			t.Fatalf("vector %d: id form %s (IDFormLen %d), want %s", i, got, tx.IDFormLen(), v.idForm())
		}
		// The id is the hash of the id form's body, and the id form
		// decodes to the same id and re-encodes to itself.
		if crypto.Sum(idf[:len(idf)-tx.Sig.EncodedLen()]) != sigHash {
			t.Fatalf("vector %d: the id is not the hash of the id form's body", i)
		}
		short, err := DecodeTx(idf)
		if err != nil || short.ID() != sigHash || !bytes.Equal(short.Encode(), idf) {
			t.Fatalf("vector %d: id form decoded to %v (%v)", i, short, err)
		}
	}
	if streamed == 0 {
		t.Fatal("no vector is long enough to take SigHash's streaming path")
	}
}

// TestTxEncodedBeforeVerified: a transaction whose signature is still
// its verdict's to write (SignLater, as NewTransfer, NewDeploy and
// NewCall leave it) and that nobody has verified encodes to the golden
// body followed by its key's signature: Encode claims the verdict and
// writes the bytes first, and the verdict is the one VerifySig then reads.
func TestTxEncodedBeforeVerified(t *testing.T) {
	key := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(8).Uint64))
	for i, v := range goldenTxs(t) {
		tx := v.tx(t)
		if len(tx.Sig.Sig) == 0 {
			continue // genesis and coinbase: unsigned
		}
		golden := unhex(t, v.Encode)
		body := golden[:len(golden)-tx.Sig.EncodedLen()]
		tx.Sig = tx.sigOK.SignLater(key, new([crypto.SignedLen]byte))
		want := key.Sign(tx.SigHash().Bytes()).AppendTo(bytes.Clone(body))
		if got := tx.Encode(); !bytes.Equal(got, want) {
			t.Fatalf("vector %d: encoded before verified:\n got %x\nwant %x", i, got, want)
		}
		var sigs crypto.SigTally
		if !tx.verifySig(&sigs) || sigs != (crypto.SigTally{}) {
			t.Fatalf("vector %d: verdict after Encode: tally %+v, want the stored one", i, sigs)
		}
	}
}

// FuzzDecodeTx: DecodeTx never panics, and whatever it accepts it
// re-encodes to the very bytes it was given.
func FuzzDecodeTx(f *testing.F) {
	for _, v := range goldenTxs(f) {
		f.Add(unhex(f, v.Encode))
		f.Add(unhex(f, v.idForm()))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		tx, err := DecodeTx(b)
		if err != nil {
			return
		}
		if enc := tx.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("decode then encode changed the bytes:\n in  %x\n out %x", b, enc)
		}
		if tx.EncodedLen() != len(b) {
			t.Fatalf("EncodedLen = %d for a %d-byte encoding", tx.EncodedLen(), len(b))
		}
	})
}

// FuzzDecodeHeader is FuzzDecodeTx for headers.
func FuzzDecodeHeader(f *testing.F) {
	h := Header{ChainID: "witness", Parent: crypto.Sum([]byte("p")), Height: 9, Time: 90, TxRoot: crypto.Sum([]byte("r")), Bits: 6, Nonce: 1 << 40}
	f.Add(h.Encode())
	h.ChainID = ""
	f.Add(h.Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := DecodeHeader(b)
		if err != nil {
			return
		}
		if enc := h.Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("decode then encode changed the bytes:\n in  %x\n out %x", b, enc)
		}
	})
}

// TestDecodeTxBoundsCounts: an input is 36 bytes and an output 28, so a
// count the remaining bytes cannot hold is rejected before anything is
// allocated for it — it used to be compared against the whole buffer's
// length in bytes.
func TestDecodeTxBoundsCounts(t *testing.T) {
	key := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(5).Uint64))
	tx := NewTransfer(key, 1, []TxIn{{Prev: OutPoint{TxID: crypto.Sum([]byte("x"))}}}, []TxOut{{Value: 1, Owner: key.Addr}})
	enc := tx.Encode()
	const insCountAt = 1 + 8
	if got := binary.BigEndian.Uint32(enc[insCountAt:]); got != 1 {
		t.Fatalf("input count at offset %d is %d", insCountAt, got)
	}
	rest := len(enc) - insCountAt - 4
	for _, n := range []int{rest / txInLen, rest/txInLen + 1, rest, 1 << 31} {
		bad := bytes.Clone(enc)
		binary.BigEndian.PutUint32(bad[insCountAt:], uint32(n))
		if _, err := DecodeTx(bad); err == nil {
			t.Fatalf("input count %d accepted with %d bytes behind it", n, rest)
		}
	}
	outsCountAt := insCountAt + 4 + txInLen
	rest = len(enc) - outsCountAt - 4
	bad := bytes.Clone(enc)
	binary.BigEndian.PutUint32(bad[outsCountAt:], uint32(rest/txOutLen+1))
	if _, err := DecodeTx(bad); err == nil {
		t.Fatal("output count beyond the remaining bytes accepted")
	}
}

// TestDecodeTxAliasesInput documents the aliasing contract: a decoded
// transaction is a view of the bytes it came from.
func TestDecodeTxAliasesInput(t *testing.T) {
	key := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(6).Uint64))
	enc := NewCall(key, 1, key.Addr, "fn", []byte("arguments"), nil, nil, 0).Encode()
	tx, err := DecodeTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(enc, []byte("arguments"))
	enc[at] = 'A'
	if string(tx.Args) != "Arguments" {
		t.Fatalf("Args = %q: DecodeTx copied its input", tx.Args)
	}
}

func TestTxCodecAllocations(t *testing.T) {
	key := crypto.MustGenerateKey(crypto.NewRandReader(sim.NewRNG(7).Uint64))
	ins := []TxIn{{Prev: OutPoint{TxID: crypto.Sum([]byte("x"))}}}
	outs := []TxOut{{Value: 10, Owner: key.Addr}}
	small := NewTransfer(key, 1, ins, outs)
	large := NewCall(key, 2, key.Addr, "authorize_redeem", make([]byte, 10<<10), ins, outs, 0)
	for name, tx := range map[string]*Tx{"transfer": small, "10 kB call": large} {
		if n := testing.AllocsPerRun(100, func() { _ = tx.Encode() }); n != 1 {
			t.Errorf("%s: Encode allocates %.0f times, want exactly 1", name, n)
		}
		// SigHash is memoized; hash a fresh copy of the body each time.
		n := testing.AllocsPerRun(100, func() {
			cp := Tx{Kind: tx.Kind, Nonce: tx.Nonce, Ins: tx.Ins, Outs: tx.Outs, Contract: tx.Contract, Fn: tx.Fn, Args: tx.Args}
			if cp.SigHash() != tx.SigHash() {
				t.Fatal("copy hashes differently")
			}
		})
		if n > 1 {
			t.Errorf("%s: SigHash allocates %.0f times, want at most 1", name, n)
		}
	}
}

// TestSignedTxSizeClass: the id form's marker lives in Tx's padding, so
// a transaction built here and its signature's bytes stay one object of
// the 416-byte size class.
func TestSignedTxSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(signedTx{}); n > 416 {
		t.Fatalf("signedTx is %d bytes, past the 416-byte size class", n)
	}
}
