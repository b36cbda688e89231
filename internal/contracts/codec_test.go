package contracts

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/merkle"
	"repro/internal/vm"
	"repro/internal/wire"
)

// The sample values below have every field set, negative ints included,
// so the pinned encodings fix field order and integer widths.

func sampleHeader() []byte {
	h := chain.Header{ChainID: "w", Parent: crypto.Hash{1}, Height: 2, Time: 3, TxRoot: crypto.Hash{4}, Bits: 5, Nonce: 6}
	return h.Encode()
}

func sampleMultiSig() crypto.MultiSig {
	return crypto.MultiSig{Digest: crypto.Hash{0xd1}, Sigs: []crypto.Signature{
		{Pub: []byte{1, 2, 3}, Sig: []byte{4, 5}},
		{Pub: []byte{6}, Sig: nil},
	}}
}

var (
	sampleHTLC           = HTLCParams{Recipient: crypto.Address{0xa1}, Hashlock: crypto.Hash{0xb2}, Timelock: -5}
	sampleCentralized    = CentralizedParams{Recipient: crypto.Address{0xa1}, MSDigest: crypto.Hash{0xb2}, Witness: crypto.Address{0xc3}}
	samplePermissionless = PermissionlessParams{
		Recipient: crypto.Address{0xa1}, WitnessChain: "witness", WitnessCheckpoint: []byte{9, 8},
		SCw: crypto.Address{0xc3}, Depth: 6, Batch: crypto.Address{0xf6},
	}
	sampleWitness = WitnessParams{
		Edges: []graph.Edge{
			{From: crypto.Address{1}, To: crypto.Address{2}, Asset: 10, Chain: "btc"},
			{From: crypto.Address{2}, To: crypto.Address{1}, Asset: 1 << 40, Chain: "eth"},
		},
		Timestamp: -9,
		Multisig:  sampleMultiSig(),
		Checkpoints: []ChainCheckpoint{
			{Chain: "btc", Header: []byte{7}, EvidenceDepth: 3},
			{Chain: "eth", Header: nil, EvidenceDepth: -1},
		},
		WitnessDepth: 4,
	}
	sampleBatchWitness = BatchWitnessParams{Witnesses: []crypto.Address{{1}, {2}, {3}}, Threshold: 2}
	sampleBatchCommit  = BatchCommit{
		Records: []DecisionRecord{
			{SCw: crypto.Address{1}, Decision: WitnessRedeemAuthorized},
			{SCw: crypto.Address{2}, Decision: WitnessRefundAuthorized},
		},
		Root:        crypto.Hash{0x77},
		Attestation: sampleMultiSig(),
	}
	sampleProof = merkle.Proof{Index: 5, Leaf: crypto.Hash{0x11}, Siblings: []crypto.Hash{{0x22}, {0x33}}, Lefts: []bool{true, false}}
)

func zeros(n int) string { return hex.EncodeToString(make([]byte, n)) }

// multisigHex is sampleMultiSig on the wire: digest, count, then each
// signature's key and signature bytes behind u32 lengths.
var multisigHex = "d1" + zeros(31) + "00000002" + "00000003010203" + "000000020405" + "0000000106" + "00000000"

// TestParamEncodingsPinned fixes the wire form of the eight types that
// used to travel as gob. Unlike Tx, Header and Evidence — whose bytes
// are frozen to the pre-codec commit by golden vectors — these bytes
// were new with the codec, and are frozen from here on.
func TestParamEncodingsPinned(t *testing.T) {
	a := func(first byte) string { return hex.EncodeToString([]byte{first}) + zeros(19) }
	h := func(first byte) string { return hex.EncodeToString([]byte{first}) + zeros(31) }
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"HTLCParams", sampleHTLC.Encode(), a(0xa1) + h(0xb2) + "fffffffffffffffb"},
		{"CentralizedParams", sampleCentralized.Encode(), a(0xa1) + h(0xb2) + a(0xc3)},
		{"PermissionlessParams", samplePermissionless.Encode(),
			a(0xa1) + "00000007" + hex.EncodeToString([]byte("witness")) + "00000002" + "0908" + a(0xc3) + "0000000000000006" + a(0xf6)},
		{"WitnessParams", sampleWitness.Encode(),
			"00000002" +
				a(1) + a(2) + "000000000000000a" + "00000003" + "627463" +
				a(2) + a(1) + "0000010000000000" + "00000003" + "657468" +
				"fffffffffffffff7" + multisigHex +
				"00000002" +
				"00000003" + "627463" + "00000001" + "07" + "0000000000000003" +
				"00000003" + "657468" + "00000000" + "ffffffffffffffff" +
				"0000000000000004"},
		{"BatchWitnessParams", sampleBatchWitness.Encode(), "00000003" + a(1) + a(2) + a(3) + "0000000000000002"},
		{"BatchCommit", EncodeBatchCommit(&sampleBatchCommit), "00000002" + a(1) + "01" + a(2) + "02" + h(0x77) + multisigHex},
		{"merkle.Proof", sampleProof.Encode(), "00000005" + h(0x11) + "00000002" + h(0x22) + "01" + h(0x33) + "00"},
	}
	for _, c := range cases {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s encodes as\n %s\nwant\n %s", c.name, got, c.want)
		}
	}
}

// paramCodec is what every parameter type offers through its pointer.
type paramCodec[T any] interface {
	*T
	vm.Codec
}

// checkParamCodec round-trips v, checks the size promise of a type that
// makes one (a wire.Appender) and the one allocation of Encode, and
// that a trailing or a missing byte is rejected.
func checkParamCodec[T any, P paramCodec[T]](t *testing.T, v *T) {
	t.Helper()
	enc := P(v).Encode()
	if a, ok := any(P(v)).(wire.Appender); ok && len(enc) != a.EncodedLen() {
		t.Errorf("%T: EncodedLen = %d, Encode wrote %d", v, a.EncodedLen(), len(enc))
	}
	var dec T
	if err := P(&dec).Decode(enc); err != nil {
		t.Fatalf("%T: decode: %v", v, err)
	}
	if again := P(&dec).Encode(); !bytes.Equal(again, enc) {
		t.Errorf("%T: decode then encode changed the bytes", v)
	}
	for name, bad := range map[string][]byte{"trailing byte": append(bytes.Clone(enc), 0), "truncated": enc[:len(enc)-1], "empty": nil} {
		if err := P(new(T)).Decode(bad); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%T: %s: err = %v, want wire.ErrMalformed", v, name, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = P(v).Encode() }); n != 1 {
		t.Errorf("%T: Encode allocates %.0f times, want exactly 1", v, n)
	}
}

func TestParamCodecs(t *testing.T) {
	checkParamCodec(t, &sampleHTLC)
	checkParamCodec(t, &sampleCentralized)
	checkParamCodec(t, &samplePermissionless)
	checkParamCodec(t, &sampleWitness)
	checkParamCodec(t, &sampleBatchWitness)

	enc := EncodeBatchCommit(&sampleBatchCommit)
	bc, err := DecodeBatchCommit(enc)
	if err != nil || !bytes.Equal(EncodeBatchCommit(bc), enc) || len(enc) != sampleBatchCommit.EncodedLen() {
		t.Fatalf("BatchCommit round trip: %v", err)
	}
	for name, bad := range map[string][]byte{"trailing byte": append(bytes.Clone(enc), 0), "truncated": enc[:len(enc)-1], "empty": nil} {
		if _, err := DecodeBatchCommit(bad); err == nil {
			t.Errorf("BatchCommit: %s accepted", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = EncodeBatchCommit(&sampleBatchCommit) }); n != 1 {
		t.Errorf("EncodeBatchCommit allocates %.0f times, want exactly 1", n)
	}

	// The hot decode — once per deployment in PermissionlessSC.Init and
	// once per edge in every authorize_redeem — touches no heap.
	enc = samplePermissionless.Encode()
	var p PermissionlessParams
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Decode(enc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("PermissionlessParams.Decode allocates %.0f times, want 0", n)
	}
}

// TestDecodedCountsAreBounded: every decoder that sizes a slice from a
// count rejects a count the remaining bytes cannot hold.
func TestDecodedCountsAreBounded(t *testing.T) {
	huge := func(enc []byte, countAt int) []byte {
		bad := bytes.Clone(enc)
		bad[countAt] = 0x7f
		return bad
	}
	if err := new(WitnessParams).Decode(huge(sampleWitness.Encode(), 0)); err == nil {
		t.Error("WitnessParams: implausible edge count accepted")
	}
	if err := new(BatchWitnessParams).Decode(huge(sampleBatchWitness.Encode(), 0)); err == nil {
		t.Error("BatchWitnessParams: implausible witness count accepted")
	}
	if _, err := DecodeBatchCommit(huge(EncodeBatchCommit(&sampleBatchCommit), 0)); err == nil {
		t.Error("BatchCommit: implausible record count accepted")
	}
	if _, err := DecodeEvidenceList(huge(rawList([]byte("a"), []byte("b")), 0)); err == nil {
		t.Error("evidence list: implausible item count accepted")
	}
}

type listVector struct {
	Items  []string `json:"items"`
	Encode string   `json:"encode"`
}

func goldenLists(t testing.TB) []listVector {
	t.Helper()
	raw, err := os.ReadFile("testdata/evidence_list_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var vecs []listVector
	if err := json.Unmarshal(raw, &vecs); err != nil {
		t.Fatal(err)
	}
	if len(vecs) < 5 {
		t.Fatalf("only %d golden vectors", len(vecs))
	}
	return vecs
}

// TestEvidenceListGoldenVectors: the list framing is call-argument
// bytes and must match the commit before the wire codec (ADR-012).
func TestEvidenceListGoldenVectors(t *testing.T) {
	for i, v := range goldenLists(t) {
		items := make([][]byte, len(v.Items))
		for j, it := range v.Items {
			b, err := hex.DecodeString(it)
			if err != nil {
				t.Fatal(err)
			}
			items[j] = b
		}
		enc := rawList(items...)
		if got := hex.EncodeToString(enc); got != v.Encode {
			t.Fatalf("vector %d: EncodeEvidenceList = %s, want %s", i, got, v.Encode)
		}
		dec, err := DecodeEvidenceList(enc)
		if err != nil || len(dec) != len(items) {
			t.Fatalf("vector %d: decoded %d items, %v", i, len(dec), err)
		}
		for j := range dec {
			if !bytes.Equal(dec[j], items[j]) {
				t.Fatalf("vector %d: item %d changed", i, j)
			}
		}
	}
	list := []wire.Appender{&sampleProof, &sampleProof}
	if n := testing.AllocsPerRun(100, func() { _ = EncodeEvidenceList(list...) }); n != 1 {
		t.Errorf("EncodeEvidenceList allocates %.0f times, want exactly 1", n)
	}
}

func FuzzDecodeEvidenceList(f *testing.F) {
	for _, v := range goldenLists(f) {
		b, err := hex.DecodeString(v.Encode)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		items, err := DecodeEvidenceList(b)
		if err != nil {
			return
		}
		if enc := rawList(items...); !bytes.Equal(enc, b) {
			t.Fatalf("decode then encode changed the bytes:\n in  %x\n out %x", b, enc)
		}
	})
}

func FuzzDecodeBatchCommit(f *testing.F) {
	f.Add(EncodeBatchCommit(&sampleBatchCommit))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		bc, err := DecodeBatchCommit(b)
		if err != nil {
			return
		}
		if enc := EncodeBatchCommit(bc); !bytes.Equal(enc, b) {
			t.Fatalf("decode then encode changed the bytes:\n in  %x\n out %x", b, enc)
		}
	})
}

// fuzzParams is the body of every parameter-decoder fuzz target: never
// panics, and whatever decodes re-encodes to the very bytes given.
func fuzzParams[T any, P paramCodec[T]](f *testing.F, seed *T) {
	f.Add(P(seed).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var v T
		if err := P(&v).Decode(b); err != nil {
			return
		}
		if enc := P(&v).Encode(); !bytes.Equal(enc, b) {
			t.Fatalf("decode then encode changed the bytes:\n in  %x\n out %x", b, enc)
		}
	})
}

func FuzzHTLCParams(f *testing.F)           { fuzzParams(f, &sampleHTLC) }
func FuzzCentralizedParams(f *testing.F)    { fuzzParams(f, &sampleCentralized) }
func FuzzPermissionlessParams(f *testing.F) { fuzzParams(f, &samplePermissionless) }
func FuzzWitnessParams(f *testing.F)        { fuzzParams(f, &sampleWitness) }
func FuzzBatchWitnessParams(f *testing.F)   { fuzzParams(f, &sampleBatchWitness) }

// TestInitDetachesStateFromParams: decoded parameters are views into
// the deployment transaction's bytes, so a constructor copies whatever
// it keeps. Writing to the buffer afterwards must not reach contract
// state, and Clone must stay deep.
func TestInitDetachesStateFromParams(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	hdr := sampleHeader()
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xff
		}
	}

	t.Run("PermissionlessSC", func(t *testing.T) {
		p := PermissionlessParams{Recipient: bob.Addr, WitnessChain: "witness", WitnessCheckpoint: hdr, SCw: crypto.Address{9}, Depth: 3}
		buf := p.Encode()
		sc := &PermissionlessSC{}
		if err := sc.Init(ctxFor(alice.Addr, 10), buf); err != nil {
			t.Fatal(err)
		}
		scribble(buf)
		if sc.WitnessChain != "witness" || !bytes.Equal(sc.WitnessCheckpoint, hdr) {
			t.Fatalf("state follows the params buffer: %q %x", sc.WitnessChain, sc.WitnessCheckpoint)
		}
		cl := sc.Clone().(*PermissionlessSC)
		scribble(cl.WitnessCheckpoint)
		if !bytes.Equal(sc.WitnessCheckpoint, hdr) {
			t.Fatal("Clone shares the checkpoint bytes")
		}
	})

	t.Run("WitnessSC", func(t *testing.T) {
		g := mustTwoParty(t, alice, bob)
		p := WitnessParams{
			Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *multisig(g.Digest(), alice, bob),
			Checkpoints:  []ChainCheckpoint{{Chain: "btc", Header: hdr, EvidenceDepth: 1}, {Chain: "eth", Header: hdr, EvidenceDepth: 1}},
			WitnessDepth: 2,
		}
		buf := p.Encode()
		sc := &WitnessSC{}
		if err := sc.Init(ctxFor(alice.Addr, 0), buf); err != nil {
			t.Fatal(err)
		}
		scribble(buf)
		for i, e := range sc.Edges {
			if e != g.Edges[i] {
				t.Fatalf("edge %d follows the params buffer: %+v", i, e)
			}
		}
		for i, cp := range sc.Checkpoints {
			if cp.Chain != p.Checkpoints[i].Chain || !bytes.Equal(cp.Header, hdr) {
				t.Fatalf("checkpoint %d follows the params buffer: %q %x", i, cp.Chain, cp.Header)
			}
		}
		cl := sc.Clone().(*WitnessSC)
		cl.Edges[0].Asset++
		cl.Checkpoints[0].EvidenceDepth++
		cl.Participants[0][0] ^= 1
		if sc.Edges[0] != g.Edges[0] || sc.Checkpoints[0].EvidenceDepth != 1 || sc.Participants[0] != g.Participants[0] {
			t.Fatal("Clone shares slices with the original")
		}
	})
}

// BenchmarkWitnessParamsCodec measures one encode plus one decode of
// SCw's constructor parameters (two edges, two signatures, two
// checkpoint headers) — what deploySCw and WitnessSC.Init pay.
func BenchmarkWitnessParamsCodec(b *testing.B) {
	ks := keys(2)
	g, err := graph.TwoParty(1, ks[0].Addr, ks[1].Addr, 10, "btc", 20, "eth")
	if err != nil {
		b.Fatal(err)
	}
	hdr := sampleHeader()
	p := WitnessParams{
		Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *multisig(g.Digest(), ks...),
		Checkpoints:  []ChainCheckpoint{{Chain: "btc", Header: hdr, EvidenceDepth: 6}, {Chain: "eth", Header: hdr, EvidenceDepth: 6}},
		WitnessDepth: 6,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var dec WitnessParams
		if err := dec.Decode(p.Encode()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPermissionlessParamsDecode measures the decode every
// PermissionlessSC deployment and every matchDeployToEdge runs.
func BenchmarkPermissionlessParamsDecode(b *testing.B) {
	p := PermissionlessParams{Recipient: crypto.Address{1}, WitnessChain: "witness", WitnessCheckpoint: sampleHeader(), SCw: crypto.Address{2}, Depth: 6}
	enc := p.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var dec PermissionlessParams
		if err := dec.Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
