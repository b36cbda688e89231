package crypto

import (
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testKey(t *testing.T, seed uint64) *KeyPair {
	t.Helper()
	r := sim.NewRNG(seed)
	return MustGenerateKey(NewRandReader(r.Uint64))
}

func TestSumDeterministicAndSensitive(t *testing.T) {
	a := Sum([]byte("hello"), []byte("world"))
	b := Sum([]byte("hello"), []byte("world"))
	c := Sum([]byte("helloworld"))
	if a != b {
		t.Fatal("Sum not deterministic")
	}
	// Concatenation boundary is not preserved by design (parts are
	// concatenated); the two must match.
	if a != c {
		t.Fatal("Sum over parts should equal sum over concatenation")
	}
	d := Sum([]byte("hello"), []byte("worle"))
	if a == d {
		t.Fatal("Sum not sensitive to input change")
	}
}

func TestHashHexRoundTrip(t *testing.T) {
	h := Sum([]byte("x"))
	got, err := hex.DecodeString(h.Hex())
	if err != nil {
		t.Fatal(err)
	}
	if Hash(got) != h {
		t.Fatal("hex round trip mismatch")
	}
	if !strings.HasPrefix(h.Hex(), h.String()) || len(h.String()) != 16 {
		t.Fatalf("String %q is not the first 8 bytes of Hex %q", h.String(), h.Hex())
	}
}

func TestSignVerify(t *testing.T) {
	k := testKey(t, 1)
	msg := []byte("transfer 3 BTC")
	sig := k.Sign(msg)
	if !sig.Verify(msg) {
		t.Fatal("valid signature rejected")
	}
	if sig.Verify([]byte("transfer 4 BTC")) {
		t.Fatal("signature verified wrong message")
	}
	if sig.Signer() != k.Addr {
		t.Fatal("signer address mismatch")
	}
}

func TestSignatureTamperedRejected(t *testing.T) {
	k := testKey(t, 2)
	msg := []byte("m")
	f := func(i uint8, flip uint8) bool {
		sig := k.Sign(msg).Clone()
		if flip == 0 {
			flip = 1
		}
		idx := int(i) % len(sig.Sig)
		sig.Sig[idx] ^= flip
		return !sig.Verify(msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureMalformedRejected(t *testing.T) {
	var s Signature
	if s.Verify([]byte("m")) {
		t.Fatal("empty signature verified")
	}
	k := testKey(t, 3)
	sig := k.Sign([]byte("m"))
	sig.Pub = sig.Pub[:5]
	if sig.Verify([]byte("m")) {
		t.Fatal("short pubkey verified")
	}
}

func TestAddressesDistinct(t *testing.T) {
	a := testKey(t, 4)
	b := testKey(t, 5)
	if a.Addr == b.Addr {
		t.Fatal("distinct keys share an address")
	}
	if a.Addr.IsZero() {
		t.Fatal("derived address is zero")
	}
}

func TestKeyGenDeterministic(t *testing.T) {
	a := testKey(t, 6)
	b := testKey(t, 6)
	if a.Addr != b.Addr {
		t.Fatal("same seed produced different keys")
	}
}

func TestSigLockMutualExclusionShape(t *testing.T) {
	trent := testKey(t, 7)
	ms := Sum([]byte("graph D at t"))

	rdLock := SigLock{MSDigest: ms, WitnessPub: trent.Addr, Purpose: PurposeRedeem}
	rfLock := SigLock{MSDigest: ms, WitnessPub: trent.Addr, Purpose: PurposeRefund}

	rdSig := trent.Sign(WitnessMessage(ms, PurposeRedeem))
	rfSig := trent.Sign(WitnessMessage(ms, PurposeRefund))

	if !rdLock.VerifySig(rdSig) {
		t.Fatal("redeem lock rejected redeem signature")
	}
	if !rfLock.VerifySig(rfSig) {
		t.Fatal("refund lock rejected refund signature")
	}
	// The cross cases must fail: a redeem signature can never satisfy
	// the refund lock and vice versa (the paper's mutual exclusion).
	if rdLock.VerifySig(rfSig) {
		t.Fatal("redeem lock accepted refund signature")
	}
	if rfLock.VerifySig(rdSig) {
		t.Fatal("refund lock accepted redeem signature")
	}
}

func TestSigLockWrongWitnessRejected(t *testing.T) {
	trent := testKey(t, 8)
	mallory := testKey(t, 9)
	ms := Sum([]byte("D"))
	lock := SigLock{MSDigest: ms, WitnessPub: trent.Addr, Purpose: PurposeRedeem}
	forged := mallory.Sign(WitnessMessage(ms, PurposeRedeem))
	if lock.VerifySig(forged) {
		t.Fatal("lock accepted a signature from the wrong witness")
	}
}

func TestSigLockWrongGraphRejected(t *testing.T) {
	trent := testKey(t, 10)
	lock := SigLock{MSDigest: Sum([]byte("D1")), WitnessPub: trent.Addr, Purpose: PurposeRedeem}
	sig := trent.Sign(WitnessMessage(Sum([]byte("D2")), PurposeRedeem))
	if lock.VerifySig(sig) {
		t.Fatal("lock accepted a signature over a different graph")
	}
}

func TestSignatureEncodeDecodeRoundTrip(t *testing.T) {
	k := testKey(t, 11)
	sig := k.Sign([]byte("payload"))
	enc := EncodeSignature(sig)
	dec, err := DecodeSignature(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Equal(sig) {
		t.Fatal("round trip changed the signature")
	}
	if !dec.Verify([]byte("payload")) {
		t.Fatal("decoded signature does not verify")
	}
}

func TestDecodeSignatureMalformed(t *testing.T) {
	cases := [][]byte{nil, {1}, {0, 0, 0, 200, 1, 2}, make([]byte, 4)}
	for i, c := range cases {
		if _, err := DecodeSignature(c); err == nil && len(c) < 8 {
			t.Fatalf("case %d: expected error", i)
		}
	}
}

func TestSigLockVerifySecretEncoding(t *testing.T) {
	trent := testKey(t, 12)
	ms := Sum([]byte("D"))
	lock := SigLock{MSDigest: ms, WitnessPub: trent.Addr, Purpose: PurposeRefund}
	secret := EncodeSignature(trent.Sign(WitnessMessage(ms, PurposeRefund)))
	if !lock.Verify(secret) {
		t.Fatal("lock rejected a valid encoded secret")
	}
	if lock.Verify([]byte("garbage")) {
		t.Fatal("lock accepted garbage")
	}
}

func TestMultiSigCompleteness(t *testing.T) {
	alice := testKey(t, 13)
	bob := testKey(t, 14)
	carol := testKey(t, 15)
	digest := Sum([]byte("(D, t)"))

	ms := NewMultiSig(digest)
	ms.Add(alice)
	required := []Address{alice.Addr, bob.Addr}
	if ms.Complete(required) {
		t.Fatal("incomplete multisig reported complete")
	}
	ms.Add(bob)
	if !ms.Complete(required) {
		t.Fatal("complete multisig reported incomplete")
	}
	// Extra signer does not hurt.
	ms.Add(carol)
	if !ms.Complete(required) {
		t.Fatal("extra signature broke completeness")
	}
}

func TestMultiSigDuplicateSignerIgnored(t *testing.T) {
	alice := testKey(t, 16)
	ms := NewMultiSig(Sum([]byte("d")))
	ms.Add(alice)
	ms.Add(alice)
	if len(ms.Sigs) != 1 {
		t.Fatalf("duplicate Add produced %d signatures, want 1", len(ms.Sigs))
	}
}

func TestMultiSigAddSignatureValidation(t *testing.T) {
	alice := testKey(t, 17)
	digest := Sum([]byte("d"))
	ms := NewMultiSig(digest)
	good := alice.Sign(digest[:])
	if err := ms.AddSignature(good); err != nil {
		t.Fatal(err)
	}
	if err := ms.AddSignature(good); err == nil {
		t.Fatal("duplicate signature accepted")
	}
	bad := alice.Sign([]byte("other digest"))
	if err := ms.AddSignature(bad); err == nil {
		t.Fatal("signature over wrong digest accepted")
	}
}

func TestMultiSigIDOrderIndependent(t *testing.T) {
	alice := testKey(t, 18)
	bob := testKey(t, 19)
	digest := Sum([]byte("d"))

	m1 := NewMultiSig(digest)
	m1.Add(alice)
	m1.Add(bob)
	m2 := NewMultiSig(digest)
	m2.Add(bob)
	m2.Add(alice)
	if m1.ID() != m2.ID() {
		t.Fatal("ms(D) ID depends on signing order")
	}

	m3 := NewMultiSig(Sum([]byte("d'")))
	m3.Add(alice)
	m3.Add(bob)
	if m1.ID() == m3.ID() {
		t.Fatal("different graphs share an ms(D) ID")
	}
}

func TestMultiSigIDDistinguishesSignerSets(t *testing.T) {
	alice := testKey(t, 20)
	bob := testKey(t, 21)
	digest := Sum([]byte("d"))
	m1 := NewMultiSig(digest)
	m1.Add(alice)
	m2 := NewMultiSig(digest)
	m2.Add(alice)
	m2.Add(bob)
	if m1.ID() == m2.ID() {
		t.Fatal("different signer sets share an ID")
	}
}

func TestMultiSigCompleteThreshold(t *testing.T) {
	alice := testKey(t, 25)
	bob := testKey(t, 26)
	carol := testKey(t, 27)
	dave := testKey(t, 28)
	digest := Sum([]byte("batch root"))
	required := []Address{alice.Addr, bob.Addr, carol.Addr, dave.Addr}

	ms := NewMultiSig(digest)
	ms.Add(alice)
	ms.Add(bob)
	if ms.CompleteThreshold(required, 3) {
		t.Fatal("2-of-4 reported complete at threshold 3")
	}
	ms.Add(carol)
	if !ms.CompleteThreshold(required, 3) {
		t.Fatal("3-of-4 reported incomplete at threshold 3")
	}
	// 3 valid signatures from the required set satisfy any m <= 3 but
	// not all-of-n.
	if !ms.CompleteThreshold(required, 1) || !ms.CompleteThreshold(required, 2) {
		t.Fatal("lower thresholds not satisfied by a larger quorum")
	}
	if ms.CompleteThreshold(required, 4) {
		t.Fatal("3-of-4 reported complete at threshold 4")
	}
	if ms.Complete(required) {
		t.Fatal("all-of-n Complete satisfied by a 3-of-4 quorum")
	}
}

func TestMultiSigCompleteThresholdOutsidersDontCount(t *testing.T) {
	alice := testKey(t, 29)
	bob := testKey(t, 30)
	mallory := testKey(t, 31)
	digest := Sum([]byte("d"))
	required := []Address{alice.Addr, bob.Addr}

	ms := NewMultiSig(digest)
	ms.Add(alice)
	ms.Add(mallory)
	if ms.CompleteThreshold(required, 2) {
		t.Fatal("signature from outside the required set counted toward quorum")
	}
	if !ms.CompleteThreshold(required, 1) {
		t.Fatal("valid required signature not counted with outsider present")
	}
}

func TestMultiSigCompleteThresholdRejectsTamperedSig(t *testing.T) {
	alice := testKey(t, 32)
	bob := testKey(t, 33)
	digest := Sum([]byte("d"))
	required := []Address{alice.Addr, bob.Addr}

	ms := NewMultiSig(digest)
	ms.Add(alice)
	ms.Add(bob)
	ms.Sigs[1].Sig[0] ^= 1
	// bob's tampered signature poisons the whole multisignature even
	// though alice alone would satisfy m=1.
	if ms.CompleteThreshold(required, 1) {
		t.Fatal("tampered signature did not poison threshold check")
	}
}

func TestMultiSigCompleteThresholdBounds(t *testing.T) {
	alice := testKey(t, 34)
	digest := Sum([]byte("d"))
	required := []Address{alice.Addr}
	ms := NewMultiSig(digest)
	ms.Add(alice)
	if ms.CompleteThreshold(required, 0) {
		t.Fatal("threshold 0 reported satisfiable")
	}
	if ms.CompleteThreshold(required, -1) {
		t.Fatal("negative threshold reported satisfiable")
	}
	if ms.CompleteThreshold(required, 2) {
		t.Fatal("threshold above len(required) reported satisfiable")
	}
	if ms.CompleteThreshold(nil, 1) {
		t.Fatal("empty required set satisfied a positive threshold")
	}
	// Duplicate addresses in required must not double-count one signer.
	dup := []Address{alice.Addr, alice.Addr}
	if ms.CompleteThreshold(dup, 2) {
		t.Fatal("duplicate required address double-counted one signature")
	}
	if !ms.CompleteThreshold(dup, 1) {
		t.Fatal("duplicate required set failed at threshold 1")
	}
}

func TestMultiSigCloneIndependent(t *testing.T) {
	alice := testKey(t, 22)
	bob := testKey(t, 23)
	digest := Sum([]byte("d"))
	m := NewMultiSig(digest)
	m.Add(alice)
	c := m.Clone()
	c.Add(bob)
	if len(m.Sigs) != 1 || len(c.Sigs) != 2 {
		t.Fatal("clone shares signature slice with original")
	}
}

func TestMultiSigCompleteRejectsTamperedSig(t *testing.T) {
	alice := testKey(t, 24)
	digest := Sum([]byte("d"))
	m := NewMultiSig(digest)
	m.Add(alice)
	m.Sigs[0].Sig[0] ^= 1
	if m.Complete([]Address{alice.Addr}) {
		t.Fatal("tampered multisig reported complete")
	}
}

func TestRandReaderDeterministic(t *testing.T) {
	mk := func() []byte {
		r := sim.NewRNG(99)
		rd := NewRandReader(r.Uint64)
		b := make([]byte, 100)
		rd.Read(b)
		return b
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RandReader not deterministic")
		}
	}
}

func TestWitnessMessageDomainSeparation(t *testing.T) {
	ms := Sum([]byte("D"))
	rd := WitnessMessage(ms, PurposeRedeem)
	rf := WitnessMessage(ms, PurposeRefund)
	if string(rd) == string(rf) {
		t.Fatal("RD and RF messages identical")
	}
	if PurposeRedeem.String() != "RD" || PurposeRefund.String() != "RF" {
		t.Fatal("purpose names wrong")
	}
	if Purpose(9).String() == "" {
		t.Fatal("unknown purpose should still render")
	}
}
