package contracts

import (
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/merkle"
	"repro/internal/sim"
	"repro/internal/vm"
)

func witnessSet(n int) ([]*crypto.KeyPair, []crypto.Address) {
	rng := sim.NewRNG(4242)
	ks := make([]*crypto.KeyPair, n)
	addrs := make([]crypto.Address, n)
	for i := range ks {
		ks[i] = crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
		addrs[i] = ks[i].Addr
	}
	return ks, addrs
}

// attest signs the batch root with the first m witness keys.
func attest(records []DecisionRecord, ks []*crypto.KeyPair, m int) crypto.MultiSig {
	ms := crypto.NewMultiSig(BatchRoot(records))
	for _, k := range ks[:m] {
		ms.Add(k)
	}
	return *ms
}

func commitArgs(records []DecisionRecord, ks []*crypto.KeyPair, m int) []byte {
	return EncodeBatchCommit(&BatchCommit{
		Records:     records,
		Root:        BatchRoot(records),
		Attestation: attest(records, ks, m),
	})
}

func batchRecords(n int) []DecisionRecord {
	records := make([]DecisionRecord, n)
	for i := range records {
		records[i] = DecisionRecord{
			SCw:      crypto.Address{byte(i + 1), 0xAA},
			Decision: WitnessRedeemAuthorized,
		}
		if i%3 == 2 {
			records[i].Decision = WitnessRefundAuthorized
		}
	}
	SortDecisionRecords(records)
	return records
}

func TestBatchWitnessInitValidation(t *testing.T) {
	_, addrs := witnessSet(4)
	ctx := testCtx("witness", crypto.Address{9}, 10, vm.Msg{}, 0)
	cases := []struct {
		name   string
		params BatchWitnessParams
	}{
		{"empty witness set", BatchWitnessParams{Threshold: 1}},
		{"zero witness address", BatchWitnessParams{Witnesses: []crypto.Address{{}}, Threshold: 1}},
		{"duplicate witness", BatchWitnessParams{Witnesses: []crypto.Address{addrs[0], addrs[0]}, Threshold: 1}},
		{"threshold zero", BatchWitnessParams{Witnesses: addrs, Threshold: 0}},
		{"threshold above n", BatchWitnessParams{Witnesses: addrs, Threshold: 5}},
	}
	for _, tc := range cases {
		var sc BatchWitnessSC
		if err := sc.Init(ctx, tc.params.Encode()); err == nil {
			t.Errorf("%s: Init accepted", tc.name)
		}
	}
	var sc BatchWitnessSC
	if err := sc.Init(ctx, BatchWitnessParams{Witnesses: addrs, Threshold: 3}.Encode()); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if len(sc.Witnesses) != 4 || sc.Threshold != 3 || sc.Decisions == nil {
		t.Fatal("init did not store witness set")
	}
}

func TestCommitBatchHappyPath(t *testing.T) {
	ks, addrs := witnessSet(4)
	ctx := testCtx("witness", crypto.Address{9}, 10, vm.Msg{}, 0)
	var sc BatchWitnessSC
	if err := sc.Init(ctx, BatchWitnessParams{Witnesses: addrs, Threshold: 3}.Encode()); err != nil {
		t.Fatal(err)
	}
	records := batchRecords(5)
	// Exactly m-of-n signatures: the all-of-n Complete would fail here,
	// which is the satellite's point.
	args := commitArgs(records, ks, 3)
	if err := sc.Call(ctx, FnCommitBatch, args); err != nil {
		t.Fatalf("commit_batch: %v", err)
	}
	if len(sc.Decisions) != len(records) {
		t.Fatalf("recorded %d decisions, want %d", len(sc.Decisions), len(records))
	}
	for _, r := range records {
		if got, ok := sc.Decisions[r.SCw]; !ok || got != r.Decision {
			t.Fatalf("decision for %s = %s, want %s", r.SCw, got, r.Decision)
		}
	}
	// Idempotent overlap: a republished batch re-recording the same
	// decisions must succeed.
	if err := sc.Call(ctx, FnCommitBatch, args); err != nil {
		t.Fatalf("idempotent re-commit rejected: %v", err)
	}
}

func TestCommitBatchRejections(t *testing.T) {
	ks, addrs := witnessSet(4)
	ctx := testCtx("witness", crypto.Address{9}, 10, vm.Msg{}, 0)
	newSC := func() *BatchWitnessSC {
		var sc BatchWitnessSC
		if err := sc.Init(ctx, BatchWitnessParams{Witnesses: addrs, Threshold: 3}.Encode()); err != nil {
			t.Fatal(err)
		}
		return &sc
	}
	records := batchRecords(4)

	t.Run("empty decision set", func(t *testing.T) {
		if newSC().Call(ctx, FnCommitBatch, commitArgs(nil, ks, 3)) == nil {
			t.Fatal("empty batch accepted")
		}
	})
	t.Run("below threshold", func(t *testing.T) {
		if newSC().Call(ctx, FnCommitBatch, commitArgs(records, ks, 2)) == nil {
			t.Fatal("2-of-4 attestation accepted at threshold 3")
		}
	})
	t.Run("non-canonical order", func(t *testing.T) {
		rev := append([]DecisionRecord(nil), records...)
		rev[0], rev[1] = rev[1], rev[0]
		args := EncodeBatchCommit(&BatchCommit{Records: rev, Root: BatchRoot(rev), Attestation: attest(rev, ks, 3)})
		if newSC().Call(ctx, FnCommitBatch, args) == nil {
			t.Fatal("out-of-order records accepted")
		}
	})
	t.Run("duplicate SCw", func(t *testing.T) {
		dup := append([]DecisionRecord(nil), records...)
		dup[1] = dup[0]
		args := EncodeBatchCommit(&BatchCommit{Records: dup, Root: BatchRoot(dup), Attestation: attest(dup, ks, 3)})
		if newSC().Call(ctx, FnCommitBatch, args) == nil {
			t.Fatal("duplicate SCw accepted")
		}
	})
	// Miners exclude failing calls, so a mined batch holds at most one
	// record per SCw: the one a participant's batch evidence proves.
	t.Run("one SCw with both decisions", func(t *testing.T) {
		both := append([]DecisionRecord(nil), records...)
		both[0].Decision = WitnessRedeemAuthorized
		both[1] = DecisionRecord{SCw: both[0].SCw, Decision: WitnessRefundAuthorized}
		args := EncodeBatchCommit(&BatchCommit{Records: both, Root: BatchRoot(both), Attestation: attest(both, ks, 3)})
		if newSC().Call(ctx, FnCommitBatch, args) == nil {
			t.Fatal("RDauth and RFauth for one SCw accepted in one batch")
		}
	})
	t.Run("wrong root", func(t *testing.T) {
		bad := &BatchCommit{Records: records, Root: crypto.Sum([]byte("other")), Attestation: attest(records, ks, 3)}
		bad.Attestation = *crypto.NewMultiSig(bad.Root)
		for _, k := range ks[:3] {
			bad.Attestation.Add(k)
		}
		if newSC().Call(ctx, FnCommitBatch, EncodeBatchCommit(bad)) == nil {
			t.Fatal("mismatched root accepted")
		}
	})
	t.Run("attestation over wrong digest", func(t *testing.T) {
		ms := crypto.NewMultiSig(crypto.Sum([]byte("not the root")))
		for _, k := range ks[:3] {
			ms.Add(k)
		}
		bad := &BatchCommit{Records: records, Root: BatchRoot(records), Attestation: *ms}
		if newSC().Call(ctx, FnCommitBatch, EncodeBatchCommit(bad)) == nil {
			t.Fatal("attestation over a different digest accepted")
		}
	})
	t.Run("outsider signatures dont count", func(t *testing.T) {
		outsiders, _ := witnessSet(2)
		ms := crypto.NewMultiSig(BatchRoot(records))
		ms.Add(ks[0])
		ms.Add(ks[1])
		// witnessSet is deterministic, so re-derive distinct outsiders.
		rng := sim.NewRNG(777777)
		for range outsiders {
			ms.Add(crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64)))
		}
		bad := &BatchCommit{Records: records, Root: BatchRoot(records), Attestation: *ms}
		if newSC().Call(ctx, FnCommitBatch, EncodeBatchCommit(bad)) == nil {
			t.Fatal("outsider signatures counted toward the quorum")
		}
	})
	t.Run("non-decision state", func(t *testing.T) {
		bad := append([]DecisionRecord(nil), records...)
		bad[2].Decision = WitnessPublished
		args := EncodeBatchCommit(&BatchCommit{Records: bad, Root: BatchRoot(bad), Attestation: attest(bad, ks, 3)})
		if newSC().Call(ctx, FnCommitBatch, args) == nil {
			t.Fatal("P state accepted as a decision")
		}
	})
	t.Run("unknown function", func(t *testing.T) {
		if newSC().Call(ctx, "authorize_redeem", nil) == nil {
			t.Fatal("unknown function accepted")
		}
	})
}

func TestCommitBatchConflictRejectsWholeBatch(t *testing.T) {
	ks, addrs := witnessSet(4)
	ctx := testCtx("witness", crypto.Address{9}, 10, vm.Msg{}, 0)
	var sc BatchWitnessSC
	if err := sc.Init(ctx, BatchWitnessParams{Witnesses: addrs, Threshold: 3}.Encode()); err != nil {
		t.Fatal(err)
	}
	first := []DecisionRecord{{SCw: crypto.Address{1}, Decision: WitnessRedeemAuthorized}}
	if err := sc.Call(ctx, FnCommitBatch, commitArgs(first, ks, 3)); err != nil {
		t.Fatal(err)
	}
	// Second batch flips the decision for SCw {1} and adds a fresh
	// record; the conflict must reject BOTH.
	second := []DecisionRecord{
		{SCw: crypto.Address{1}, Decision: WitnessRefundAuthorized},
		{SCw: crypto.Address{2}, Decision: WitnessRedeemAuthorized},
	}
	SortDecisionRecords(second)
	err := sc.Call(ctx, FnCommitBatch, commitArgs(second, ks, 3))
	if err == nil {
		t.Fatal("conflicting batch accepted")
	}
	if !strings.Contains(err.Error(), "conflict") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, leaked := sc.Decisions[crypto.Address{2}]; leaked {
		t.Fatal("partial batch applied despite conflict")
	}
	if sc.Decisions[crypto.Address{1}] != WitnessRedeemAuthorized {
		t.Fatal("recorded decision mutated by rejected batch")
	}
}

func TestBatchWitnessCloneIndependent(t *testing.T) {
	ks, addrs := witnessSet(4)
	ctx := testCtx("witness", crypto.Address{9}, 10, vm.Msg{}, 0)
	var sc BatchWitnessSC
	if err := sc.Init(ctx, BatchWitnessParams{Witnesses: addrs, Threshold: 3}.Encode()); err != nil {
		t.Fatal(err)
	}
	cp := sc.Clone().(*BatchWitnessSC)
	records := batchRecords(2)
	if err := cp.Call(ctx, FnCommitBatch, commitArgs(records, ks, 3)); err != nil {
		t.Fatal(err)
	}
	if len(sc.Decisions) != 0 {
		t.Fatal("clone shares decision map with original")
	}
}

// TestBatchedPermissionlessRedeem drives the full batched evidence
// path on real chains: a commit_batch transaction buried on the
// witness chain plus a membership proof unlocks the asset contract,
// and the same evidence cannot unlock the opposite direction.
func TestBatchedPermissionlessRedeem(t *testing.T) {
	ksW, addrsW := witnessSet(4)
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"witness", "eth"}, alice, bob)

	// Deploy the batch contract on the witness chain.
	batchDep := w.deploy("witness", alice, TypeBatchWitness,
		BatchWitnessParams{Witnesses: addrsW, Threshold: 3}.Encode(), 0)
	batchAddr := batchDep.ContractAddr()

	// Asset contract conditioned on the batch contract. SCw is a
	// protocol-level identifier here; the batched path never reads its
	// state, only its address inside the committed leaf.
	scw := crypto.Address{0xC0, 0xFF, 0xEE}
	wGen := genesis(w.chains["witness"]).Header.Encode()
	dep := w.deploy("eth", alice, TypePermissionless, PermissionlessParams{
		Recipient:         bob.Addr,
		WitnessChain:      "witness",
		WitnessCheckpoint: wGen,
		SCw:               scw,
		Depth:             2,
		Batch:             batchAddr,
	}.Encode(), 5_000)
	assetAddr := dep.ContractAddr()

	// Commit a batch deciding RD for scw (among others), bury it.
	records := []DecisionRecord{
		{SCw: scw, Decision: WitnessRedeemAuthorized},
		{SCw: crypto.Address{0x01}, Decision: WitnessRefundAuthorized},
		{SCw: crypto.Address{0xFE}, Decision: WitnessRedeemAuthorized},
	}
	SortDecisionRecords(records)
	commitTx := w.call("witness", alice, batchAddr, FnCommitBatch, commitArgs(records, ksW, 3), true)
	w.mineEmpty("witness", 3)

	// Evidence: SPV of the commit tx, membership proof of our leaf and
	// the commit's arguments, which the SPV's id form proves by digest.
	leaves := BatchLeaves(records)
	idx := -1
	for i, r := range records {
		if r.SCw == scw {
			idx = i
		}
	}
	proof, err := merkle.Prove(leaves, idx)
	if err != nil {
		t.Fatal(err)
	}
	ev := w.evidenceFor("witness", commitTx.ID(), 2)
	redeemArgs := rawList(ev, proof.Encode(), commitTx.Args)

	// The committed decision is RD: refund must fail, redeem must pay.
	w.call("eth", alice, assetAddr, FnRefund, redeemArgs, false)
	w.call("eth", bob, assetAddr, FnRedeem, redeemArgs, true)
	sc := w.contractState("eth", assetAddr).(*PermissionlessSC)
	if sc.State != StateRedeemed {
		t.Fatalf("state = %s, want RD", sc.State)
	}
	if got := w.balanceOf("eth", bob); got != 1_000_000+5_000 {
		t.Fatalf("bob balance = %d", got)
	}
}

// TestBatchedPermissionlessRejectsForgedProof checks the membership
// proof actually gates the unlock: a proof for a different leaf or a
// tampered sibling path must not verify.
func TestBatchedPermissionlessRejectsForgedProof(t *testing.T) {
	ksW, addrsW := witnessSet(4)
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"witness", "eth"}, alice, bob)

	batchDep := w.deploy("witness", alice, TypeBatchWitness,
		BatchWitnessParams{Witnesses: addrsW, Threshold: 3}.Encode(), 0)
	batchAddr := batchDep.ContractAddr()

	scw := crypto.Address{0xC0, 0xFF, 0xEE}
	other := crypto.Address{0x01}
	wGen := genesis(w.chains["witness"]).Header.Encode()
	dep := w.deploy("eth", alice, TypePermissionless, PermissionlessParams{
		Recipient:         bob.Addr,
		WitnessChain:      "witness",
		WitnessCheckpoint: wGen,
		SCw:               scw,
		Depth:             2,
		Batch:             batchAddr,
	}.Encode(), 5_000)
	assetAddr := dep.ContractAddr()

	// The batch decides RD for *other*, not for scw.
	records := []DecisionRecord{{SCw: other, Decision: WitnessRedeemAuthorized}}
	commitTx := w.call("witness", alice, batchAddr, FnCommitBatch, commitArgs(records, ksW, 3), true)
	w.mineEmpty("witness", 3)

	ev := w.evidenceFor("witness", commitTx.ID(), 2)
	proof, err := merkle.Prove(BatchLeaves(records), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The only committed leaf belongs to a different SCw: VerifyData
	// recomputes our leaf payload and must reject.
	w.call("eth", bob, assetAddr, FnRedeem, rawList(ev, proof.Encode(), commitTx.Args), false)

	// Arguments that are not the proven call's cannot stand in for it:
	// a batch root that does hold scw's leaf, revealed beside the proof
	// of a commit that does not.
	mine := []DecisionRecord{{SCw: scw, Decision: WitnessRedeemAuthorized}}
	forged, err := merkle.Prove(BatchLeaves(mine), 0)
	if err != nil {
		t.Fatal(err)
	}
	w.call("eth", bob, assetAddr, FnRedeem, rawList(ev, forged.Encode(), commitArgs(mine, ksW, 3)), false)

	// Malformed evidence shapes fail cleanly too.
	w.call("eth", bob, assetAddr, FnRedeem, rawList(ev, proof.Encode()), false)
	w.call("eth", bob, assetAddr, FnRedeem, rawList(ev), false)
	w.call("eth", bob, assetAddr, FnRedeem, ev, false)
	sc := w.contractState("eth", assetAddr).(*PermissionlessSC)
	if sc.State != StatePublished {
		t.Fatalf("state = %s, want P", sc.State)
	}
}

// TestAuthorizeRedeemRejectsBatchBoundDeployment: SCw's authorize_redeem
// runs only in the unbatched protocol, so a deployment that names a
// batch contract cannot prove an edge. Otherwise A could condition her
// contract on a batch contract she controls alone, let SCw reach RDauth,
// redeem B's 90k with SCw's evidence and refund her own 40k through her
// batch: an atomicity violation.
func TestAuthorizeRedeemRejectsBatchBoundDeployment(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc", "eth", "witness"}, alice, bob)
	g, err := graph.TwoParty(1, alice.Addr, bob.Addr, assetX, "btc", assetY, "eth")
	if err != nil {
		t.Fatal(err)
	}
	scw := w.deploy("witness", alice, TypeWitness, WitnessParams{
		Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *multisig(g.Digest(), alice, bob),
		Checkpoints: []ChainCheckpoint{
			{Chain: "btc", Header: genesis(w.chains["btc"]).Header.Encode(), EvidenceDepth: 1},
			{Chain: "eth", Header: genesis(w.chains["eth"]).Header.Encode(), EvidenceDepth: 1},
		},
		WitnessDepth: 1,
	}.Encode(), 0).ContractAddr()
	// A's own batch contract: she is its one witness.
	mine := w.deploy("witness", alice, TypeBatchWitness,
		BatchWitnessParams{Witnesses: []crypto.Address{alice.Addr}, Threshold: 1}.Encode(), 0).ContractAddr()
	params := func(to, batch crypto.Address) []byte {
		return PermissionlessParams{
			Recipient: to, WitnessChain: "witness",
			WitnessCheckpoint: genesis(w.chains["witness"]).Header.Encode(), SCw: scw, Depth: 1, Batch: batch,
		}.Encode()
	}
	sc1 := w.deploy("btc", alice, TypePermissionless, params(bob.Addr, mine), assetX)
	sc2 := w.deploy("eth", bob, TypePermissionless, params(alice.Addr, crypto.Address{}), assetY)
	w.mineEmpty("btc", 1)
	w.mineEmpty("eth", 1)

	evs := rawList(w.evidenceFor("btc", sc1.ID(), 1), w.evidenceFor("eth", sc2.ID(), 1))
	w.call("witness", bob, scw, FnAuthorizeRedeem, evs, false)

	// The AC2T can still abort, and does so atomically: SCw's RFauth
	// refunds B, A's batch refunds A.
	abort := w.call("witness", bob, scw, FnAuthorizeRefund, nil, true)
	records := []DecisionRecord{{SCw: scw, Decision: WitnessRefundAuthorized}}
	commit := w.call("witness", alice, mine, FnCommitBatch, commitArgs(records, []*crypto.KeyPair{alice}, 1), true)
	w.mineEmpty("witness", 1)
	proof, err := merkle.Prove(BatchLeaves(records), 0)
	if err != nil {
		t.Fatal(err)
	}
	w.call("eth", bob, sc2.ContractAddr(), FnRefund, w.evidenceFor("witness", abort.ID(), 1), true)
	w.call("btc", alice, sc1.ContractAddr(), FnRefund, rawList(w.evidenceFor("witness", commit.ID(), 1), proof.Encode(), commit.Args), true)
	if a, b := w.balanceOf("btc", alice), w.balanceOf("eth", bob); a != 1_000_000 || b != 1_000_000 {
		t.Fatalf("after the abort A holds %d btc, B %d eth; want both refunded", a, b)
	}
}
