package contracts

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/spv"
	"repro/internal/vm"
	"repro/internal/wire"
)

// world is a multi-chain single-view test harness: one chain view per
// blockchain, mined manually, with funded keys shared across chains.
type world struct {
	t      *testing.T
	rng    *sim.RNG
	now    sim.Time
	chains map[chain.ID]*chain.Chain
	miner  *crypto.KeyPair // coinbase recipient, distinct from principals
	nonce  uint64
}

func newWorld(t *testing.T, ids []chain.ID, funded ...*crypto.KeyPair) *world {
	t.Helper()
	minerRng := sim.NewRNG(31337)
	w := &world{
		t: t, rng: sim.NewRNG(777), chains: make(map[chain.ID]*chain.Chain),
		miner: crypto.MustGenerateKey(crypto.NewRandReader(minerRng.Uint64)),
	}
	alloc := chain.GenesisAlloc{}
	for _, k := range funded {
		alloc[k.Addr] = 1_000_000
	}
	for _, id := range ids {
		params := chain.DefaultParams(id)
		params.DifficultyBits = 8
		reg := vm.NewRegistry()
		RegisterAll(reg)
		exec, err := chain.NewExecutor(params, reg, alloc)
		if err != nil {
			t.Fatal(err)
		}
		w.chains[id] = exec.NewView()
	}
	return w
}

func keys(n int) []*crypto.KeyPair {
	rng := sim.NewRNG(555)
	out := make([]*crypto.KeyPair, n)
	for i := range out {
		out[i] = crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	}
	return out
}

// mine adds one block with txs to the given chain; all must be valid.
func (w *world) mine(id chain.ID, txs ...*chain.Tx) *chain.Block {
	w.t.Helper()
	c := w.chains[id]
	w.now += 10 * sim.Second
	b, _, invalid := c.BuildBlock(w.miner.Addr, w.now, txs)
	if len(invalid) > 0 || len(b.Txs) != len(txs)+1 {
		w.t.Fatalf("mine on %s: %d invalid, %d packed (want %d)", id, len(invalid), len(b.Txs), len(txs)+1)
	}
	b.Header.Seal(w.rng.Uint64())
	if _, err := c.AddBlock(b); err != nil {
		w.t.Fatalf("mine on %s: %v", id, err)
	}
	return b
}

// mineEmpty mines n empty blocks (to bury transactions).
func (w *world) mineEmpty(id chain.ID, n int) {
	for i := 0; i < n; i++ {
		w.mine(id)
	}
}

// fund selects one UTXO of key worth at least amt on the chain.
func (w *world) fund(id chain.ID, key *crypto.KeyPair, amt vm.Amount) (chain.TxIn, vm.Amount) {
	w.t.Helper()
	for _, o := range w.chains[id].TipState().AppendOwned(nil, key.Addr) {
		if o.Out.Value >= amt {
			return chain.TxIn{Prev: o.Op}, o.Out.Value - amt
		}
	}
	w.t.Fatalf("%s lacks %d on %s", key.Addr, amt, id)
	return chain.TxIn{}, 0
}

// deploy builds, mines, and returns a deployment transaction.
func (w *world) deploy(id chain.ID, key *crypto.KeyPair, typ string, params []byte, value vm.Amount) *chain.Tx {
	w.t.Helper()
	var ins []chain.TxIn
	var outs []chain.TxOut
	if value > 0 {
		in, change := w.fund(id, key, value)
		ins = append(ins, in)
		if change > 0 {
			outs = append(outs, chain.TxOut{Value: change, Owner: key.Addr})
		}
	}
	w.nonce++
	tx := chain.NewDeploy(key, w.nonce, ins, outs, typ, params, value)
	w.mine(id, tx)
	return tx
}

// call builds and mines a contract call; expectOK controls whether
// the call must be packed or rejected.
func (w *world) call(id chain.ID, key *crypto.KeyPair, contract crypto.Address, fn string, args []byte, expectOK bool) *chain.Tx {
	w.t.Helper()
	w.nonce++
	tx := chain.NewCall(key, w.nonce, contract, fn, args, nil, nil, 0)
	c := w.chains[id]
	w.now += 10 * sim.Second
	b, _, invalid := c.BuildBlock(w.miner.Addr, w.now, []*chain.Tx{tx})
	ok := len(invalid) == 0 && len(b.Txs) == 2
	if ok != expectOK {
		w.t.Fatalf("call %s on %s: packed=%v, want %v (invalid=%d)", fn, id, ok, expectOK, len(invalid))
	}
	b.Header.Seal(w.rng.Uint64())
	if _, err := c.AddBlock(b); err != nil {
		w.t.Fatalf("call %s: %v", fn, err)
	}
	return tx
}

// contractState reads a contract from the tip.
func (w *world) contractState(id chain.ID, addr crypto.Address) vm.Contract {
	w.t.Helper()
	c, ok := w.chains[id].TipState().Contract(addr)
	if !ok {
		w.t.Fatalf("no contract %s on %s", addr, id)
	}
	return c
}

// balanceOf sums key's UTXOs on a chain.
func (w *world) balanceOf(id chain.ID, key *crypto.KeyPair) vm.Amount {
	var total vm.Amount
	for _, o := range w.chains[id].TipState().AppendOwned(nil, key.Addr) {
		total += o.Out.Value
	}
	return total
}

// evidenceFor builds encoded SPV evidence for a tx anchored at the
// chain's genesis.
func (w *world) evidenceFor(id chain.ID, txID crypto.Hash, minDepth int) []byte {
	w.t.Helper()
	c := w.chains[id]
	ev, err := spv.Build(c, genesis(c).Hash(), txID, minDepth)
	if err != nil {
		w.t.Fatalf("evidence on %s: %v", id, err)
	}
	return ev.Encode()
}

// --- HTLC ---

func TestHTLCRedeemHappyPath(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc"}, alice, bob)

	secret := []byte("nolan-secret")
	params := HTLCParams{
		Recipient: bob.Addr,
		Hashlock:  crypto.Sum(secret),
		Timelock:  int64(2 * sim.Hour),
	}.Encode()
	dep := w.deploy("btc", alice, TypeHTLC, params, 5_000)
	addr := dep.ContractAddr()

	w.call("btc", bob, addr, FnRedeem, secret, true)
	h := w.contractState("btc", addr).(*HTLC)
	if h.State != StateRedeemed {
		t.Fatalf("state = %s, want RD", h.State)
	}
	if got := w.balanceOf("btc", bob); got != 1_000_000+5_000 {
		t.Fatalf("bob balance = %d", got)
	}
}

func TestHTLCWrongSecretRejected(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc"}, alice, bob)
	params := HTLCParams{
		Recipient: bob.Addr,
		Hashlock:  crypto.Sum([]byte("right")),
		Timelock:  int64(2 * sim.Hour),
	}.Encode()
	dep := w.deploy("btc", alice, TypeHTLC, params, 5_000)
	w.call("btc", bob, dep.ContractAddr(), FnRedeem, []byte("wrong"), false)
}

func TestHTLCRefundOnlyAfterTimelock(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc"}, alice, bob)
	params := HTLCParams{
		Recipient: bob.Addr,
		Hashlock:  crypto.Sum([]byte("s")),
		Timelock:  int64(5 * sim.Minute),
	}.Encode()
	dep := w.deploy("btc", alice, TypeHTLC, params, 5_000)
	addr := dep.ContractAddr()

	// Too early.
	w.call("btc", alice, addr, FnRefund, nil, false)
	// Let virtual block time pass the timelock.
	w.mineEmpty("btc", 40) // 40 blocks * 10s > 5 minutes
	w.call("btc", alice, addr, FnRefund, nil, true)
	if got := w.contractState("btc", addr).(*HTLC).State; got != StateRefunded {
		t.Fatalf("state = %s, want RF", got)
	}
	if got := w.balanceOf("btc", alice); got != 1_000_000 {
		t.Fatalf("alice balance = %d after refund, want restored", got)
	}
}

func TestHTLCRedeemAfterExpiryRejected(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc"}, alice, bob)
	secret := []byte("s")
	params := HTLCParams{
		Recipient: bob.Addr,
		Hashlock:  crypto.Sum(secret),
		Timelock:  int64(5 * sim.Minute),
	}.Encode()
	dep := w.deploy("btc", alice, TypeHTLC, params, 5_000)
	w.mineEmpty("btc", 40)
	// This is the paper's Section 1 hazard: Bob is late (crash,
	// delay) and the contract refuses the valid secret.
	w.call("btc", bob, dep.ContractAddr(), FnRedeem, secret, false)
}

func TestHTLCNoDoubleSpendAcrossOutcomes(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc"}, alice, bob)
	secret := []byte("s")
	params := HTLCParams{
		Recipient: bob.Addr,
		Hashlock:  crypto.Sum(secret),
		Timelock:  int64(1 * sim.Hour),
	}.Encode()
	dep := w.deploy("btc", alice, TypeHTLC, params, 5_000)
	addr := dep.ContractAddr()
	w.call("btc", bob, addr, FnRedeem, secret, true)
	// Second redeem and any refund must fail.
	w.call("btc", bob, addr, FnRedeem, secret, false)
	w.mineEmpty("btc", 400)
	w.call("btc", alice, addr, FnRefund, nil, false)
}

func TestHTLCInitValidation(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	ctx := testCtx("btc", crypto.Address{1}, 100, vm.Msg{Sender: alice.Addr, Value: 10}, 10)
	h := &HTLC{}
	if err := h.Init(ctx, HTLCParams{Recipient: bob.Addr, Timelock: 50}.Encode()); err == nil {
		t.Fatal("past timelock accepted")
	}
	if err := h.Init(ctx, HTLCParams{Timelock: 500}.Encode()); err == nil {
		t.Fatal("zero recipient accepted")
	}
	noValue := testCtx("btc", crypto.Address{1}, 100, vm.Msg{Sender: alice.Addr}, 0)
	if err := h.Init(noValue, HTLCParams{Recipient: bob.Addr, Timelock: 500}.Encode()); err == nil {
		t.Fatal("zero-value HTLC accepted")
	}
	if err := h.Init(ctx, []byte("garbage")); err == nil {
		t.Fatal("garbage params accepted")
	}
}

// --- CentralizedSC (AC3TW, Algorithm 2) ---

func TestCentralizedRedeemWithTrentSignature(t *testing.T) {
	ks := keys(3)
	alice, bob, trent := ks[0], ks[1], ks[2]
	w := newWorld(t, []chain.ID{"btc"}, alice, bob)

	ms := crypto.Sum([]byte("ms(D)"))
	params := CentralizedParams{Recipient: bob.Addr, MSDigest: ms, Witness: trent.Addr}.Encode()
	dep := w.deploy("btc", alice, TypeCentralized, params, 7_000)
	addr := dep.ContractAddr()

	rd := crypto.EncodeSignature(trent.Sign(crypto.WitnessMessage(ms, crypto.PurposeRedeem)))
	w.call("btc", bob, addr, FnRedeem, rd, true)
	if got := w.contractState("btc", addr).(*CentralizedSC).State; got != StateRedeemed {
		t.Fatalf("state = %s", got)
	}
	if got := w.balanceOf("btc", bob); got != 1_000_000+7_000 {
		t.Fatalf("bob balance = %d", got)
	}
}

func TestCentralizedCrossSignaturesRejected(t *testing.T) {
	ks := keys(3)
	alice, bob, trent := ks[0], ks[1], ks[2]
	w := newWorld(t, []chain.ID{"btc"}, alice, bob)
	ms := crypto.Sum([]byte("ms(D)"))
	params := CentralizedParams{Recipient: bob.Addr, MSDigest: ms, Witness: trent.Addr}.Encode()
	dep := w.deploy("btc", alice, TypeCentralized, params, 7_000)
	addr := dep.ContractAddr()

	rf := crypto.EncodeSignature(trent.Sign(crypto.WitnessMessage(ms, crypto.PurposeRefund)))
	// A refund signature cannot redeem…
	w.call("btc", bob, addr, FnRedeem, rf, false)
	// …but it does refund.
	w.call("btc", alice, addr, FnRefund, rf, true)
	if got := w.contractState("btc", addr).(*CentralizedSC).State; got != StateRefunded {
		t.Fatalf("state = %s", got)
	}
	// After refund, a legitimate redeem signature is useless: mutual
	// exclusion at the contract level.
	rd := crypto.EncodeSignature(trent.Sign(crypto.WitnessMessage(ms, crypto.PurposeRedeem)))
	w.call("btc", bob, addr, FnRedeem, rd, false)
}

func TestCentralizedForgedWitnessRejected(t *testing.T) {
	ks := keys(4)
	alice, bob, trent, mallory := ks[0], ks[1], ks[2], ks[3]
	w := newWorld(t, []chain.ID{"btc"}, alice, bob)
	ms := crypto.Sum([]byte("ms(D)"))
	params := CentralizedParams{Recipient: bob.Addr, MSDigest: ms, Witness: trent.Addr}.Encode()
	dep := w.deploy("btc", alice, TypeCentralized, params, 7_000)
	forged := crypto.EncodeSignature(mallory.Sign(crypto.WitnessMessage(ms, crypto.PurposeRedeem)))
	w.call("btc", bob, dep.ContractAddr(), FnRedeem, forged, false)
}

// --- WitnessSC + PermissionlessSC end-to-end (Algorithms 3 & 4) ---

// ac3wnFixture wires the full two-party AC3WN contract set across
// three chains (two asset chains plus a witness chain).
type ac3wnFixture struct {
	w            *world
	alice, bob   *crypto.KeyPair
	g            *graph.Graph
	scwAddr      crypto.Address
	sc1Addr      crypto.Address // alice's contract on "btc" (X to bob)
	sc2Addr      crypto.Address // bob's contract on "eth" (Y to alice)
	sc1Tx, sc2Tx *chain.Tx
	witnessDepth int
	assetDepth   int
}

const (
	assetX = vm.Amount(40_000) // alice → bob on btc
	assetY = vm.Amount(90_000) // bob → alice on eth
)

func newAC3WNFixture(t *testing.T) *ac3wnFixture {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc", "eth", "witness"}, alice, bob)
	f := &ac3wnFixture{w: w, alice: alice, bob: bob, witnessDepth: 2, assetDepth: 2}

	g, err := graph.TwoParty(1, alice.Addr, bob.Addr, assetX, "btc", assetY, "eth")
	if err != nil {
		t.Fatal(err)
	}
	f.g = g

	// Step 1–2: multisign the graph, register it in SCw on the
	// witness network.
	ms := multisig(g.Digest(), alice, bob)
	wp := WitnessParams{
		Edges:     g.Edges,
		Timestamp: g.Timestamp,
		Multisig:  *ms,
		Checkpoints: []ChainCheckpoint{
			{Chain: "btc", Header: genesis(w.chains["btc"]).Header.Encode(), EvidenceDepth: f.assetDepth},
			{Chain: "eth", Header: genesis(w.chains["eth"]).Header.Encode(), EvidenceDepth: f.assetDepth},
		},
		WitnessDepth: f.witnessDepth,
	}
	scwTx := w.deploy("witness", alice, TypeWitness, wp.Encode(), 0)
	f.scwAddr = scwTx.ContractAddr()

	// Step 3–4: both participants deploy their asset contracts
	// concurrently (no ordering requirement — the paper's latency
	// win).
	witnessCp := genesis(w.chains["witness"]).Header.Encode()
	p1 := PermissionlessParams{
		Recipient: bob.Addr, WitnessChain: "witness",
		WitnessCheckpoint: witnessCp, SCw: f.scwAddr, Depth: f.witnessDepth,
	}.Encode()
	f.sc1Tx = w.deploy("btc", alice, TypePermissionless, p1, assetX)
	f.sc1Addr = f.sc1Tx.ContractAddr()

	p2 := PermissionlessParams{
		Recipient: alice.Addr, WitnessChain: "witness",
		WitnessCheckpoint: witnessCp, SCw: f.scwAddr, Depth: f.witnessDepth,
	}.Encode()
	f.sc2Tx = w.deploy("eth", bob, TypePermissionless, p2, assetY)
	f.sc2Addr = f.sc2Tx.ContractAddr()

	// Bury the deployments to the agreed evidence depth.
	w.mineEmpty("btc", f.assetDepth)
	w.mineEmpty("eth", f.assetDepth)
	return f
}

// deployEvidence builds the per-edge evidence list for
// authorize_redeem. Edge order must match g.Edges.
func (f *ac3wnFixture) deployEvidence(t *testing.T) []byte {
	t.Helper()
	var evs [][]byte
	for _, e := range f.g.Edges {
		switch e.Chain {
		case "btc":
			evs = append(evs, f.w.evidenceFor("btc", f.sc1Tx.ID(), f.assetDepth))
		case "eth":
			evs = append(evs, f.w.evidenceFor("eth", f.sc2Tx.ID(), f.assetDepth))
		default:
			t.Fatalf("unexpected chain %s", e.Chain)
		}
	}
	return rawList(evs...)
}

func TestAC3WNCommitFlow(t *testing.T) {
	f := newAC3WNFixture(t)
	w := f.w

	// Step 5: authorize redemption with evidence of both deployments.
	authTx := w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, f.deployEvidence(t), true)
	if got := w.contractState("witness", f.scwAddr).(*WitnessSC).State; got != WitnessRedeemAuthorized {
		t.Fatalf("SCw state = %s, want RDauth", got)
	}
	// Bury the state change d deep.
	w.mineEmpty("witness", f.witnessDepth)

	// Step 5 cont.: both sides redeem with the commit evidence.
	commitEv := w.evidenceFor("witness", authTx.ID(), f.witnessDepth)
	w.call("btc", f.bob, f.sc1Addr, FnRedeem, commitEv, true)
	w.call("eth", f.alice, f.sc2Addr, FnRedeem, commitEv, true)

	if got := w.balanceOf("btc", f.bob); got != 1_000_000+assetX {
		t.Fatalf("bob btc balance = %d", got)
	}
	if got := w.balanceOf("eth", f.alice); got != 1_000_000+assetY {
		t.Fatalf("alice eth balance = %d", got)
	}
	// Refunds are now impossible on both contracts (mutual exclusion
	// propagated from SCw).
	w.mineEmpty("witness", 1)
	refundEv := commitEv // even with valid-format evidence, state is RD
	w.call("btc", f.alice, f.sc1Addr, FnRefund, refundEv, false)
}

func TestAC3WNAbortFlow(t *testing.T) {
	f := newAC3WNFixture(t)
	w := f.w

	// A participant aborts: authorize_refund needs no evidence.
	abortTx := w.call("witness", f.alice, f.scwAddr, FnAuthorizeRefund, nil, true)
	if got := w.contractState("witness", f.scwAddr).(*WitnessSC).State; got != WitnessRefundAuthorized {
		t.Fatalf("SCw state = %s, want RFauth", got)
	}
	w.mineEmpty("witness", f.witnessDepth)

	abortEv := w.evidenceFor("witness", abortTx.ID(), f.witnessDepth)
	w.call("btc", f.alice, f.sc1Addr, FnRefund, abortEv, true)
	w.call("eth", f.bob, f.sc2Addr, FnRefund, abortEv, true)

	if got := w.balanceOf("btc", f.alice); got != 1_000_000 {
		t.Fatalf("alice btc balance = %d, want fully refunded", got)
	}
	if got := w.balanceOf("eth", f.bob); got != 1_000_000 {
		t.Fatalf("bob eth balance = %d, want fully refunded", got)
	}
	// Redeems are impossible: abort evidence cannot redeem, and SCw
	// can never reach RDauth.
	w.call("btc", f.bob, f.sc1Addr, FnRedeem, abortEv, false)
	w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, f.deployEvidence(t), false)
}

func TestWitnessStateTransitionsAreExclusive(t *testing.T) {
	f := newAC3WNFixture(t)
	w := f.w
	w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, f.deployEvidence(t), true)
	// RDauth → RFauth is forbidden (Lemma 5.1's core invariant).
	w.call("witness", f.alice, f.scwAddr, FnAuthorizeRefund, nil, false)
	// And authorize_redeem is not repeatable.
	w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, f.deployEvidence(t), false)
}

func TestAuthorizeRedeemRejectsBadEvidence(t *testing.T) {
	f := newAC3WNFixture(t)
	w := f.w

	// Missing one contract's evidence.
	one := rawList(w.evidenceFor("btc", f.sc1Tx.ID(), f.assetDepth))
	w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, one, false)

	// Swapped order: evidence must match edge order; the btc edge
	// cannot be proven by eth evidence.
	swapped := rawList(
		w.evidenceFor("eth", f.sc2Tx.ID(), f.assetDepth),
		w.evidenceFor("btc", f.sc1Tx.ID(), f.assetDepth),
	)
	w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, swapped, false)

	// Garbage.
	w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, []byte("junk"), false)
}

func TestAuthorizeRedeemRejectsMismatchedContract(t *testing.T) {
	// Deploy a contract with the wrong asset amount; its evidence
	// must not authorize redemption.
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc", "eth", "witness"}, alice, bob)
	g, _ := graph.TwoParty(1, alice.Addr, bob.Addr, assetX, "btc", assetY, "eth")
	ms := multisig(g.Digest(), alice, bob)
	wp := WitnessParams{
		Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *ms,
		Checkpoints: []ChainCheckpoint{
			{Chain: "btc", Header: genesis(w.chains["btc"]).Header.Encode(), EvidenceDepth: 1},
			{Chain: "eth", Header: genesis(w.chains["eth"]).Header.Encode(), EvidenceDepth: 1},
		},
		WitnessDepth: 1,
	}
	scw := w.deploy("witness", alice, TypeWitness, wp.Encode(), 0)
	witnessCp := genesis(w.chains["witness"]).Header.Encode()

	// Alice locks the WRONG amount (half of what the edge says).
	p1 := PermissionlessParams{
		Recipient: bob.Addr, WitnessChain: "witness",
		WitnessCheckpoint: witnessCp, SCw: scw.ContractAddr(), Depth: 1,
	}.Encode()
	sc1 := w.deploy("btc", alice, TypePermissionless, p1, assetX/2)
	p2 := PermissionlessParams{
		Recipient: alice.Addr, WitnessChain: "witness",
		WitnessCheckpoint: witnessCp, SCw: scw.ContractAddr(), Depth: 1,
	}.Encode()
	sc2 := w.deploy("eth", bob, TypePermissionless, p2, assetY)
	w.mineEmpty("btc", 1)
	w.mineEmpty("eth", 1)

	evs := rawList(
		w.evidenceFor("btc", sc1.ID(), 1),
		w.evidenceFor("eth", sc2.ID(), 1),
	)
	w.call("witness", f2key(bob), scw.ContractAddr(), FnAuthorizeRedeem, evs, false)
}

// TestAuthorizeRedeemRejectsOneDeploymentForTwoEdges: two identical
// edges need two deployments. Proving both with one would let the
// source lock 40k where the graph promises 80k and still redeem the
// 90k coming back.
func TestAuthorizeRedeemRejectsOneDeploymentForTwoEdges(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc", "eth", "witness"}, alice, bob)
	g, err := graph.New(1,
		graph.Edge{From: alice.Addr, To: bob.Addr, Asset: assetX, Chain: "btc"},
		graph.Edge{From: alice.Addr, To: bob.Addr, Asset: assetX, Chain: "btc"},
		graph.Edge{From: bob.Addr, To: alice.Addr, Asset: assetY, Chain: "eth"},
	)
	if err != nil {
		t.Fatal(err)
	}
	wp := WitnessParams{
		Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *multisig(g.Digest(), alice, bob),
		Checkpoints: []ChainCheckpoint{
			{Chain: "btc", Header: genesis(w.chains["btc"]).Header.Encode(), EvidenceDepth: 1},
			{Chain: "eth", Header: genesis(w.chains["eth"]).Header.Encode(), EvidenceDepth: 1},
		},
		WitnessDepth: 1,
	}
	scw := w.deploy("witness", alice, TypeWitness, wp.Encode(), 0).ContractAddr()
	params := func(to crypto.Address) []byte {
		return PermissionlessParams{
			Recipient: to, WitnessChain: "witness",
			WitnessCheckpoint: genesis(w.chains["witness"]).Header.Encode(), SCw: scw, Depth: 1,
		}.Encode()
	}
	sc1 := w.deploy("btc", alice, TypePermissionless, params(bob.Addr), assetX)
	sc2 := w.deploy("eth", bob, TypePermissionless, params(alice.Addr), assetY)
	w.mineEmpty("btc", 1)
	w.mineEmpty("eth", 1)

	ev1, ev2 := w.evidenceFor("btc", sc1.ID(), 1), w.evidenceFor("eth", sc2.ID(), 1)
	w.call("witness", bob, scw, FnAuthorizeRedeem, rawList(ev1, ev1, ev2), false)

	// The same edges proven by two deployments pass.
	sc1b := w.deploy("btc", alice, TypePermissionless, params(bob.Addr), assetX)
	w.mineEmpty("btc", 1)
	evs := rawList(w.evidenceFor("btc", sc1.ID(), 1), w.evidenceFor("btc", sc1b.ID(), 1), w.evidenceFor("eth", sc2.ID(), 1))
	w.call("witness", bob, scw, FnAuthorizeRedeem, evs, true)
}

// f2key is an identity helper making intent explicit at call sites.
func f2key(k *crypto.KeyPair) *crypto.KeyPair { return k }

func TestPermissionlessRejectsShallowWitnessEvidence(t *testing.T) {
	f := newAC3WNFixture(t)
	w := f.w
	authTx := w.call("witness", f.bob, f.scwAddr, FnAuthorizeRedeem, f.deployEvidence(t), true)
	// Only bury it 1 deep; contracts demand 2.
	w.mineEmpty("witness", 1)
	ev, err := spv.Build(w.chains["witness"], genesis(w.chains["witness"]).Hash(), authTx.ID(), 1)
	if err != nil {
		t.Fatal(err)
	}
	w.call("btc", f.bob, f.sc1Addr, FnRedeem, ev.Encode(), false)
}

func TestPermissionlessRejectsWrongFunctionEvidence(t *testing.T) {
	f := newAC3WNFixture(t)
	w := f.w
	// Abort, then try to use the abort evidence to REDEEM.
	abortTx := w.call("witness", f.alice, f.scwAddr, FnAuthorizeRefund, nil, true)
	w.mineEmpty("witness", f.witnessDepth)
	abortEv := w.evidenceFor("witness", abortTx.ID(), f.witnessDepth)
	w.call("btc", f.bob, f.sc1Addr, FnRedeem, abortEv, false)
}

func TestWitnessConstructorRejectsIncompleteMultisig(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc", "eth", "witness"}, alice, bob)
	g, _ := graph.TwoParty(1, alice.Addr, bob.Addr, 10, "btc", 20, "eth")
	ms := multisig(g.Digest(), alice) // bob missing
	wp := WitnessParams{
		Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *ms,
		Checkpoints: []ChainCheckpoint{
			{Chain: "btc", Header: genesis(w.chains["btc"]).Header.Encode(), EvidenceDepth: 1},
			{Chain: "eth", Header: genesis(w.chains["eth"]).Header.Encode(), EvidenceDepth: 1},
		},
		WitnessDepth: 1,
	}
	scw := &WitnessSC{}
	ctx := testCtx("witness", crypto.Address{9}, 10, vm.Msg{Sender: alice.Addr}, 0)
	if err := scw.Init(ctx, wp.Encode()); err == nil || !strings.Contains(err.Error(), "multisignature") {
		t.Fatalf("incomplete multisig accepted: %v", err)
	}
}

func TestWitnessConstructorRejectsMissingCheckpoint(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc", "eth", "witness"}, alice, bob)
	g, _ := graph.TwoParty(1, alice.Addr, bob.Addr, 10, "btc", 20, "eth")
	ms := multisig(g.Digest(), alice, bob)
	wp := WitnessParams{
		Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *ms,
		Checkpoints: []ChainCheckpoint{
			{Chain: "btc", Header: genesis(w.chains["btc"]).Header.Encode(), EvidenceDepth: 1},
			// eth checkpoint missing
		},
		WitnessDepth: 1,
	}
	scw := &WitnessSC{}
	ctx := testCtx("witness", crypto.Address{9}, 10, vm.Msg{Sender: alice.Addr}, 0)
	if err := scw.Init(ctx, wp.Encode()); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("missing checkpoint accepted: %v", err)
	}
}

// TestWitnessConstructorReadsPresignedVerdicts: with a signature book on
// its context (ADR-021) the constructor takes the verdict a presigned
// signature was written with instead of verifying it again — but only
// for the bytes that verdict was computed on. An ms(D) carrying other
// bytes for a (signer, digest) pair the book holds is verified inline and
// rejected.
func TestWitnessConstructorReadsPresignedVerdicts(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc", "eth", "witness"}, alice, bob)
	g, _ := graph.TwoParty(1, alice.Addr, bob.Addr, 10, "btc", 20, "eth")
	book := crypto.NewSigBook()
	ms := crypto.NewMultiSig(g.Digest())
	for _, k := range ks {
		book.Add(ms.Digest, k)
		ms.Sigs = append(ms.Sigs, book.Sign(k, ms.Digest))
	}
	initSCw := func(ms *crypto.MultiSig) error {
		wp := WitnessParams{
			Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *ms,
			Checkpoints: []ChainCheckpoint{
				{Chain: "btc", Header: genesis(w.chains["btc"]).Header.Encode(), EvidenceDepth: 1},
				{Chain: "eth", Header: genesis(w.chains["eth"]).Header.Encode(), EvidenceDepth: 1},
			},
			WitnessDepth: 1,
		}
		ctx := testCtx("witness", crypto.Address{9}, 10, vm.Msg{Sender: alice.Addr}, 0)
		ctx.Sigs = book
		return (&WitnessSC{}).Init(ctx, wp.Encode())
	}
	if err := initSCw(ms); err != nil || book.Ready != 2 || book.Checked.Inline != 0 {
		t.Fatalf("presigned ms(D): %v, %d verdicts read, %d verified inline; want accepted from 2 verdicts", err, book.Ready, book.Checked.Inline)
	}
	forged := &crypto.MultiSig{Digest: ms.Digest, Sigs: slices.Clone(ms.Sigs)}
	forged.Sigs[1].Sig = slices.Clone(forged.Sigs[1].Sig)
	forged.Sigs[1].Sig[0] ^= 1 // bob's pair is in the book; these are not its bytes
	if err := initSCw(forged); err == nil || !strings.Contains(err.Error(), "multisignature") {
		t.Fatalf("ms(D) with other bytes under a presigned pair accepted: %v", err)
	}
	if book.Ready != 3 || book.Checked.Inline != 1 {
		t.Fatalf("%d verdicts read, %d verified inline; want alice's read, bob's verified", book.Ready, book.Checked.Inline)
	}
}

// raw puts already-encoded (or deliberately broken) bytes into an
// evidence list; production code appends typed values instead.
type raw []byte

func (b raw) EncodedLen() int            { return len(b) }
func (b raw) AppendTo(dst []byte) []byte { return append(dst, b...) }

func rawList(items ...[]byte) []byte {
	list := make([]wire.Appender, len(items))
	for i, it := range items {
		list[i] = raw(it)
	}
	return EncodeEvidenceList(list...)
}

func TestEvidenceListRoundTrip(t *testing.T) {
	in := [][]byte{[]byte("a"), {}, []byte("ccc")}
	out, err := DecodeEvidenceList(rawList(in...))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || string(out[0]) != "a" || len(out[1]) != 0 || string(out[2]) != "ccc" {
		t.Fatalf("round trip = %q", out)
	}
	for _, bad := range [][]byte{nil, {1}, {0, 0, 0, 5}} {
		if _, err := DecodeEvidenceList(bad); err == nil {
			t.Fatal("garbage list decoded")
		}
	}
}

func TestStateStrings(t *testing.T) {
	if StatePublished.String() != "P" || StateRedeemed.String() != "RD" || StateRefunded.String() != "RF" {
		t.Fatal("swap state names")
	}
	if WitnessPublished.String() != "P" || WitnessRedeemAuthorized.String() != "RDauth" || WitnessRefundAuthorized.String() != "RFauth" {
		t.Fatal("witness state names")
	}
	if SwapState(9).String() == "" || WitnessState(9).String() == "" {
		t.Fatal("unknown states should render")
	}
}
