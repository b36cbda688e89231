package contracts

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/vm"
)

// assetFixture is one asset contract seen as Algorithm 1 sees it: a
// constructor taking a recipient, and one good secret per commitment
// scheme. now is a block time at which redeem is open, late one at which
// refund is.
type assetFixture struct {
	name      string
	fresh     func() vm.Contract
	params    func(recipient crypto.Address) []byte
	state     func(vm.Contract) SwapState
	redeem    []byte
	refund    []byte
	now, late int64
}

// assetFixtures builds the three asset contracts over one sender and
// recipient. PermissionlessSC's secrets are SPV evidence, so they come
// off a mined witness chain: one world decides commit, a second abort.
func assetFixtures(t *testing.T) (sender, recipient crypto.Address, fx []assetFixture) {
	t.Helper()
	commit, abort := newAC3WNFixture(t), newAC3WNFixture(t)
	authTx := commit.w.call("witness", commit.bob, commit.scwAddr, FnAuthorizeRedeem, commit.deployEvidence(t), true)
	commit.w.mineEmpty("witness", commit.witnessDepth)
	abortTx := abort.w.call("witness", abort.alice, abort.scwAddr, FnAuthorizeRefund, nil, true)
	abort.w.mineEmpty("witness", abort.witnessDepth)
	if commit.scwAddr != abort.scwAddr {
		t.Fatal("the two worlds are meant to deploy the same SCw")
	}
	sender, recipient = commit.alice.Addr, commit.bob.Addr

	trent := keys(3)[2]
	ms := crypto.Sum([]byte("ms(D)"))
	sig := func(p crypto.Purpose) []byte {
		return crypto.EncodeSignature(trent.Sign(crypto.WitnessMessage(ms, p)))
	}
	preimage := []byte("nolan-secret")
	return sender, recipient, []assetFixture{
		{
			name:  "htlc",
			fresh: func() vm.Contract { return &HTLC{} },
			params: func(to crypto.Address) []byte {
				return HTLCParams{Recipient: to, Hashlock: crypto.Sum(preimage), Timelock: 5000}.Encode()
			},
			state:  func(c vm.Contract) SwapState { return c.(*HTLC).State },
			redeem: preimage, refund: nil, now: 1000, late: 5000,
		},
		{
			name:  "ac3tw",
			fresh: func() vm.Contract { return &CentralizedSC{} },
			params: func(to crypto.Address) []byte {
				return CentralizedParams{Recipient: to, MSDigest: ms, Witness: trent.Addr}.Encode()
			},
			state:  func(c vm.Contract) SwapState { return c.(*CentralizedSC).State },
			redeem: sig(crypto.PurposeRedeem), refund: sig(crypto.PurposeRefund), now: 1000, late: 1000,
		},
		{
			name:  "ac3wn",
			fresh: func() vm.Contract { return &PermissionlessSC{} },
			params: func(to crypto.Address) []byte {
				return PermissionlessParams{
					Recipient: to, WitnessChain: "witness",
					WitnessCheckpoint: commit.w.chains["witness"].Genesis().Header.Encode(),
					SCw:               commit.scwAddr, Depth: commit.witnessDepth,
				}.Encode()
			},
			state:  func(c vm.Contract) SwapState { return c.(*PermissionlessSC).State },
			redeem: commit.w.evidenceFor("witness", authTx.ID(), commit.witnessDepth),
			refund: abort.w.evidenceFor("witness", abortTx.ID(), abort.witnessDepth),
			now:    1000, late: 1000,
		},
	}
}

// TestAssetContractTemplate pins what the three asset contracts share —
// Algorithm 1's constructor checks, its P → RD | RF machine and the
// payout that goes with each transition — down to the error strings,
// which miners' rejection counters and the timeline carry. The strings
// were captured before the three copies became one template.
func TestAssetContractTemplate(t *testing.T) {
	const asset = vm.Amount(10)
	sender, recipient, fixtures := assetFixtures(t)
	bad := []byte("not a secret")
	want := map[string]map[string]string{
		"htlc": {
			"redeem bad secret": "htlc: wrong secret",
			"refund bad secret": "htlc: timelock not yet expired",
			"redeem in RD":      "htlc: redeem in state RD",
			"refund in RD":      "htlc: refund in state RD",
			"refund in RF":      "htlc: refund in state RF",
			"redeem in RF":      "htlc: redeem in state RF",
			"unknown function":  `vm: contract htlc has no function "nope"`,
			"zero recipient":    "htlc: zero recipient",
			"no asset locked":   "htlc: no asset locked",
		},
		"ac3tw": {
			"redeem bad secret": "ac3tw: invalid redemption signature",
			"refund bad secret": "ac3tw: invalid refund signature",
			"redeem in RD":      "ac3tw: redeem in state RD",
			"refund in RD":      "ac3tw: refund in state RD",
			"refund in RF":      "ac3tw: refund in state RF",
			"redeem in RF":      "ac3tw: redeem in state RF",
			"unknown function":  `vm: contract ac3tw.swap has no function "nope"`,
			"zero recipient":    "ac3tw: zero recipient or witness",
			"no asset locked":   "ac3tw: no asset locked",
		},
		"ac3wn": {
			"redeem bad secret": "ac3wn: redeem: spv: invalid evidence: wire: malformed encoding: truncated (need 1852797984, have 8)",
			"refund bad secret": "ac3wn: refund: spv: invalid evidence: wire: malformed encoding: truncated (need 1852797984, have 8)",
			"redeem in RD":      "ac3wn: redeem in state RD",
			"refund in RD":      "ac3wn: refund in state RD",
			"refund in RF":      "ac3wn: refund in state RF",
			"redeem in RF":      "ac3wn: redeem in state RF",
			"unknown function":  `vm: contract ac3wn.swap has no function "nope"`,
			"zero recipient":    "ac3wn: zero recipient",
			"no asset locked":   "ac3wn: no asset locked",
		},
	}

	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			// deployed returns a contract in P holding asset.
			deployed := func() vm.Contract {
				c := f.fresh()
				if err := c.Init(vm.NewCtx("c", crypto.Address{7}, 3, f.now, vm.Msg{Sender: sender, Value: asset}, asset), f.params(recipient)); err != nil {
					t.Fatalf("init: %v", err)
				}
				if f.state(c) != StatePublished {
					t.Fatalf("deployed in state %s", f.state(c))
				}
				return c
			}
			// call runs fn at block time at and returns the error text and
			// the payouts.
			call := func(c vm.Contract, at int64, fn string, secret []byte) (string, []vm.Payout) {
				ctx := vm.NewCtx("c", crypto.Address{7}, 4, at, vm.Msg{Sender: recipient}, asset)
				if err := c.Call(ctx, fn, secret); err != nil {
					if len(ctx.Payouts()) != 0 {
						t.Errorf("%s failed and still paid %v", fn, ctx.Payouts())
					}
					return err.Error(), nil
				}
				return "", ctx.Payouts()
			}
			expect := func(step, got string) {
				t.Helper()
				if got != want[f.name][step] {
					t.Errorf("%s: error %q, want %q", step, got, want[f.name][step])
				}
			}
			paid := func(step string, got []vm.Payout, to crypto.Address) {
				t.Helper()
				if len(got) != 1 || got[0] != (vm.Payout{To: to, Value: asset}) {
					t.Errorf("%s: payouts %v, want %d to %s", step, got, asset, to)
				}
			}

			// Redeem: a bad secret leaves P alone, a good one pays the
			// recipient and closes the contract for good.
			c := deployed()
			msg, _ := call(c, f.now, FnRedeem, bad)
			expect("redeem bad secret", msg)
			if f.state(c) != StatePublished {
				t.Fatalf("a rejected redeem moved the state to %s", f.state(c))
			}
			msg, _ = call(c, f.now, FnRefund, bad) // for HTLC the bad secret is the hour
			expect("refund bad secret", msg)
			msg, pay := call(c, f.now, FnRedeem, f.redeem)
			if msg != "" || f.state(c) != StateRedeemed {
				t.Fatalf("redeem with the secret: %q, state %s", msg, f.state(c))
			}
			paid("redeem", pay, recipient)
			msg, _ = call(c, f.now, FnRedeem, f.redeem)
			expect("redeem in RD", msg)
			msg, _ = call(c, f.late, FnRefund, f.refund)
			expect("refund in RD", msg)

			// Refund: pays the sender, and then neither function runs.
			c = deployed()
			msg, pay = call(c, f.late, FnRefund, f.refund)
			if msg != "" || f.state(c) != StateRefunded {
				t.Fatalf("refund with the secret: %q, state %s", msg, f.state(c))
			}
			paid("refund", pay, sender)
			msg, _ = call(c, f.late, FnRefund, f.refund)
			expect("refund in RF", msg)
			msg, _ = call(c, f.now, FnRedeem, f.redeem)
			expect("redeem in RF", msg)

			msg, _ = call(deployed(), f.now, "nope", nil)
			expect("unknown function", msg)

			// Constructor: the checks every asset contract makes.
			initErr := func(to crypto.Address, value vm.Amount) string {
				err := f.fresh().Init(vm.NewCtx("c", crypto.Address{7}, 3, f.now, vm.Msg{Sender: sender, Value: value}, value), f.params(to))
				if err == nil {
					return ""
				}
				return err.Error()
			}
			expect("zero recipient", initErr(crypto.ZeroAddress, asset))
			expect("no asset locked", initErr(recipient, 0))
		})
	}
}
