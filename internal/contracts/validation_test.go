package contracts

import (
	"strings"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/vm"
)

// testCtx is vm.NewCtx as the pointer a contract is handed.
func testCtx(chainID string, self crypto.Address, time int64, msg vm.Msg, balance vm.Amount) *vm.Ctx {
	ctx := vm.NewCtx(chainID, self, time, msg, balance)
	return &ctx
}

// ctxFor builds a minimal execution context for constructor tests.
func ctxFor(sender crypto.Address, value vm.Amount) *vm.Ctx {
	return testCtx("test", crypto.Address{7}, 1000, vm.Msg{Sender: sender, Value: value}, value)
}

// multisig is ms(D) over digest by keys, each signing with
// MultiSig.Add.
func multisig(digest crypto.Hash, keys ...*crypto.KeyPair) *crypto.MultiSig {
	ms := crypto.NewMultiSig(digest)
	for _, k := range keys {
		ms.Add(k)
	}
	return ms
}

// genesis returns c's genesis block: its canonical block at height 0.
func genesis(c *chain.Chain) *chain.Block {
	b, _ := c.CanonicalAt(0)
	return b
}

func validHeaderBytes(t *testing.T) []byte {
	t.Helper()
	params := chain.DefaultParams("any")
	params.DifficultyBits = 4
	exec, err := chain.NewExecutor(params, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return genesis(exec.NewView()).Header.Encode()
}

func TestPermissionlessInitValidation(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	hdr := validHeaderBytes(t)
	base := PermissionlessParams{
		Recipient:         bob.Addr,
		WitnessChain:      "witness",
		WitnessCheckpoint: hdr,
		SCw:               crypto.Address{9},
		Depth:             3,
	}
	cases := []struct {
		name   string
		mutate func(p *PermissionlessParams)
		value  vm.Amount
		want   string
	}{
		{"zero recipient", func(p *PermissionlessParams) { p.Recipient = crypto.ZeroAddress }, 10, "zero recipient"},
		{"zero SCw", func(p *PermissionlessParams) { p.SCw = crypto.ZeroAddress }, 10, "zero witness contract"},
		{"negative depth", func(p *PermissionlessParams) { p.Depth = -1 }, 10, "negative depth"},
		{"corrupt checkpoint", func(p *PermissionlessParams) { p.WitnessCheckpoint = []byte("junk") }, 10, "checkpoint"},
		{"no asset", func(p *PermissionlessParams) {}, 0, "no asset"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := base
			c.mutate(&p)
			sc := &PermissionlessSC{}
			err := sc.Init(ctxFor(alice.Addr, c.value), p.Encode())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want substring %q", err, c.want)
			}
		})
	}
	// The unmutated params with value succeed.
	sc := &PermissionlessSC{}
	if err := sc.Init(ctxFor(alice.Addr, 10), base.Encode()); err != nil {
		t.Fatalf("valid init failed: %v", err)
	}
	if sc.State != StatePublished || sc.Sender != alice.Addr || sc.Asset != 10 {
		t.Fatalf("constructor state wrong: %+v", sc)
	}
	// Garbage params rejected.
	if err := (&PermissionlessSC{}).Init(ctxFor(alice.Addr, 10), []byte("x")); err == nil {
		t.Fatal("garbage params accepted")
	}
	// Unknown function rejected.
	if err := sc.Call(ctxFor(alice.Addr, 0), "nope", nil); err == nil {
		t.Fatal("unknown function accepted")
	}
}

func TestWitnessInitValidation(t *testing.T) {
	ks := keys(2)
	alice, bob := ks[0], ks[1]
	w := newWorld(t, []chain.ID{"btc", "eth"}, alice, bob)
	g := mustTwoParty(t, alice, bob)
	ms := multisig(g.Digest(), alice, bob)
	good := WitnessParams{
		Edges: g.Edges, Timestamp: g.Timestamp, Multisig: *ms,
		Checkpoints: []ChainCheckpoint{
			{Chain: "btc", Header: genesis(w.chains["btc"]).Header.Encode(), EvidenceDepth: 1},
			{Chain: "eth", Header: genesis(w.chains["eth"]).Header.Encode(), EvidenceDepth: 1},
		},
		WitnessDepth: 2,
	}
	mustFail := func(name string, mutate func(p *WitnessParams)) {
		t.Helper()
		p := good
		// Deep-copy the slices the mutations touch.
		p.Checkpoints = append([]ChainCheckpoint(nil), good.Checkpoints...)
		mutate(&p)
		sc := &WitnessSC{}
		if err := sc.Init(ctxFor(alice.Addr, 0), p.Encode()); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	mustFail("negative witness depth", func(p *WitnessParams) { p.WitnessDepth = -1 })
	mustFail("negative evidence depth", func(p *WitnessParams) { p.Checkpoints[0].EvidenceDepth = -1 })
	mustFail("corrupt checkpoint header", func(p *WitnessParams) { p.Checkpoints[0].Header = []byte("junk") })
	mustFail("no edges", func(p *WitnessParams) { p.Edges = nil })

	sc := &WitnessSC{}
	if err := sc.Init(ctxFor(alice.Addr, 0), good.Encode()); err != nil {
		t.Fatalf("valid witness init failed: %v", err)
	}
	if sc.State != WitnessPublished || len(sc.Participants) != 2 {
		t.Fatalf("constructor state wrong: %+v", sc)
	}
	if err := sc.Call(ctxFor(alice.Addr, 0), "bogus", nil); err == nil {
		t.Fatal("unknown function accepted")
	}
}

// mustTwoParty builds the standard two-party graph for validation
// tests.
func mustTwoParty(t *testing.T, alice, bob *crypto.KeyPair) *graph.Graph {
	t.Helper()
	g, err := graph.TwoParty(1, alice.Addr, bob.Addr, 10, "btc", 20, "eth")
	if err != nil {
		t.Fatal(err)
	}
	return g
}
