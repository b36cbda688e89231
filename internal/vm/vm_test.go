package vm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/sim"
	"repro/internal/wire"
)

// counter is a minimal test contract.
type counter struct {
	N     int
	Owner crypto.Address
}

func (c *counter) Type() string { return "counter" }

func (c *counter) Init(ctx *Ctx, params []byte) error {
	c.Owner = ctx.Msg.Sender
	return nil
}

func (c *counter) Call(ctx *Ctx, fn string, args []byte) error {
	switch fn {
	case "inc":
		c.N++
		return nil
	case "drain":
		return ctx.Pay(c.Owner, ctx.Balance())
	default:
		return ErrUnknownFunction(c.Type(), fn)
	}
}

func (c *counter) Clone() Contract { cp := *c; return &cp }

func addr(seed uint64) crypto.Address {
	r := sim.NewRNG(seed)
	return crypto.MustGenerateKey(crypto.NewRandReader(r.Uint64)).Addr
}

func TestCtxPayDeductsBalance(t *testing.T) {
	to := addr(1)
	ctx := NewCtx("btc", addr(2), 5, 100, Msg{}, 100)
	if err := ctx.Pay(to, 60); err != nil {
		t.Fatal(err)
	}
	if ctx.Balance() != 40 {
		t.Fatalf("balance = %d, want 40", ctx.Balance())
	}
	if err := ctx.Pay(to, 41); err == nil {
		t.Fatal("overdraft allowed")
	}
	if err := ctx.Pay(to, 40); err != nil {
		t.Fatal(err)
	}
	p := ctx.Payouts()
	if len(p) != 2 || p[0].Value != 60 || p[1].Value != 40 {
		t.Fatalf("payouts = %+v", p)
	}
}

func TestCtxPayZeroAddressRejected(t *testing.T) {
	ctx := NewCtx("btc", addr(1), 0, 0, Msg{}, 10)
	if err := ctx.Pay(crypto.ZeroAddress, 1); err == nil {
		t.Fatal("payout to zero address allowed")
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Register("counter", func() Contract { return &counter{} })
	c, err := r.New("counter")
	if err != nil {
		t.Fatal(err)
	}
	if c.Type() != "counter" {
		t.Fatalf("type = %q", c.Type())
	}
	if _, err := r.New("nope"); err == nil {
		t.Fatal("unknown type instantiated")
	}
	types := r.Types()
	if len(types) != 1 || types[0] != "counter" {
		t.Fatalf("Types() = %v", types)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r := NewRegistry()
	r.Register("x", func() Contract { return &counter{} })
	r.Register("x", func() Contract { return &counter{} })
}

func TestRegistryBadArgsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty type")
		}
	}()
	NewRegistry().Register("", func() Contract { return &counter{} })
}

func TestContractCloneIsolation(t *testing.T) {
	c := &counter{}
	owner := addr(3)
	_ = c.Init(NewCtx("btc", addr(4), 0, 0, Msg{Sender: owner}, 0), nil)
	cl := c.Clone().(*counter)
	_ = cl.Call(NewCtx("btc", addr(4), 1, 1, Msg{}, 0), "inc", nil)
	if c.N != 0 || cl.N != 1 {
		t.Fatalf("clone not isolated: c.N=%d cl.N=%d", c.N, cl.N)
	}
}

func TestErrUnknownFunction(t *testing.T) {
	c := &counter{}
	err := c.Call(NewCtx("btc", addr(5), 0, 0, Msg{}, 0), "nope", nil)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v", err)
	}
}

func TestContractAddressDeterministicAndDistinct(t *testing.T) {
	a := ContractAddress(crypto.Sum([]byte("tx1")))
	b := ContractAddress(crypto.Sum([]byte("tx1")))
	c := ContractAddress(crypto.Sum([]byte("tx2")))
	if a != b {
		t.Fatal("contract address not deterministic")
	}
	if a == c {
		t.Fatal("distinct txs share a contract address")
	}
	if a.IsZero() {
		t.Fatal("contract address is zero")
	}
}

// testParams is a parameter type with its own few-line codec, as every
// contract's parameters have.
type testParams struct {
	Recipient crypto.Address
	Deadline  int64
	Secret    []byte
}

func (p *testParams) Encode() []byte {
	out := append([]byte(nil), p.Recipient[:]...)
	out = binary.BigEndian.AppendUint64(out, uint64(p.Deadline))
	return wire.AppendBytes(out, p.Secret)
}

func (p *testParams) Decode(b []byte) error {
	r := wire.NewReader(b)
	r.Fill(p.Recipient[:])
	p.Deadline = int64(r.U64())
	p.Secret = r.Bytes()
	return r.Finish()
}

// The three Gob tests cover the deprecated EncodeGob/DecodeGob shim:
// it forwards to the value's codec and knows no other encoding.

func TestGobRoundTrip(t *testing.T) {
	in := &testParams{Recipient: addr(6), Deadline: -42, Secret: []byte("s")}
	b := EncodeGob(in)
	if !bytes.Equal(b, in.Encode()) {
		t.Fatal("EncodeGob is not the value's own Encode")
	}
	var out testParams
	if err := DecodeGob(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Recipient != in.Recipient || out.Deadline != in.Deadline || string(out.Secret) != "s" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestGobDeterministic(t *testing.T) {
	x := EncodeGob(&testParams{Deadline: 1, Secret: []byte{2}})
	y := EncodeGob(&testParams{Deadline: 1, Secret: []byte{2}})
	if string(x) != string(y) {
		t.Fatal("encoding of identical values differs")
	}
}

func TestDecodeGobError(t *testing.T) {
	if err := DecodeGob([]byte("not an encoding"), &testParams{}); !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("malformed input: err = %v, want wire.ErrMalformed", err)
	}
	// A type without a codec is an error from DecodeGob and a
	// programmer-error panic from EncodeGob; there is no fallback.
	var v struct{ A int }
	if err := DecodeGob(nil, &v); err == nil || !strings.Contains(err.Error(), "no wire codec") {
		t.Fatalf("codec-less type: err = %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("EncodeGob of a codec-less type did not panic")
		}
	}()
	EncodeGob(v)
}

func TestPayFromDrainFunction(t *testing.T) {
	c := &counter{}
	owner := addr(7)
	_ = c.Init(NewCtx("btc", addr(8), 0, 0, Msg{Sender: owner, Value: 500}, 500), nil)
	ctx := NewCtx("btc", addr(8), 3, 30, Msg{Sender: owner}, 500)
	if err := c.Call(ctx, "drain", nil); err != nil {
		t.Fatal(err)
	}
	p := ctx.Payouts()
	if len(p) != 1 || p[0].To != owner || p[0].Value != 500 {
		t.Fatalf("payouts = %+v", p)
	}
	if ctx.Balance() != 0 {
		t.Fatalf("balance = %d, want 0", ctx.Balance())
	}
}
