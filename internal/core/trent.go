package core

import (
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/crypto"
	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/sim"
	"repro/internal/xchain"
)

// Trent is the centralized trusted witness of Section 4.1: a
// key/value store from ms(D) to ⊥ / T(ms(D),RD) / T(ms(D),RF),
// guarded so at most one of the two signatures is ever issued per
// registered AC2T. Trent reads the asset chains through ordinary
// clients to verify contract deployment before signing a redemption.
//
// Trent is the protocol's single point of failure — Crash/Recover
// model the availability weakness (denial of service) the paper cites
// as the reason to replace him with a witness network.
type Trent struct {
	Key *crypto.KeyPair

	s       *sim.Sim
	sigs    *crypto.SigBook // the world's: ms(D) verdicts computed ahead
	latency sim.Time
	depth   int // contracts count as deployed this deep, whoever asks
	clients map[chain.ID]*miner.Client
	store   map[crypto.Hash]*trentEntry
	crashed bool

	// SignedRD / SignedRF count decisions (diagnostics).
	SignedRD, SignedRF int
}

// ErrAlreadyRegistered is Trent's duplicate-registration refusal. A
// retrying initiator treats it as success: it means an earlier
// attempt landed and only the reply was lost.
var ErrAlreadyRegistered = errors.New("trent: ms(D) already registered")

// trentEntry is one registered AC2T.
type trentEntry struct {
	g        *graph.Graph
	decision crypto.Purpose // 0 = ⊥
	sig      crypto.Signature
}

// NewTrent creates the witness with read clients on the given world's
// chains. latency is the request/response one-way delay; depth is how
// deep he requires every contract buried before he signs RD.
func NewTrent(w *xchain.World, seed uint64, latency sim.Time, depth int) *Trent {
	rng := sim.NewRNG(seed) //ac3:globalrand seed parameter descends from the world seed (runners derive it; engine forks per shard)
	key := crypto.MustGenerateKey(crypto.NewRandReader(rng.Uint64))
	t := &Trent{
		Key:     key,
		s:       w.Sim,
		sigs:    w.Sigs,
		latency: latency,
		depth:   depth,
		clients: make(map[chain.ID]*miner.Client),
		store:   make(map[crypto.Hash]*trentEntry),
	}
	for _, id := range w.Chains() {
		t.clients[id] = miner.NewClient(w.Net(id), 0, key)
	}
	return t
}

// Crash takes Trent offline: requests go unanswered (the DoS
// scenario).
func (t *Trent) Crash() { t.crashed = true }

// Recover brings Trent back; his store (durable) is intact.
func (t *Trent) Recover() { t.crashed = false }

// Close releases Trent's chain clients and store once his AC2T is
// graded (engine retirement). Trent's clients never arm watches —
// contract verification is a direct stable-state read — so closing
// them schedules nothing and is invisible to event ordering; it only
// lets a per-transaction witness become garbage. Close is terminal:
// the witness also crash-stops so any stray request goes unanswered.
func (t *Trent) Close() {
	t.crashed = true
	for _, c := range t.clients {
		c.Close()
	}
	t.clients = nil
	t.store = nil
}

// Register stores ms(D) if not registered before; cb receives the
// outcome. All methods respond asynchronously after the RPC latency.
func (t *Trent) Register(g *graph.Graph, ms *crypto.MultiSig, cb func(error)) {
	t.rpc(func() {
		var err error
		switch id := ms.ID(); {
		case !g.VerifyMultisig(ms, t.sigs):
			err = fmt.Errorf("trent: invalid multisignature")
		case t.store[id] != nil:
			err = ErrAlreadyRegistered
		default:
			t.store[id] = &trentEntry{g: g}
		}
		t.s.After(t.latency, func() { cb(err) })
	})
}

// RequestRedeem asks Trent to witness the commitment: he verifies all
// contracts are deployed and correct, then signs (ms(D), RD). If the
// AC2T was already decided, the stored value is returned (matching
// the paper: Trent "responds ... with the value corresponding to
// ms(D) in the key/value store").
func (t *Trent) RequestRedeem(msID crypto.Hash, addrs []crypto.Address, cb func(crypto.Signature, crypto.Purpose, error)) {
	t.decide(msID, crypto.PurposeRedeem, addrs, cb)
}

// RequestRefund asks Trent to witness the abort. He signs (ms(D), RF)
// only if no decision exists yet.
func (t *Trent) RequestRefund(msID crypto.Hash, cb func(crypto.Signature, crypto.Purpose, error)) {
	t.decide(msID, crypto.PurposeRefund, nil, cb)
}

// decide answers a request for decision p after the RPC latency.
func (t *Trent) decide(msID crypto.Hash, p crypto.Purpose, addrs []crypto.Address, cb func(crypto.Signature, crypto.Purpose, error)) {
	t.rpc(func() {
		sig, d, err := t.decision(msID, p, addrs)
		t.s.After(t.latency, func() { cb(sig, d, err) })
	})
}

// decision is the stored decision, made p first if there is none yet —
// RD only once every contract checks out.
func (t *Trent) decision(msID crypto.Hash, p crypto.Purpose, addrs []crypto.Address) (crypto.Signature, crypto.Purpose, error) {
	e, ok := t.store[msID]
	if !ok {
		return crypto.Signature{}, 0, fmt.Errorf("trent: unknown ms(D)")
	}
	if e.decision == 0 {
		if p == crypto.PurposeRedeem {
			if err := t.verifyContracts(e.g, msID, addrs); err != nil {
				return crypto.Signature{}, 0, err
			}
			t.SignedRD++
		} else {
			t.SignedRF++
		}
		e.decision, e.sig = p, t.Key.Sign(crypto.WitnessMessage(msID, p))
	}
	return e.sig, e.decision, nil
}

// verifyContracts reads every edge's contract at Trent's depth, in
// state P, and has MatchEdges check it against the edge with both
// schemes set to (ms(D), PK_T).
func (t *Trent) verifyContracts(g *graph.Graph, msID crypto.Hash, addrs []crypto.Address) error {
	if len(addrs) != len(g.Edges) {
		return fmt.Errorf("trent: %d addresses for %d edges", len(addrs), len(g.Edges))
	}
	var stack [8]contracts.Lock
	locks := stack[:0]
	for i, e := range g.Edges {
		client, ok := t.clients[e.Chain]
		if !ok {
			return fmt.Errorf("trent: no client for chain %s", e.Chain)
		}
		ct, ok := client.ContractNow(addrs[i], t.depth)
		if !ok {
			return fmt.Errorf("trent: edge %d contract not found at depth %d", i, t.depth)
		}
		sc, isC := ct.(*contracts.CentralizedSC)
		if !isC {
			return fmt.Errorf("trent: edge %d is not a CentralizedSC", i)
		}
		if sc.State != contracts.StatePublished {
			return fmt.Errorf("trent: edge %d in state %s", i, sc.State)
		}
		locks = append(locks, contracts.Lock{
			ID: addrs[i], Sender: sc.Sender, Recipient: sc.Recipient, Asset: sc.Asset,
			Binding: contracts.Binding{Witness: sc.Witness, MSID: sc.MSDigest},
		})
	}
	if err := contracts.MatchEdges(g.Edges, locks, contracts.Binding{Witness: t.Key.Addr, MSID: msID}); err != nil {
		return fmt.Errorf("trent: %w", err)
	}
	return nil
}

// rpc runs fn after the request latency unless Trent is down.
func (t *Trent) rpc(fn func()) {
	t.s.After(t.latency, func() {
		if t.crashed {
			return // request lost; client times out
		}
		fn()
	})
}
