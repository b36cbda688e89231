package crypto

import (
	"crypto/ed25519"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Verdict is one signature that two goroutines may share (ADR-021):
// written, when its signer's key came with it (SignLater), then checked by
// Signature.Verify — both exactly once, by whoever claims the cell first:
// a SigChecker ahead of need, the first reader inline or a settle. Until
// the verdict is published the signature's bytes are the claimant's;
// everyone else reads them after Read returns.
type Verdict struct {
	state atomic.Uint32
	own   uint8    // zero, or how far an own cell (SignLater's) has got: the world goroutine's alone
	key   *KeyPair // writes the signature on claim; nil when its bytes came final
}

const (
	verdictClaimed = iota + 1 // zero is unclaimed
	verdictInvalid
	verdictValid
)

// An own cell is valid unless its key pair's halves disagree. A settling
// tally may hold it in its ledger, and a read outside that tally compute it
// meanwhile.
const (
	ownSigned = iota + 1
	ownHeld
	ownHeldRead
)

// sigQueue bounds both a checker's offer queue and a tally's ledger.
const sigQueue = 64

// SigTally counts a reader's own computations, its waits for a checker's,
// the reads it answered before publication (Assumed) and the cells its
// Settle computed or waited for: the host scheduler's doing, so
// diagnostics, never results.
type SigTally struct {
	Inline, Waited, Assumed, Settled uint64
	ledger                           *[]sigJob // the cells assumed; nil: nothing is
}

// SignedLen is what SignLater writes: the public key, then the signature.
const SignedLen = ed25519.PublicKeySize + ed25519.SignatureSize

// SignLater makes v's claimant write k's signature and returns it
// unwritten, in buf (the caller's): k's public key and zeros.
func (v *Verdict) SignLater(k *KeyPair, buf *[SignedLen]byte) Signature {
	v.key, v.own = k, ownSigned
	return Signature{Pub: append(buf[:0:ed25519.PublicKeySize], k.Pub...), Sig: buf[ed25519.PublicKeySize:]}
}

// compute claims the cell, signs if it holds a key, verifies and
// publishes; false if it was claimed.
func (v *Verdict) compute(sig Signature, msg Hash) bool {
	if !v.state.CompareAndSwap(0, verdictClaimed) {
		return false
	}
	if v.key != nil {
		copy(sig.Sig, ed25519.Sign(v.key.priv, msg[:]))
		v.key = nil // only the claimant reads it; a signed cell holds no key alive
	}
	if sig.Verify(msg[:]) {
		v.state.Store(verdictValid)
	} else {
		v.state.Store(verdictInvalid)
	}
	return true
}

// Read returns sig.Verify(msg), computing it (and sig) if nobody has, and
// yielding for what is left of one computation (≈ 60 µs; parking on a
// sync.Cond measured no cheaper) if a checker is on it just now. A held
// cell's computation is counted by the tally that holds it.
func (v *Verdict) Read(sig Signature, msg Hash, t *SigTally) bool {
	if v.compute(sig, msg) {
		if v.own == ownHeld {
			v.own = ownHeldRead
		} else {
			t.Inline++
		}
	} else if v.state.Load() == verdictClaimed {
		t.Waited++
		for v.state.Load() == verdictClaimed {
			runtime.Gosched()
		}
	}
	return v.state.Load() == verdictValid
}

// Assume is Read, except that through a tally that settles later an own
// signature nobody has published a verdict for is valid, and its cell goes
// to the tally's ledger: Settle finds the one way it can be invalid.
func (v *Verdict) Assume(sig Signature, msg Hash, t *SigTally) bool {
	if v.state.Load() > verdictClaimed || v.own == 0 || t.ledger == nil || !t.hold(v, sig, msg) {
		return v.Read(sig, msg, t)
	}
	t.Assumed++
	return true
}

// SettleLater makes reads through t assume until Settle, which its caller
// runs before any result built on those reads exists.
func (t *SigTally) SettleLater() { t.ledger = &[]sigJob{} }

// hold keeps v in t's ledger. A full one lets go of the cells published
// valid; false if none was, and the world computes v, the newest cell,
// itself while a checker works from the oldest offer.
func (t *SigTally) hold(v *Verdict, sig Signature, msg Hash) bool {
	if v.own != ownSigned {
		return true // held already
	}
	l := *t.ledger
	if len(l) == sigQueue {
		l = t.release(l)
	}
	if *t.ledger = l; len(l) == sigQueue {
		return false
	}
	v.own, *t.ledger = ownHeld, append(l, sigJob{v, sig, msg})
	return true
}

// release lets go of the cells in l, t's ledger, published valid, counting
// as t's those a read outside t computed.
func (t *SigTally) release(l []sigJob) []sigJob {
	n := 0
	for _, j := range l {
		if j.cell.state.Load() != verdictValid {
			l[n], n = j, n+1
		} else if j.cell.own == ownHeldRead {
			t.Inline++
		}
	}
	clear(l[n:])
	return l[:n]
}

// Settle computes or waits for the verdict of every cell t assumed, the
// newest first while the checkers c (nil: none) start at the oldest, and
// reports whether all are valid. A tally that does not settle later has none.
func (t *SigTally) Settle(c *SigChecker) bool {
	if t.ledger == nil {
		return true
	}
	l, valid := *t.ledger, true
	cp := slices.Clone(l) // the checkers' copy: letting go of a cell clears its slot
	c.queue(&batch{n: int64(len(cp)), kind: aheadTx, do: func(i int) bool { return cp[i].cell.compute(cp[i].sig, cp[i].msg) }})
	for i := len(l) - 1; i >= 0; i-- {
		if l[i].cell.state.Load() <= verdictClaimed {
			t.Settled++
		}
		valid = l[i].cell.Read(l[i].sig, l[i].msg, t) && valid
	}
	*t.ledger = t.release(l)
	return valid
}

// SigBook holds the signatures a world's participants will put on graph
// digests, one signing Verdict per (signer, digest), filled before the
// world runs. Written counts the cells Sign wrote or waited for, Ready the
// multisig checks a cell's verdict answered, and Checked what those
// checks computed here or waited for.
type SigBook struct {
	cells            map[bookKey]*sigJob
	order            []*sigJob // as added, until Background hands them on
	Written, Checked SigTally
	Ready            uint64
}

type bookKey struct {
	signer Address
	digest Hash
}

// NewSigBook returns an empty book.
func NewSigBook() *SigBook { return &SigBook{cells: make(map[bookKey]*sigJob)} }

// Add gives k a cell that signs digest.
func (b *SigBook) Add(digest Hash, k *KeyPair) {
	if b.cells[bookKey{k.Addr, digest}] == nil {
		a := &struct { // the job, its cell and the signature's bytes: one allocation
			job  sigJob
			cell Verdict
			buf  [SignedLen]byte
		}{job: sigJob{msg: digest}}
		j := &a.job
		j.cell, j.sig = &a.cell, a.cell.SignLater(k, &a.buf)
		b.cells[bookKey{k.Addr, digest}] = j
		b.order = append(b.order, j)
	}
}

// Forget drops k's cell for digest (nil book: none) once nothing should
// need it: a check that still comes verifies inline.
func (b *SigBook) Forget(digest Hash, k *KeyPair) {
	if b != nil {
		delete(b.cells, bookKey{k.Addr, digest})
	}
}

// Sign returns k's signature over digest: its cell's once written — here,
// if no checker got to it — or k.Sign's if the book (nil: none) has no
// cell for the pair.
func (b *SigBook) Sign(k *KeyPair, digest Hash) Signature {
	if b != nil {
		if j := b.cells[bookKey{k.Addr, digest}]; j != nil {
			j.cell.Read(j.sig, digest, &b.Written)
			return j.sig
		}
	}
	return k.Sign(digest[:])
}

// Verify reports sig.Verify(digest[:]), read from the cell for (sig's
// signer, digest) when sig carries the bytes that cell wrote; any other
// signature is verified here.
func (b *SigBook) Verify(sig Signature, digest Hash) bool {
	if b == nil {
		return sig.Verify(digest[:])
	}
	if j := b.cells[bookKey{sig.Signer(), digest}]; j != nil {
		valid := j.cell.Read(j.sig, digest, &b.Checked) // j.sig is final from here on
		if j.sig.Equal(sig) {
			b.Ready++
			return valid
		}
	}
	b.Checked.Inline++
	return sig.Verify(digest[:])
}

// SigChecker computes verdicts and key pairs on goroutines of its own,
// ahead of their first read. A nil one checks nothing: first readers
// compute inline, the arm that always exists.
type SigChecker struct {
	jobs  chan sigJob // offers, by value: a hand-off allocates nothing
	later chan *batch // background work, taken item by item between offers
	stop  chan struct{}
	wg    sync.WaitGroup
	ahead [3]atomic.Uint64 // what the checkers computed: transaction and graph signatures, key pairs
}

const aheadTx, aheadGraph, aheadKeys = 0, 1, 2

// sigJob is all a checker sees of the object the cell lives in.
type sigJob struct {
	cell *Verdict
	sig  Signature
	msg  Hash
}

// batch is background work whose n items the checkers, and the caller of
// Keys, claim one at a time from one counter; done counts those finished.
type batch struct {
	next, done atomic.Int64
	n          int64
	kind       int
	do         func(i int) bool // true if it computed item i
}

// step does the next unclaimed item, counting it on ahead (nil: nowhere)
// if it computed it; false once none is left.
func (b *batch) step(ahead *atomic.Uint64) bool {
	i := b.next.Add(1) - 1
	if i >= b.n {
		return false
	}
	if b.do(int(i)) && ahead != nil {
		ahead.Add(1)
	}
	b.done.Add(1)
	return true
}

// NewSigChecker starts n checkers, or none (nil) if n <= 0. The offer
// queue is short: a checker that keeps up is a job behind, and one that
// does not should stay on recent offers — older ones are computed inline
// before it would reach them. Batches queue four deep: a settling shard
// hands over a ledger per chain, the next one a key batch and a book, and
// a checker has one in hand; more is a backlog it will not work off.
func NewSigChecker(n int) *SigChecker {
	if n <= 0 {
		return nil
	}
	c := &SigChecker{jobs: make(chan sigJob, sigQueue), later: make(chan *batch, 4), stop: make(chan struct{})}
	c.wg.Add(n)
	for ; n > 0; n-- {
		go c.run()
	}
	return c
}

// run takes a queued offer first, the next item of the batch in hand
// second, and parks only when there is neither.
func (c *SigChecker) run() {
	defer c.wg.Done()
	var b *batch // the batch in hand
	for {
		var j sigJob
		select {
		case j = <-c.jobs:
		case <-c.stop:
			return
		default:
			if b != nil && b.step(&c.ahead[b.kind]) {
				continue
			}
			b = nil // let the walked batch go
			select {
			case j = <-c.jobs:
			case b = <-c.later:
				continue
			case <-c.stop:
				return
			}
		}
		if j.cell.compute(j.sig, j.msg) {
			c.ahead[aheadTx].Add(1)
		}
	}
}

// Offer hands v's check over unless it is claimed already. It never
// blocks: a full queue or a closed checker drops the offer and the first
// reader computes inline.
func (c *SigChecker) Offer(v *Verdict, sig Signature, msg Hash) {
	if c == nil || v.state.Load() != 0 {
		return
	}
	select {
	case c.jobs <- sigJob{v, sig, msg}:
	default:
	}
}

// queue hands b to the checkers (nil: none), never blocking: a full queue drops it.
func (c *SigChecker) queue(b *batch) {
	if c != nil {
		select {
		case c.later <- b:
		default:
		}
	}
}

// Background queues b's cells (nil: none) as background work, in the
// order they were added.
func (c *SigChecker) Background(b *SigBook) {
	if c != nil && b != nil {
		order := b.order
		c.queue(&batch{n: int64(len(order)), kind: aheadGraph, do: func(i int) bool { return order[i].cell.compute(order[i].sig, order[i].msg) }})
		b.order = nil // the book keeps the cells until it forgets them
	}
}

// Keys returns what n MustGenerateKey(NewRandReader(next)) calls would, in
// one array of key pairs over one array of private keys; the checkers (nil:
// none) derive from the caller's queue too, and the caller then waits for
// what a checker still holds, one derivation at most.
func (c *SigChecker) Keys(next func() uint64, n int) []KeyPair {
	privs, keys := make([]byte, n*ed25519.PrivateKeySize), make([]KeyPair, n)
	rand := NewRandReader(next)
	for i := range keys {
		rand.Read(privs[i*ed25519.PrivateKeySize:][:ed25519.SeedSize]) // never fails
	}
	b := &batch{n: int64(n), kind: aheadKeys, do: func(i int) bool {
		keys[i].derive(privs[i*ed25519.PrivateKeySize:][:ed25519.PrivateKeySize:ed25519.PrivateKeySize]) // Pub ends where its key does
		return true
	}}
	c.queue(b)
	for b.step(nil) {
	}
	for b.done.Load() < b.n {
		runtime.Gosched()
	}
	return keys
}

// Close stops and joins the checkers and returns what they computed ahead
// of the first read: transaction and graph signatures, and key pairs.
func (c *SigChecker) Close() (tx, graph, keys uint64) {
	if c == nil {
		return 0, 0, 0
	}
	close(c.stop)
	c.wg.Wait()
	return c.ahead[aheadTx].Load(), c.ahead[aheadGraph].Load(), c.ahead[aheadKeys].Load()
}
