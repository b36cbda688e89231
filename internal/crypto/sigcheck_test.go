package crypto

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

// sigCases are the signatures a verdict cell must judge as
// Signature.Verify does alone: one that verifies and four that do not.
func sigCases(t *testing.T) (msg Hash, cases map[string]Signature) {
	t.Helper()
	key := testKey(t, 60)
	msg = Sum([]byte("body"))
	good := key.Sign(msg[:])
	forgedSig := Signature{Pub: good.Pub, Sig: slices.Clone(good.Sig)}
	forgedSig.Sig[0] ^= 1
	forgedPub := Signature{Pub: slices.Clone(good.Pub), Sig: good.Sig}
	forgedPub.Pub[0] ^= 1
	truncated := Signature{Pub: good.Pub, Sig: good.Sig[:63]}
	return msg, map[string]Signature{
		"valid": good, "forged sig": forgedSig, "forged pub": forgedPub, "truncated": truncated, "empty": {},
	}
}

// TestVerdictOneVerificationWhoeverClaims races readers against a
// checker over many cells of every kind: each reader sees what
// Signature.Verify says, and verifications counted where they happen —
// the readers' tallies and the checker's count — add up to one per cell.
func TestVerdictOneVerificationWhoeverClaims(t *testing.T) {
	msg, cases := sigCases(t)
	const perCase, readers = 40, 4
	type cell struct {
		v    Verdict
		sig  Signature
		want bool
		name string
	}
	var cells []*cell
	for name, sig := range cases {
		for i := 0; i < perCase; i++ {
			cells = append(cells, &cell{sig: sig, want: sig.Verify(msg[:]), name: name})
		}
	}
	ck := NewSigChecker(2)
	tallies := make([]SigTally, readers)
	var wg sync.WaitGroup
	for r := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cells {
				c := cells[(i+r*len(cells)/readers)%len(cells)] // each reader starts elsewhere
				if got := c.v.Read(c.sig, msg, &tallies[r]); got != c.want {
					t.Errorf("%s: Read = %v, Signature.Verify = %v", c.name, got, c.want)
				}
			}
		}()
	}
	for _, c := range cells {
		ck.Offer(&c.v, c.sig, msg)
	}
	wg.Wait()
	verified, _, _ := ck.Close()
	var waited uint64
	for _, tl := range tallies {
		verified += tl.Inline
		waited += tl.Waited
	}
	if verified != uint64(len(cells)) {
		t.Fatalf("%d verifications for %d cells", verified, len(cells))
	}
	t.Logf("%d cells: %d verified by readers inline, %d reads waited on a checker", len(cells), verified-ck.ahead[aheadTx].Load(), waited)
	var again SigTally
	for _, c := range cells {
		if c.v.Read(c.sig, msg, &again) != c.want {
			t.Errorf("%s: stored verdict differs", c.name)
		}
	}
	if again != (SigTally{}) {
		t.Fatalf("reading stored verdicts verified or waited again: %+v", again)
	}
}

// TestVerdictReaderNeverBlocksOnTheQueue: whatever state the checker is
// in, a reader gets its verdict after at most one verification.
func TestVerdictReaderNeverBlocksOnTheQueue(t *testing.T) {
	msg, cases := sigCases(t)
	good, bad := cases["valid"], cases["forged sig"]

	t.Run("queue full, nobody draining", func(t *testing.T) {
		ck := &SigChecker{jobs: make(chan sigJob, 2), stop: make(chan struct{})}
		cells := make([]Verdict, 5)
		for i := range cells {
			ck.Offer(&cells[i], good, msg) // the third to fifth are dropped
		}
		if len(ck.jobs) != 2 {
			t.Fatalf("%d jobs queued, want 2", len(ck.jobs))
		}
		var tl SigTally
		for i := range cells {
			if !cells[i].Read(good, msg, &tl) {
				t.Fatal("valid signature rejected")
			}
		}
		if tl != (SigTally{Inline: 5}) {
			t.Fatalf("tally %+v, want five inline: queued or dropped, nobody had claimed them", tl)
		}
		ck.Offer(&cells[0], good, msg)
		if len(ck.jobs) != 2 {
			t.Fatal("a known verdict was handed off again")
		}
	})

	t.Run("closed before and while jobs are queued", func(t *testing.T) {
		ck := NewSigChecker(1)
		cells := make([]Verdict, 200)
		for i := range cells[:100] {
			ck.Offer(&cells[i], bad, msg)
		}
		ahead, _, _ := ck.Close()
		for i := range cells[100:] {
			ck.Offer(&cells[100+i], bad, msg) // lands in the queue or is dropped; nobody will come
		}
		var tl SigTally
		for i := range cells {
			if cells[i].Read(bad, msg, &tl) {
				t.Fatal("forged signature accepted")
			}
		}
		if ahead+tl.Inline != uint64(len(cells)) || tl.Waited != 0 {
			t.Fatalf("%d ahead + %d inline for %d cells, %d waited", ahead, tl.Inline, len(cells), tl.Waited)
		}
	})

	t.Run("nil checker", func(t *testing.T) {
		var ck *SigChecker
		var v Verdict
		ck.Offer(&v, good, msg)
		var tl SigTally
		if offered, background, _ := ck.Close(); !v.Read(good, msg, &tl) || tl.Inline != 1 || offered+background != 0 {
			t.Fatalf("tally %+v", tl)
		}
		if NewSigChecker(0) != nil || NewSigChecker(-1) != nil {
			t.Fatal("a checker without goroutines is not nil")
		}
	})

	// The running job: a reader that meets a claimed cell returns when,
	// and only when, the claimant publishes.
	t.Run("claimed by a checker in mid-verification", func(t *testing.T) {
		var v Verdict
		if !v.state.CompareAndSwap(0, verdictClaimed) { // what run does on taking a job
			t.Fatal("fresh cell not claimable")
		}
		var tl SigTally
		done := make(chan bool)
		go func() { done <- v.Read(good, msg, &tl) }()
		for !yieldingIn("(*Verdict).Read") {
			select {
			case <-done:
				t.Fatal("Read returned while the verdict was still being computed")
			default:
				runtime.Gosched()
			}
		}
		v.state.Store(verdictInvalid) // the claimant's verdict, not the reader's
		if <-done {
			t.Fatal("the reader answered for itself instead of reading the claimant's verdict")
		}
		if tl != (SigTally{Waited: 1}) {
			t.Fatalf("tally %+v, want one wait", tl)
		}
	})
}

// yieldingIn reports whether some goroutine is yielding in runtime.Gosched
// called from fn: observably waiting there, not merely about to.
func yieldingIn(fn string) bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if i := strings.Index(g, "runtime.Gosched("); i >= 0 && strings.Contains(g[i:], fn) {
			return true
		}
	}
	return false
}

func TestSigHandOffDoesNotAllocate(t *testing.T) {
	msg, cases := sigCases(t)
	good := cases["valid"]
	ck := NewSigChecker(1)
	defer ck.Close()
	var tl SigTally
	if n := testing.AllocsPerRun(200, func() {
		var v Verdict
		ck.Offer(&v, good, msg)
		v.Read(good, msg, &tl)
	}); n > 1 { // the cell itself, which escapes into the job
		t.Fatalf("a hand-off and a read allocate %.0f times", n)
	}
}

// TestSigningCellClaimedOnce: a cell that came with its signer's key
// (SignLater) is written and verified once, by whoever claims it — a
// checker or one of the readers racing it — and every reader sees the
// signature KeyPair.Sign gives. Until then the bytes are zeros.
func TestSigningCellClaimedOnce(t *testing.T) {
	const cells, readers = 120, 4
	type cell struct {
		v   Verdict
		sig Signature
		msg Hash
		key *KeyPair
	}
	cs := make([]*cell, cells)
	for i := range cs {
		c := &cell{key: testKey(t, uint64(70+i%3)), msg: Sum([]byte{byte(i)})}
		c.sig = c.v.SignLater(c.key, new([SignedLen]byte))
		if !bytes.Equal(c.sig.Pub, c.key.Pub) || !bytes.Equal(c.sig.Sig, make([]byte, 64)) {
			t.Fatal("an unclaimed cell's signature is not the key and 64 zeros")
		}
		cs[i] = c
	}
	ck := NewSigChecker(2)
	tallies := make([]SigTally, readers)
	var wg sync.WaitGroup
	for r := range tallies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range cs {
				c := cs[(i+r*cells/readers)%cells]
				if !c.v.Read(c.sig, c.msg, &tallies[r]) || !c.sig.Equal(c.key.Sign(c.msg[:])) {
					t.Errorf("cell %d: rejected, or not the key's signature", i)
				}
			}
		}()
	}
	for _, c := range cs {
		ck.Offer(&c.v, c.sig, c.msg)
	}
	wg.Wait()
	computed, _, _ := ck.Close()
	for _, tl := range tallies {
		computed += tl.Inline
	}
	if computed != cells {
		t.Fatalf("%d cells written and verified %d times", cells, computed)
	}
}

// TestBackgroundNeverDelaysAnOffer: a book's cells are the checker's
// background work, taken one at a time and only while no offer is
// queued. An offer made behind a thousand of them is computed while
// most are still unclaimed, not after them. A Background that finds the
// queue full drops the book instead of blocking, and its cells are then
// written by their readers.
func TestBackgroundNeverDelaysAnOffer(t *testing.T) {
	const cells = 1000
	msg, cases := sigCases(t)
	key := testKey(t, 80)
	digest := func(i int) Hash { return Sum([]byte{byte(i), byte(i >> 8)}) }
	book := NewSigBook()
	for i := 0; i < cells; i++ {
		book.Add(digest(i), key)
	}
	jobs := book.order
	ck := NewSigChecker(1)
	ck.Background(book)
	var v Verdict
	ck.Offer(&v, cases["valid"], msg)
	for v.state.Load() != verdictValid {
		runtime.Gosched()
	}
	unclaimed := 0
	for _, j := range jobs {
		if j.cell.state.Load() == 0 {
			unclaimed++
		}
	}
	offered, background, _ := ck.Close()
	if offered != 1 || unclaimed < cells/2 {
		t.Fatalf("%d offers computed with %d of %d background cells unclaimed; want 1 with most of them", offered, unclaimed, cells)
	}

	idle := &SigChecker{later: make(chan *batch, 1)}
	idle.Background(book)
	book.order = jobs
	idle.Background(book) // dropped: the queue is full
	for i := 0; i < cells; i++ {
		d := digest(i)
		if sig := book.Sign(key, d); i%100 == 0 && !sig.Equal(key.Sign(d[:])) {
			t.Fatal("a book's signature is not the key's")
		}
	}
	if w := book.Written; background+w.Inline != cells || w.Waited != 0 {
		t.Fatalf("%d background + %d written by the reader (%d waited) for %d cells", background, w.Inline, w.Waited, cells)
	}
}

// TestSigBookAnswersOnlyForItsBytes: Verify reads a cell's verdict for
// the bytes that cell wrote and verifies anything else inline — other
// bytes under a known (signer, digest), a signer or digest the book does
// not hold, any signature given a nil book.
func TestSigBookAnswersOnlyForItsBytes(t *testing.T) {
	alice, bob := testKey(t, 81), testKey(t, 82)
	digest := Sum([]byte("(D, t)"))
	book := NewSigBook()
	book.Add(digest, alice)
	sig := book.Sign(alice, digest)
	forged := Signature{Pub: sig.Pub, Sig: slices.Clone(sig.Sig)}
	forged.Sig[5] ^= 1
	other := Sum([]byte("(D', t)"))
	for _, c := range []struct {
		name          string
		sig           Signature
		digest        Hash
		want          bool
		ready, inline uint64
	}{
		{"its bytes", sig, digest, true, 1, 0},
		{"other bytes, same signer and digest", forged, digest, false, 0, 1},
		{"signer not in the book", bob.Sign(digest[:]), digest, true, 0, 1},
		{"digest not in the book", alice.Sign(other[:]), other, true, 0, 1},
	} {
		ready, inline := book.Ready, book.Checked.Inline
		if got := book.Verify(c.sig, c.digest); got != c.want || book.Ready-ready != c.ready || book.Checked.Inline-inline != c.inline {
			t.Errorf("%s: Verify = %v, %d ready, %d inline; want %v, %d, %d", c.name, got, book.Ready-ready, book.Checked.Inline-inline, c.want, c.ready, c.inline)
		}
	}
	var none *SigBook
	if !none.Verify(sig, digest) || none.Verify(forged, digest) || !none.Sign(bob, digest).Equal(bob.Sign(digest[:])) {
		t.Fatal("a nil book does not verify or sign inline")
	}
	if book.Written != (SigTally{Inline: 1}) {
		t.Fatalf("tally %+v: want the book's one cell written here", book.Written)
	}
}

// TestAssumeOnlyOwnSignaturesOfASettlingTally: a tally that settles later
// takes an own signature (SignLater's) nobody has published a verdict for
// as valid, computing nothing and holding the cell once however often it
// is asked. Foreign bytes — a cell without a key — and every read through
// a tally that does not settle are read strictly, a published verdict is
// returned as it is, and a held cell that a strict reader computed is
// counted by the tally that holds it, when it lets go.
func TestAssumeOnlyOwnSignaturesOfASettlingTally(t *testing.T) {
	msg, cases := sigCases(t)
	key := testKey(t, 90)
	var settling, strict SigTally
	settling.SettleLater()

	var own Verdict
	sig := own.SignLater(key, new([SignedLen]byte))
	for range 2 {
		if !own.Assume(sig, msg, &settling) {
			t.Fatal("own signature rejected before its verdict exists")
		}
	}
	if settling.Assumed != 2 || settling.Inline != 0 || len(*settling.ledger) != 1 || !bytes.Equal(sig.Sig, make([]byte, 64)) {
		t.Fatalf("tally %+v, %d held: want two reads assumed, one cell held, nothing written", settling, len(*settling.ledger))
	}
	var foreign Verdict
	if foreign.Assume(cases["forged sig"], msg, &settling) || settling.Inline != 1 || len(*settling.ledger) != 1 {
		t.Fatalf("foreign bytes assumed: tally %+v", settling)
	}
	var strictOwn Verdict
	if !strictOwn.Assume(strictOwn.SignLater(key, new([SignedLen]byte)), msg, &strict) || strict != (SigTally{Inline: 1}) {
		t.Fatalf("a tally that does not settle assumed: %+v", strict)
	}

	if !settling.Settle(nil) || settling.Settled != 1 || settling.Inline != 2 || !sig.Equal(key.Sign(msg[:])) {
		t.Fatalf("settle: tally %+v; want the held cell computed, and the key's signature", settling)
	}
	if !own.Assume(sig, msg, &settling) || settling.Assumed != 2 || len(*settling.ledger) != 0 {
		t.Fatalf("a published verdict was assumed again: %+v", settling)
	}

	var read Verdict
	rsig := read.SignLater(key, new([SignedLen]byte))
	read.Assume(rsig, msg, &settling)
	var other SigTally
	if !read.Read(rsig, msg, &other) || other != (SigTally{}) || !rsig.Equal(key.Sign(msg[:])) {
		t.Fatalf("a strict read of a held cell: tally %+v, want it computed and counted where the cell is held", other)
	}
	if inline := settling.Inline; !settling.Settle(nil) || settling.Inline != inline+1 || settling.Settled != 1 {
		t.Fatalf("tally %+v: the strict read's computation is not counted where the cell was held", settling)
	}
}

// TestSettleFindsAnInvalidOwnSignature: the one way an own signature is
// invalid — a key pair whose halves disagree — is assumed valid like any
// other, and the settle says so, whether it computes the verdict or a
// checker published it before and the ledger has filled since. The cell
// stays in the ledger: every later settle says so too.
func TestSettleFindsAnInvalidOwnSignature(t *testing.T) {
	msg := Sum([]byte("body"))
	good, bad := testKey(t, 91), *testKey(t, 91)
	bad.Pub = testKey(t, 92).Pub

	var tl SigTally
	tl.SettleLater()
	var v Verdict
	sig := v.SignLater(&bad, new([SignedLen]byte))
	if !v.Assume(sig, msg, &tl) {
		t.Fatal("own signature rejected before its verdict exists")
	}
	if tl.Settle(nil) || v.Assume(sig, msg, &tl) || tl.Settle(nil) {
		t.Fatal("a disagreeing key pair's signature settled valid, or left the ledger")
	}

	tl = SigTally{}
	tl.SettleLater()
	var w Verdict
	wsig := w.SignLater(&bad, new([SignedLen]byte))
	w.Assume(wsig, msg, &tl)
	w.compute(wsig, msg) // what a checker does with the cell's offer
	cells := make([]Verdict, 2*sigQueue)
	for i := range cells {
		cells[i].Assume(cells[i].SignLater(good, new([SignedLen]byte)), msg, &tl)
	}
	if tl.Settle(nil) {
		t.Fatal("an invalid verdict published after its cell was assumed left the ledger")
	}
}

// TestLedgerHoldsAtMostTheQueue: a settling tally holds at most sigQueue
// cells nobody has published. Past that a read is strict — the world
// computes the newest cell itself — until a checker publishes held cells
// and the full ledger lets go of them, wherever they sit; the settle
// computes what is left. One computation per cell.
func TestLedgerHoldsAtMostTheQueue(t *testing.T) {
	msg := Sum([]byte("body"))
	key := testKey(t, 93)
	var tl SigTally
	tl.SettleLater()
	cells := make([]Verdict, 3*sigQueue)
	sigs := make([]Signature, len(cells))
	read := func(from, to int) {
		for i := from; i < to; i++ {
			sigs[i] = cells[i].SignLater(key, new([SignedLen]byte))
			if !cells[i].Assume(sigs[i], msg, &tl) || len(*tl.ledger) > sigQueue {
				t.Fatalf("cell %d: rejected, or %d cells held", i, len(*tl.ledger))
			}
		}
	}
	read(0, 2*sigQueue)
	if tl.Assumed != sigQueue || tl.Inline != sigQueue || tl.Waited != 0 {
		t.Fatalf("tally %+v: want the first %d reads assumed and the rest computed", tl, sigQueue)
	}
	for i := 1; i < sigQueue; i += 2 {
		cells[i].compute(sigs[i], msg) // a checker publishes every other held cell
	}
	read(2*sigQueue, len(cells))
	if tl.Assumed != sigQueue+sigQueue/2 || tl.Inline != sigQueue+sigQueue/2 {
		t.Fatalf("tally %+v: want the published half let go and as many reads assumed again", tl)
	}
	if !tl.Settle(nil) || tl.Settled != sigQueue || tl.Inline+sigQueue/2 != uint64(len(cells)) {
		t.Fatalf("tally %+v after the settle", tl)
	}
	for i := range cells {
		if !sigs[i].Equal(key.Sign(msg[:])) {
			t.Fatalf("cell %d: not the key's signature after the settle", i)
		}
	}
}

// TestSettleRacesAChecker: a world reading every cell through a settling
// tally while a checker works the same cells from the oldest offer, then
// settling. Every cell is computed once, by one side, and is the key's
// signature; the checker may still hold a claim when the settle comes.
func TestSettleRacesAChecker(t *testing.T) {
	const cells = 400
	msg := Sum([]byte("body"))
	key := testKey(t, 94)
	vs := make([]Verdict, cells)
	sigs := make([]Signature, cells)
	ck := NewSigChecker(1)
	var tl SigTally
	tl.SettleLater()
	for i := range vs {
		sigs[i] = vs[i].SignLater(key, new([SignedLen]byte))
		ck.Offer(&vs[i], sigs[i], msg)
		if !vs[i].Assume(sigs[i], msg, &tl) {
			t.Fatalf("cell %d rejected", i)
		}
	}
	if !tl.Settle(nil) {
		t.Fatal("valid signatures did not settle")
	}
	ahead, _, _ := ck.Close()
	if ahead+tl.Inline != cells {
		t.Fatalf("%d ahead + %d inline for %d cells (tally %+v)", ahead, tl.Inline, cells, tl)
	}
	for i := range vs {
		if !sigs[i].Equal(key.Sign(msg[:])) {
			t.Fatalf("cell %d: not the key's signature", i)
		}
	}
}

// TestKeysMatchTheSerialPath: a key batch, derived alone, shared with a
// checker or handed to a checker that has stopped, is n serial
// MustGenerateKey(NewRandReader(next)) calls: the same public keys,
// addresses and signatures, and the RNG left where those calls leave it.
// Each public key ends where its key's slot of the batch's array does.
func TestKeysMatchTheSerialPath(t *testing.T) {
	digest := Sum([]byte("(D, t)"))
	closed := NewSigChecker(1)
	closed.Close()
	for _, c := range []struct {
		name string
		ck   func() *SigChecker
	}{
		{"no checker", func() *SigChecker { return nil }},
		{"one checker", func() *SigChecker { return NewSigChecker(1) }},
		{"a stopped checker", func() *SigChecker { return closed }},
	} {
		for _, n := range []int{0, 1, 2, 65} {
			serial, batched := sim.NewRNG(uint64(n)), sim.NewRNG(uint64(n))
			ck := c.ck()
			keys := ck.Keys(batched.Uint64, n)
			var ahead uint64 // final once Keys returns
			if ck != nil {
				ahead = ck.ahead[aheadKeys].Load()
			}
			if ck != closed {
				ck.Close()
			}
			if len(keys) != n || ahead > uint64(n) || (ck == nil && ahead != 0) {
				t.Fatalf("%s, n=%d: %d keys, %d derived ahead", c.name, n, len(keys), ahead)
			}
			for i, k := range keys {
				want := MustGenerateKey(NewRandReader(serial.Uint64))
				if !bytes.Equal(k.Pub, want.Pub) || k.Addr != want.Addr || !k.Sign(digest[:]).Equal(want.Sign(digest[:])) {
					t.Fatalf("%s, n=%d: key %d is not the serial path's", c.name, n, i)
				}
				if cap(k.Pub) != len(k.Pub) {
					t.Fatalf("%s, n=%d: key %d's public key runs into its neighbour's", c.name, n, i)
				}
			}
			if serial.Uint64() != batched.Uint64() {
				t.Fatalf("%s, n=%d: the RNG is not where the serial path leaves it", c.name, n)
			}
			t.Logf("%s, n=%d: %d of %d derived by the checker", c.name, n, ahead, n)
		}
	}
}

// TestSettleSharesItsLedger: a settle hands a checker its held cells and
// walks them from the newest end while the checker starts at the oldest.
// Every held cell is computed once, by one side, and is its key's
// signature: the checker's count and the tally's add up to the cells
// held. The settle then lets go of the cells, clearing their slots in the
// ledger, while the checker may still be walking; it walks a copy, so it
// never reads a cleared slot.
func TestSettleSharesItsLedger(t *testing.T) {
	const rounds = 50
	msg := Sum([]byte("body"))
	key := testKey(t, 95)
	want := key.Sign(msg[:])
	ck := NewSigChecker(1)
	var tl SigTally
	for range rounds {
		tl.SettleLater()
		cells := make([]Verdict, sigQueue)
		sigs := make([]Signature, len(cells))
		for i := range cells {
			sigs[i] = cells[i].SignLater(key, new([SignedLen]byte))
			cells[i].Assume(sigs[i], msg, &tl)
		}
		if len(*tl.ledger) != sigQueue {
			t.Fatalf("%d cells held, want %d", len(*tl.ledger), sigQueue)
		}
		if !tl.Settle(ck) || len(*tl.ledger) != 0 {
			t.Fatalf("valid signatures did not settle, or %d cells are still held", len(*tl.ledger))
		}
		for i := range sigs {
			if !sigs[i].Equal(want) {
				t.Fatalf("cell %d: not the key's signature after the settle", i)
			}
		}
	}
	ahead, _, _ := ck.Close()
	if ahead+tl.Inline != rounds*sigQueue || tl.Assumed != rounds*sigQueue {
		t.Fatalf("%d computed by the checker + %d by the settle for %d cells held (tally %+v)", ahead, tl.Inline, rounds*sigQueue, tl)
	}
	t.Logf("%d cells held: %d computed by the checker, %d by the settle, %d waited for", rounds*sigQueue, ahead, tl.Inline, tl.Waited)
}
