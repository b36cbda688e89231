package crypto

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// sigCases are the signatures a verdict cell must judge as
// Signature.Verify does alone: one that verifies and four that do not.
func sigCases(t *testing.T) (msg Hash, cases map[string]Signature) {
	t.Helper()
	key := testKey(t, 60)
	msg = Sum([]byte("body"))
	good := key.Sign(msg[:])
	forgedSig, forgedPub, truncated := good.Clone(), good.Clone(), good.Clone()
	forgedSig.Sig[0] ^= 1
	forgedPub.Pub[0] ^= 1
	truncated.Sig = truncated.Sig[:63]
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
	verified, _ := ck.Close()
	var waited uint64
	for _, tl := range tallies {
		verified += tl.Inline
		waited += tl.Waited
	}
	if verified != uint64(len(cells)) {
		t.Fatalf("%d verifications for %d cells", verified, len(cells))
	}
	t.Logf("%d cells: %d verified by readers inline, %d reads waited on a checker", len(cells), verified-ck.offered.Load(), waited)
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
		ahead, _ := ck.Close()
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
		if offered, background := ck.Close(); !v.Read(good, msg, &tl) || tl.Inline != 1 || offered+background != 0 {
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
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
			select {
			case <-done:
				t.Fatal("Read returned while the verdict was still being computed")
			default:
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
		c.sig = c.v.SignLater(c.key)
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
	computed, _ := ck.Close()
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
	offered, background := ck.Close()
	if offered != 1 || unclaimed < cells/2 {
		t.Fatalf("%d offers computed with %d of %d background cells unclaimed; want 1 with most of them", offered, unclaimed, cells)
	}

	idle := &SigChecker{books: make(chan []*sigJob, 1)}
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
	forged := sig.Clone()
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
