package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Verdict is one signature check that two goroutines may share
// (ADR-021): computed exactly once, by Signature.Verify, by whoever
// claims the cell first — a SigChecker ahead of need or the first reader
// inline. The signed bytes are final before the first Offer or Read.
type Verdict struct{ state atomic.Uint32 }

const (
	verdictClaimed = iota + 1 // zero is unclaimed
	verdictInvalid
	verdictValid
)

// SigTally counts a reader's own verifications and its waits for a
// checker's: the host scheduler's doing, so diagnostics, never results.
type SigTally struct{ Inline, Waited uint64 }

// compute claims the cell, verifies and publishes; false if it was claimed.
func (v *Verdict) compute(sig Signature, msg Hash) bool {
	if !v.state.CompareAndSwap(0, verdictClaimed) {
		return false
	}
	if sig.Verify(msg[:]) {
		v.state.Store(verdictValid)
	} else {
		v.state.Store(verdictInvalid)
	}
	return true
}

// Read returns sig.Verify(msg), computing it if nobody has, and yielding
// for what is left of one verification (≈ 60 µs; parking on a sync.Cond
// measured no cheaper) if a checker is on it just now.
func (v *Verdict) Read(sig Signature, msg Hash, t *SigTally) bool {
	if v.compute(sig, msg) {
		t.Inline++
	} else if v.state.Load() == verdictClaimed {
		t.Waited++
		for v.state.Load() == verdictClaimed {
			runtime.Gosched()
		}
	}
	return v.state.Load() == verdictValid
}

// SigChecker computes verdicts on goroutines of its own, between a
// signature's last write and its verdict's first read. A nil one checks
// nothing: first readers compute inline, the arm that always exists.
type SigChecker struct {
	jobs  chan sigJob // by value: a hand-off allocates nothing
	stop  chan struct{}
	wg    sync.WaitGroup
	ahead atomic.Uint64
}

// sigJob is all a checker sees of the object the cell lives in.
type sigJob struct {
	cell *Verdict
	sig  Signature
	msg  Hash
}

// NewSigChecker starts n checkers, or none (nil) if n <= 0. The queue is
// short: a checker that keeps up is a job behind, and one that does not
// should stay on recent offers — older ones are computed inline before
// it would reach them.
func NewSigChecker(n int) *SigChecker {
	if n <= 0 {
		return nil
	}
	c := &SigChecker{jobs: make(chan sigJob, 64), stop: make(chan struct{})}
	c.wg.Add(n)
	for ; n > 0; n-- {
		go c.run()
	}
	return c
}

// run drains the queue and parks only when it is empty.
func (c *SigChecker) run() {
	defer c.wg.Done()
	for {
		select {
		case j := <-c.jobs:
			if j.cell.compute(j.sig, j.msg) {
				c.ahead.Add(1)
			}
		case <-c.stop:
			return
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

// Close stops and joins the checkers and returns how many verdicts they
// computed ahead of the first read.
func (c *SigChecker) Close() uint64 {
	if c == nil {
		return 0
	}
	close(c.stop)
	c.wg.Wait()
	return c.ahead.Load()
}
