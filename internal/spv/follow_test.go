package spv

import (
	"errors"
	"testing"

	"repro/internal/chain"
	"repro/internal/crypto"
)

func TestFollowTracksChainGrowth(t *testing.T) {
	f := newFixture(t, 3)
	ln, err := Follow(f.view)
	if err != nil {
		t.Fatal(err)
	}
	// Seeded with the existing history.
	if ln.Tip().Hash() != f.view.Tip().Header.Hash() {
		t.Fatal("follower not seeded to the view's tip")
	}
	// Future blocks arrive through the notification feed, no rescan.
	for i := 0; i < 4; i++ {
		f.mine()
		if ln.Tip().Hash() != f.view.Tip().Header.Hash() {
			t.Fatalf("follower lost the tip after block %d", i)
		}
	}
	if ln.HeaderCount() != int(f.view.Height())+1 {
		t.Fatalf("follower holds %d headers, view height %d", ln.HeaderCount(), f.view.Height())
	}
}

func TestFollowTracksReorg(t *testing.T) {
	f := newFixture(t, 1) // canonical: genesis <- b1(tx) <- b2
	ln, err := Follow(f.view)
	if err != nil {
		t.Fatal(err)
	}
	// Build a longer competing branch on a twin view with the same
	// genesis and let the followed view adopt it.
	alt, err := chain.NewChain(f.view.Params(), nil, chain.GenesisAlloc{f.key.Addr: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	if alt.Genesis().Hash() != f.view.Genesis().Hash() {
		t.Fatal("twin view disagrees on genesis")
	}
	for i := 0; i < 3; i++ {
		b, _, _ := alt.BuildBlock(f.key.Addr, f.now+forkTime(i), nil)
		b.Header.Seal(f.rng.Uint64())
		if _, err := alt.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if _, err := f.view.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if f.view.Reorgs != 1 {
		t.Fatalf("view Reorgs = %d, want 1", f.view.Reorgs)
	}
	if ln.Tip().Hash() != f.view.Tip().Header.Hash() {
		t.Fatal("follower did not switch to the winning fork")
	}
	// The rewind re-links the index from Parent links alone; it must
	// land on the view's canonical block at every height.
	for h := uint64(0); h <= f.view.Height(); h++ {
		want, _ := f.view.CanonicalAt(h)
		if ln.byHeight[h] != want.Hash() {
			t.Fatalf("height %d: follower indexes %s, view has %s", h, ln.byHeight[h], want.Hash())
		}
	}
	// The follower's canonical index must validate inclusion against
	// the new branch, not the stale one: the old tx's block is no
	// longer canonical.
	b, _, found := f.view.FindTx(f.tx.ID())
	if found {
		t.Fatalf("tx unexpectedly canonical after reorg (block %s)", b.Hash())
	}
}

// TestFollowSurfacesDesync is the regression test for the swallowed
// AddHeader error: a follower anchored at a recent checkpoint that
// sees a reorg reaching below its anchor cannot connect the adopted
// branch — that failure used to vanish inside the tip-change callback,
// leaving the follower silently stale forever. It must now be counted,
// retained, and delivered to the error hook.
func TestFollowSurfacesDesync(t *testing.T) {
	f := newFixture(t, 3) // canonical: genesis <- b1(tx) <- b2 <- b3 <- b4
	cp, ok := f.view.CanonicalAt(2)
	if !ok {
		t.Fatal("no canonical block at height 2")
	}
	fl, err := FollowFrom(f.view, cp.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if fl.Tip().Hash() != f.view.Tip().Header.Hash() {
		t.Fatal("checkpoint follower not seeded to the view's tip")
	}
	var hooked []error
	fl.OnError(func(e error) { hooked = append(hooked, e) })

	// A longer branch forking at genesis — deeper than the follower's
	// anchor at height 2.
	alt, err := chain.NewChain(f.view.Params(), nil, chain.GenesisAlloc{f.key.Addr: 1_000})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		b, _, _ := alt.BuildBlock(f.key.Addr, forkTime(i), nil)
		b.Header.Seal(f.rng.Uint64())
		if _, err := alt.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if _, err := f.view.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if f.view.Reorgs != 1 {
		t.Fatalf("view Reorgs = %d, want 1", f.view.Reorgs)
	}
	if f.view.MaxReorgDepth < 4 {
		t.Fatalf("view MaxReorgDepth = %d, want >= 4", f.view.MaxReorgDepth)
	}
	if fl.Synced() || fl.Desyncs == 0 {
		t.Fatal("deep reorg below the anchor did not surface as a desync")
	}
	if fl.LastErr == nil || !errors.Is(fl.LastErr, ErrUnknownHeader) {
		t.Fatalf("LastErr = %v, want ErrUnknownHeader", fl.LastErr)
	}
	if len(hooked) == 0 {
		t.Fatal("error hook never invoked")
	}
	// The stale follower keeps its old tip — visible, not pretending.
	if fl.Tip().Hash() == f.view.Tip().Header.Hash() {
		t.Fatal("desynced follower claims the view's tip")
	}
}

// TestFollowFromRejectsNonCanonicalCheckpoint pins the anchor
// validation.
func TestFollowFromRejectsNonCanonicalCheckpoint(t *testing.T) {
	f := newFixture(t, 1)
	if _, err := FollowFrom(f.view, crypto.Hash{0xde, 0xad}); err == nil {
		t.Fatal("FollowFrom accepted an unknown checkpoint")
	}
}

// forkTime spaces fork-block timestamps.
func forkTime(i int) int64 { return int64(i+1) * 1000 }
