package chain

import (
	"bytes"
	"testing"
)

// TestOutPointCompareIsTotalOrder pins the canonical outpoint order
// every sequence-producing consumer (funding selection, genesis
// layout) sorts with: transaction id bytes first, then output index.
func TestOutPointCompareIsTotalOrder(t *testing.T) {
	var lo, hi OutPoint
	hi.TxID[0] = 1
	pts := []OutPoint{
		lo,
		{TxID: lo.TxID, Index: 1},
		{TxID: lo.TxID, Index: 2},
		hi,
		{TxID: hi.TxID, Index: 5},
	}
	for i, p := range pts {
		for j, q := range pts {
			got := p.Compare(q)
			switch {
			case i == j && got != 0:
				t.Errorf("Compare(%v, %v) = %d, want 0", p, q, got)
			case i < j && got >= 0:
				t.Errorf("Compare(%v, %v) = %d, want < 0", p, q, got)
			case i > j && got <= 0:
				t.Errorf("Compare(%v, %v) = %d, want > 0", p, q, got)
			}
			if got != -q.Compare(p) {
				t.Errorf("Compare(%v, %v) not antisymmetric", p, q)
			}
		}
	}
	// The id comparison is byte-lexicographic, matching bytes.Compare.
	if got, want := pts[0].Compare(pts[3]), bytes.Compare(lo.TxID[:], hi.TxID[:]); got != want {
		t.Errorf("id ordering %d disagrees with bytes.Compare %d", got, want)
	}
}
