package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Table 1: throughput", "Blockchain", "tps")
	tbl.AddRow("Bitcoin", 7)
	tbl.AddRow("Ethereum", 25)
	tbl.Note("source: %s", "O'Keeffe [24]")
	s := tbl.String()
	for _, want := range []string{"Table 1", "Blockchain", "Bitcoin", "25", "note: source"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendering missing %q:\n%s", want, s)
		}
	}
	// Columns aligned: the header and first row start identically.
	lines := strings.Split(s, "\n")
	if len(lines) < 4 {
		t.Fatal("too few lines")
	}
	hdrIdx := strings.Index(lines[1], "tps")
	rowIdx := strings.Index(lines[3], "7")
	if hdrIdx < 0 || rowIdx < 0 || rowIdx < hdrIdx {
		t.Fatalf("columns misaligned:\n%s", s)
	}
}

func TestFloatTrimming(t *testing.T) {
	tbl := NewTable("", "v")
	tbl.AddRow(2.5000)
	tbl.AddRow(3.0)
	tbl.AddRow(0.1234567)
	var cells []string
	for _, line := range strings.Split(tbl.String(), "\n") {
		cells = append(cells, strings.TrimSpace(line))
	}
	joined := strings.Join(cells, "|")
	if !strings.Contains(joined, "|2.5|") || !strings.Contains(joined, "|3|") || !strings.Contains(joined, "|0.1235|") {
		t.Fatalf("float trimming wrong: %s", joined)
	}
}

func TestFigureRendering(t *testing.T) {
	f := NewFigure("Figure 10", "Diam(D)", "latency (Δ)")
	h := f.AddSeries("Herlihy")
	a := f.AddSeries("AC3WN")
	for d := 2; d <= 4; d++ {
		h.Add(float64(d), float64(2*d))
		a.Add(float64(d), 4)
	}
	s := f.String()
	for _, want := range []string{"Figure 10", "Herlihy", "AC3WN", "Diam(D)", "8", "4"} {
		if !strings.Contains(s, want) {
			t.Fatalf("figure missing %q:\n%s", want, s)
		}
	}
}

func TestFigureHandlesMissingPoints(t *testing.T) {
	f := NewFigure("f", "x", "y")
	a := f.AddSeries("a")
	b := f.AddSeries("b")
	a.Add(1, 10)
	a.Add(2, 20)
	b.Add(2, 200) // b has no x=1 sample
	s := f.String()
	if !strings.Contains(s, "200") || !strings.Contains(s, "10") {
		t.Fatalf("missing data handling wrong:\n%s", s)
	}
}

func TestTimelineRendering(t *testing.T) {
	tl := &Timeline{Title: "Figure 9", Unit: "Δ"}
	tl.Add(0, "SCw deployed")
	tl.Add(1, "contracts deployed (parallel)")
	tl.Add(4, "all redeemed")
	s := tl.String()
	if !strings.Contains(s, "SCw deployed") || !strings.Contains(s, "t=") {
		t.Fatalf("timeline rendering wrong:\n%s", s)
	}
}

// TestConcurrentUse hammers every container from many goroutines.
// Run with -race (the CI does): the collector layer of the
// orchestration engine feeds these from concurrent shard workers, so
// any unguarded state here is a real bug, not a theoretical one.
func TestConcurrentUse(t *testing.T) {
	table := NewTable("concurrent", "a", "b")
	fig := NewFigure("fig", "x", "y")
	tl := &Timeline{Title: "tl", Unit: "s"}
	hist := NewHist(10, 100, 1000)

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			series := fig.AddSeries(fmt.Sprintf("s%d", w))
			for i := 0; i < perWorker; i++ {
				table.AddRow(w, i)
				table.Note("worker %d note %d", w, i)
				series.Add(float64(i), float64(w))
				tl.Add(float64(i), "event")
				hist.Observe(int64(i * w))
				// Concurrent rendering must also be safe: progress
				// reporters print while shards still collect.
				if i%50 == 0 {
					_ = table.String()
					_ = fig.String()
					_ = tl.String()
					_ = hist.Snapshot()
				}
			}
		}()
	}
	wg.Wait()

	if got := len(table.Rows); got != workers*perWorker {
		t.Fatalf("table rows = %d, want %d", got, workers*perWorker)
	}
	snap := hist.Snapshot()
	if snap.Count != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", snap.Count, workers*perWorker)
	}
	var bucketTotal uint64
	for _, c := range snap.Counts {
		bucketTotal += c
	}
	if bucketTotal != snap.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, snap.Count)
	}
}

func TestHistBuckets(t *testing.T) {
	h := NewHist(10, 100)
	for _, v := range []int64{-5, 10, 11, 100, 101, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2} // (-inf,10], (10,100], (100,inf)
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, s.Counts[i], c, s.Counts)
		}
	}
	if s.Min != -5 || s.Max != 5000 || s.Sum != -5+10+11+100+101+5000 {
		t.Fatalf("bad summary: %+v", s)
	}
}

func TestHistQuantile(t *testing.T) {
	h := NewHist(10, 20, 40, 80)
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	cases := []struct {
		q      float64
		lo, hi int64 // acceptable interpolation window
	}{
		{0.5, 40, 60},   // true p50 = 50
		{0.99, 81, 100}, // true p99 = 99, overflow bucket clamps to [81, max]
		{0.01, 1, 10},
		{1.0, 100, 100},
		{0.0, 1, 1},
	}
	for _, c := range cases {
		got := s.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Fatalf("Quantile(%v) = %d, want within [%d, %d]", c.q, got, c.lo, c.hi)
		}
	}
	if got := NewHist(1).Snapshot().Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram Quantile = %d, want 0", got)
	}
	// Single-sample histogram: every quantile is that sample.
	one := NewHist(10, 20)
	one.Observe(15)
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if got := one.Snapshot().Quantile(q); got != 15 {
			t.Fatalf("single-sample Quantile(%v) = %d, want 15", q, got)
		}
	}
}

func TestHistMerge(t *testing.T) {
	a := NewHist(10, 100)
	b := NewHist(10, 100)
	for _, v := range []int64{1, 5, 50} {
		a.Observe(v)
	}
	for _, v := range []int64{7, 200} {
		b.Observe(v)
	}
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 5 || s.Sum != 263 || s.Min != 1 || s.Max != 200 {
		t.Fatalf("merged stats wrong: %+v", s)
	}
	if s.Counts[0] != 3 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("merged counts wrong: %v", s.Counts)
	}
	// Merging into an empty histogram adopts min/max.
	c := NewHist(10, 100)
	c.Merge(b)
	cs := c.Snapshot()
	if cs.Min != 7 || cs.Max != 200 || cs.Count != 2 {
		t.Fatalf("empty-merge stats wrong: %+v", cs)
	}
	// Merging an empty histogram is a no-op.
	c.Merge(NewHist(10, 100))
	if c.Snapshot().Count != 2 {
		t.Fatal("empty merge changed count")
	}
	// Mismatched bounds must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("Merge with mismatched bounds did not panic")
		}
	}()
	a.Merge(NewHist(1, 2))
}
