// Package metrics provides the small result-collection and
// text-rendering layer the benchmark harness uses to print
// paper-style tables and series: aligned columns for tables (Table 1,
// the cost and witness-choice tables), x/y series for figures
// (Figures 8–10), and the integer histograms the engine's shards keep.
// Nothing here is safe for concurrent use, and nothing needs it: each
// container is filled and rendered by one goroutine, and the engine
// merges its shards' histograms after the workers join.
package metrics

import (
	"fmt"
	"strings"
)

// Table is an aligned text table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes are printed under the table (provenance, paper row).
	Notes []string
}

// NewTable starts a table.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; values are rendered with %v.
func (t *Table) AddRow(values ...any) {
	row := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			row[i] = trimFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// trimFloat renders floats compactly.
func trimFloat(f float64) string {
	s := fmt.Sprintf("%.4f", f)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Series is a named sequence of (x, y) points — one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Point is one figure sample.
type Point struct {
	X, Y float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Figure is a set of series sharing axes.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure starts a figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates and attaches a new series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// String renders the figure as a table of x vs per-series y — the
// exact numbers a plotting script would consume.
func (f *Figure) String() string {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	t := NewTable(fmt.Sprintf("%s  (y: %s)", f.Title, f.YLabel), cols...)
	// Collect the union of x values in first-series order.
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range f.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	for _, x := range xs {
		row := []any{trimFloat(x)}
		for _, s := range f.Series {
			cell := ""
			for _, p := range s.Points {
				if p.X == x {
					cell = trimFloat(p.Y)
					break
				}
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t.String()
}

// Timeline renders labeled events as a simple time-ordered listing
// (the textual form of Figures 8 and 9).
type Timeline struct {
	Title  string
	Unit   string // e.g. "Δ" or "s"
	Events []TimelineEvent
}

// TimelineEvent is one timeline entry.
type TimelineEvent struct {
	At    float64
	Label string
}

// Add appends an event.
func (tl *Timeline) Add(at float64, label string) {
	tl.Events = append(tl.Events, TimelineEvent{At: at, Label: label})
}

// String renders the timeline.
func (tl *Timeline) String() string {
	var b strings.Builder
	if tl.Title != "" {
		fmt.Fprintf(&b, "%s\n", tl.Title)
	}
	for _, e := range tl.Events {
		fmt.Fprintf(&b, "  t=%8s%s  %s\n", trimFloat(e.At), tl.Unit, e.Label)
	}
	return b.String()
}
