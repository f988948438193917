// Package stats provides the small result-handling toolkit the benchmark
// harness uses: labeled series, tables rendered in the paper's style
// (MillionBytes/s, microseconds), and CSV output.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Series is one labeled curve: y-values indexed by x-values (e.g. bandwidth
// by message size, one series per WAN delay).
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Alloc appends a placeholder point for x and returns its slot index, to
// be filled later with Set. The parallel experiment harness reserves every
// slot up front — fixing series order once, deterministically — and lets
// workers commit measured values as they finish. Alloc itself must be
// called from a single goroutine, before any Set.
func (s *Series) Alloc(x float64) int {
	s.X = append(s.X, x)
	s.Y = append(s.Y, 0)
	return len(s.X) - 1
}

// Set writes the y value for a slot returned by Alloc. Distinct slots may
// be Set concurrently from different goroutines without locking: each call
// writes a disjoint element of a slice whose growth stopped when
// allocation finished.
func (s *Series) Set(slot int, y float64) {
	s.Y[slot] = y
}

// At returns the y value for the given x, and whether it exists.
func (s *Series) At(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Max returns the largest y value (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, y := range s.Y {
		if y > m {
			m = y
		}
	}
	return m
}

// Table is a collection of series sharing an x-axis, with display metadata.
type Table struct {
	Title  string // e.g. "Figure 5(a): Verbs-level RC Bandwidth"
	XLabel string // e.g. "Message Size (Bytes)"
	YLabel string // e.g. "Bandwidth (MillionBytes/s)"
	Series []*Series
	// Decimals is the number of decimals Render prints (0 selects 2, the
	// paper's tables; probes print 3, what the layers' own tools show).
	Decimals int
}

// NewTable creates an empty table.
func NewTable(title, xlabel, ylabel string) *Table {
	return &Table{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, registers and returns a new labeled series.
func (t *Table) AddSeries(label string) *Series {
	s := &Series{Label: label}
	t.Series = append(t.Series, s)
	return s
}

// xValues returns the sorted union of all series' x values.
func (t *Table) xValues() []float64 {
	set := map[float64]bool{}
	for _, s := range t.Series {
		for _, x := range s.X {
			set[x] = true
		}
	}
	xs := make([]float64, 0, len(set))
	for x := range set {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	return xs
}

// FormatX renders an x value; sizes print as 1K/64K/1M when whole.
func FormatX(x float64) string {
	return FormatSize(x)
}

// FormatSize prints byte counts in the paper's axis style.
func FormatSize(x float64) string {
	switch {
	case x >= 1<<20 && x == float64(int64(x)) && int64(x)%(1<<20) == 0:
		return fmt.Sprintf("%dM", int64(x)>>20)
	case x >= 1<<10 && x == float64(int64(x)) && int64(x)%(1<<10) == 0:
		return fmt.Sprintf("%dK", int64(x)>>10)
	default:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%g", x)
	}
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s\n", t.Title)
	fmt.Fprintf(w, "%s vs %s\n", t.YLabel, t.XLabel)
	xs := t.xValues()
	headers := make([]string, 0, len(t.Series)+1)
	headers = append(headers, t.XLabel)
	for _, s := range t.Series {
		headers = append(headers, s.Label)
	}
	verb := "%.2f"
	if t.Decimals > 0 {
		verb = fmt.Sprintf("%%.%df", t.Decimals)
	}
	rows := [][]string{headers}
	for _, x := range xs {
		row := []string{FormatX(x)}
		for _, s := range t.Series {
			if y, ok := s.At(x); ok {
				row = append(row, fmtCell(y, verb))
			} else {
				row = append(row, "-")
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
	fmt.Fprintln(w)
}

// RenderCSV writes the table as CSV.
func (t *Table) RenderCSV(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	cols := []string{csvEscape(t.XLabel)}
	for _, s := range t.Series {
		cols = append(cols, csvEscape(s.Label))
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	for _, x := range t.xValues() {
		row := []string{fmt.Sprintf("%g", x)}
		for _, s := range t.Series {
			if y, ok := s.At(x); ok {
				row = append(row, fmtCell(y, "%g"))
			} else {
				row = append(row, "")
			}
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// fmtCell renders one measured value. NaN marks a failed measurement
// point (the harness commits NaN for points that errored under fault
// injection) and renders as ERR so failures are visible in tables and CSV
// alike.
func fmtCell(y float64, verb string) string {
	if math.IsNaN(y) {
		return "ERR"
	}
	return fmt.Sprintf(verb, y)
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// writeAligned prints rows with columns padded to equal width.
func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
}

// Sizes returns powers of two from lo to hi inclusive.
func Sizes(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}
