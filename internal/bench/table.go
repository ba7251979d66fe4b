// Package bench is the experiment harness: one generator per table and
// figure of the Colza paper's evaluation (and per ablation in DESIGN.md),
// each printing the same rows/series the paper reports. cmd/colza-bench
// is the command-line front end; bench_shapes_test.go runs each generator
// in quick mode and asserts the shape the paper claims.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	ID      string // e.g. "Table I", "Fig. 5"
	Title   string
	Note    string // calibration / substitution note
	Columns []string
	Rows    [][]string
	// exact keeps every float64 cell as Add received it, next to the three
	// decimals Rows prints (NaN for any other cell): a shape check on
	// millisecond timings must not compare rounding steps.
	exact [][]float64
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	exact := make([]float64, len(cells))
	for i, c := range cells {
		exact[i] = math.NaN()
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
			exact[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
	t.exact = append(t.exact, exact)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== %s — %s ===\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "    %s\n", t.Note)
	}
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
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// CSV renders the table as comma-separated values (header row first),
// for plotting outside the harness.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = esc(c)
	}
	b.WriteString(strings.Join(cells, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		cells = cells[:0]
		for _, c := range row {
			cells = append(cells, esc(c))
		}
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	return b.String()
}
