package bench

import (
	"fmt"
	"math"
	"strings"
	"text/tabwriter"
	"time"
)

// Field is one named quantity. Unit is one of ns, count, ratio, x, %,
// B, tx/s; ns values are virtual nanoseconds.
type Field struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// Row is one line of a table. Params are the sweep point's inputs.
// Modeled holds virtual-clock times, calibration arithmetic and
// counters — nothing the host's speed can move. Host wall clock and
// allocations are not reported here: benchmark/ and the go-test
// benchmarks measure those. Field names are unique across the two.
type Row struct {
	Name    string  `json:"name"`
	Params  []Field `json:"params,omitempty"`
	Modeled []Field `json:"modeled,omitempty"`
}

// Table is the one report shape every sweep produces. Note carries the
// paper's reference values and the expected shape.
type Table struct {
	Name  string `json:"name"`
	Title string `json:"title"`
	Note  string `json:"note,omitempty"`
	Rows  []Row  `json:"rows"`
}

// Modeled fields repeat exactly from run to run at one (seed, n) unless
// they follow one of three sources (DESIGN.md §3); a table with such
// fields ends its Note with the source's sentence. The third — lane
// interleaving — touches the parallel table only and is spelled out there.
const (
	notePrefetchDraws = "draw-dependent: times and query counts on the -full device follow its code-prefetch cadence, drawn from crypto/rand"
	noteORAMDraws     = "draw-dependent: ORAM byte and stash counters follow the leaf every access draws from crypto/rand"
)

var fieldKinds = [...]string{"param", "modeled"}

func (r Row) kind(k int) []Field {
	return [...][]Field{r.Params, r.Modeled}[k]
}

// Value looks a field up by row and field name.
func (t Table) Value(row, field string) (float64, bool) {
	for _, r := range t.Rows {
		if r.Name != row {
			continue
		}
		for k := range fieldKinds {
			for _, f := range r.kind(k) {
				if f.Name == field {
					return f.Value, true
				}
			}
		}
	}
	return 0, false
}

// Render lays the table out as text: title, one column per field name
// found in the rows (params, then modeled, each headed by its kind),
// then the note. A row without a column's field shows "-".
func (t Table) Render() string {
	type column struct {
		kind int
		name string
	}
	var cols []column
	for k := range fieldKinds {
		seen := map[string]bool{}
		for _, r := range t.Rows {
			for _, f := range r.kind(k) {
				if !seen[f.Name] {
					seen[f.Name] = true
					cols = append(cols, column{k, f.Name})
				}
			}
		}
	}

	var sb strings.Builder
	sb.WriteString(t.Title + "\n\n")
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', tabwriter.AlignRight)
	line := func(name string, cell func(column) string) {
		fmt.Fprint(tw, name, "\t")
		for _, c := range cols {
			fmt.Fprint(tw, cell(c), "\t")
		}
		fmt.Fprintln(tw)
	}
	line("", func(c column) string { return fieldKinds[c.kind] })
	line("", func(c column) string { return c.name })
	for _, r := range t.Rows {
		line(r.Name, func(c column) string {
			for _, f := range r.kind(c.kind) {
				if f.Name == c.name {
					return f.format()
				}
			}
			return "-"
		})
	}
	tw.Flush()
	if t.Note != "" {
		sb.WriteString("\n" + t.Note + "\n")
	}
	return sb.String()
}

// format prints the value the way its unit reads best; ns fields print
// as durations rounded to four significant digits.
func (f Field) format() string {
	switch f.Unit {
	case "ns":
		d := time.Duration(f.Value)
		unit := time.Duration(1)
		for x := d; x >= 10000 || x <= -10000; x /= 10 {
			unit *= 10
		}
		return d.Round(unit).String()
	case "x":
		return fmt.Sprintf("%.2fx", f.Value)
	case "%":
		return fmt.Sprintf("%.1f%%", f.Value)
	case "ratio":
		return fmt.Sprintf("%.2f", f.Value)
	case "tx/s":
		return fmt.Sprintf("%.1f", f.Value)
	}
	if f.Value == math.Trunc(f.Value) {
		return fmt.Sprintf("%.0f", f.Value)
	}
	return fmt.Sprintf("%.1f", f.Value)
}

type number interface {
	~int | ~int64 | ~uint64 | ~float64
}

func ns(name string, d time.Duration) Field { return Field{name, "ns", float64(d)} }

func count[T number](name string, v T) Field { return Field{name, "count", float64(v)} }

func num[T number](name, unit string, v T) Field { return Field{name, unit, float64(v)} }
