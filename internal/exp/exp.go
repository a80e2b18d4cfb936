// Package exp regenerates every table and figure of the paper's
// evaluation (Section 7). Each experiment builds fresh PigMix or
// synthetic data, executes the relevant query sequences through ReStore
// configurations matching the paper's, and reports the same rows or
// series the paper plots. Times are the simulated "execution time on
// Hadoop" of the 15-node testbed; see DESIGN.md for the substitution
// rationale and EXPERIMENTS.md for paper-versus-measured numbers.
package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// The experiment scales, declared as variables so tests can substitute
// smaller instances; the defaults are the paper's.
var (
	scaleSmall = pigmix.Scale15GB
	scaleLarge = pigmix.Scale150GB
	synScale   = pigmix.DefaultSyntheticScale
)

// Report is one regenerated table or figure.
type Report struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
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
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// minutes renders a duration as decimal minutes, the paper's unit.
func minutes(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Minutes())
}

func ratio(a, b time.Duration) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

func gb(n int64) string {
	return fmt.Sprintf("%.2f", float64(n)/float64(1<<30))
}

// newPigMixSystem builds a System holding a freshly generated PigMix
// instance, with the simulated clock scaled so page_views represents
// the instance's target volume.
func newPigMixSystem(sc pigmix.Scale, opts restore.Options) (*restore.System, error) {
	fs := dfs.New()
	if _, err := pigmix.Generate(fs, sc, 1); err != nil {
		return nil, err
	}
	cfg := restore.DefaultConfig()
	cfg.Options = opts
	cfg.SimScale, cfg.RecordScale = pigmix.SimScaleFor(fs, sc), pigmix.RecordScaleFor(sc)
	return restore.Recover(cfg, fs)
}

// runQuery executes one named PigMix query, under the System's default
// options unless opts override them for this query.
func runQuery(sys *restore.System, name string, opts ...restore.ExecOption) (*restore.Result, error) {
	q, err := pigmix.Get(name)
	if err != nil {
		return nil, err
	}
	return sys.ExecuteContext(context.Background(), q.Script, opts...)
}

// sibling returns a same-family variant of a Figure 9/15 query: the
// warm-up query whose shared prefix jobs populate the repository. The
// base queries warm from their first variant and vice versa.
func sibling(name string) string {
	switch name {
	case "L3":
		return "L3a"
	case "L11":
		return "L11a"
	}
	if strings.HasPrefix(name, "L3") {
		return "L3"
	}
	return "L11"
}
