package exp

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/pigmix"
	"repro/internal/tuple"
)

// newSyntheticSystem builds a System over a freshly generated Section
// 7.5 synthetic data set.
func newSyntheticSystem(sc pigmix.SyntheticScale, opts restore.Options) (*restore.System, error) {
	fs := dfs.New()
	if _, err := pigmix.GenerateSynthetic(fs, sc, 2); err != nil {
		return nil, err
	}
	cfg := restore.DefaultConfig()
	cfg.Options = opts
	cfg.SimScale, cfg.RecordScale = pigmix.SyntheticSimScale(fs, sc), pigmix.SyntheticRecordScale(sc)
	return restore.Recover(cfg, fs)
}

// Table2 regenerates the synthetic field table: declared cardinality
// and the measured fraction an equality predicate selects.
func Table2() (*Report, error) {
	rep := &Report{
		ID:      "Table 2",
		Title:   "Fields of the generated synthetic data set",
		Columns: []string{"Field", "Cardinality", "%Selected(paper)", "%Selected(measured)"},
	}
	sys, err := newSyntheticSystem(synScale, restore.Options{})
	if err != nil {
		return nil, err
	}
	rows, err := sys.ReadDataset(pigmix.PathSynthetic)
	if err != nil {
		return nil, err
	}
	for fi, f := range pigmix.SyntheticFields {
		col := 5 + fi
		zeros := 0
		distinct := map[tuple.Value]bool{}
		for _, r := range rows {
			distinct[r[col]] = true
			if v, ok := r[col].(int64); ok && v == 0 {
				zeros++
			}
		}
		rep.AddRow(f.Name,
			fmt.Sprintf("%g (measured %d)", f.Cardinality, len(distinct)),
			fmt.Sprintf("%.1f%%", f.Selected*100),
			fmt.Sprintf("%.1f%%", 100*float64(zeros)/float64(len(rows))))
	}
	return rep, nil
}

// projectFilterPoint measures one Figure 16/17 point: the overhead of
// injecting a Store after the Project/Filter and the speedup of
// reusing its output, plus the stored-data percentage (the x-axis).
func projectFilterPoint(q pigmix.Query) (overhead, speedup, storedPct float64, err error) {
	sys, err := newSyntheticSystem(synScale, restore.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	r1, err := sys.Execute(q.Script)
	if err != nil {
		return 0, 0, 0, err
	}
	// The Conservative heuristic stores exactly the Project/Filter
	// output of these templates (the final aggregate feeds the Store
	// directly and is skipped).
	r2, err := sys.ExecuteContext(context.Background(), q.Script,
		restore.WithOptions(restore.Options{Heuristic: core.Conservative}))
	if err != nil {
		return 0, 0, 0, err
	}
	r3, err := sys.ExecuteContext(context.Background(), q.Script,
		restore.WithOptions(restore.Options{Reuse: true}))
	if err != nil {
		return 0, 0, 0, err
	}
	if len(r3.Rewrites) == 0 {
		return 0, 0, 0, fmt.Errorf("exp: %s reused nothing", q.Name)
	}
	in := r1.JobStats[0].InputSimBytes
	overhead = float64(r2.SimTime) / float64(r1.SimTime)
	speedup = float64(r1.SimTime) / float64(r3.SimTime)
	storedPct = 100 * float64(r2.ExtraStoredSimBytes) / float64(in)
	return overhead, speedup, storedPct, nil
}

// Figure16 regenerates the Project data-reduction sweep: QP with 1..5
// projected fields.
func Figure16() (*Report, error) {
	rep := &Report{
		ID:      "Figure 16",
		Title:   "Overhead and speedup vs percentage of projected data (QP)",
		Columns: []string{"Fields", "%Projected", "Overhead", "Speedup"},
	}
	type point struct {
		k                  int
		pct, over, speedup float64
	}
	var pts []point
	for k := 1; k <= 5; k++ {
		over, sp, pct, err := projectFilterPoint(pigmix.QP(k))
		if err != nil {
			return nil, err
		}
		pts = append(pts, point{k, pct, over, sp})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].pct < pts[j].pct })
	for _, p := range pts {
		rep.AddRow(fmt.Sprintf("%d", p.k), fmt.Sprintf("%.0f%%", p.pct),
			fmt.Sprintf("%.2f", p.over), fmt.Sprintf("%.2f", p.speedup))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: overhead rises and speedup falls as the projected fraction grows")
	return rep, nil
}

// Figure17 regenerates the Filter selectivity sweep: QF over
// field6..field12 (0.5%..60% selected).
func Figure17() (*Report, error) {
	rep := &Report{
		ID:      "Figure 17",
		Title:   "Overhead and speedup vs percentage of filtered data (QF)",
		Columns: []string{"Field", "%Selected", "Overhead", "Speedup"},
	}
	for _, f := range pigmix.SyntheticFields {
		over, sp, pct, err := projectFilterPoint(pigmix.QF(f.Name))
		if err != nil {
			return nil, err
		}
		rep.AddRow(f.Name, fmt.Sprintf("%.1f%%", pct),
			fmt.Sprintf("%.2f", over), fmt.Sprintf("%.2f", sp))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: overhead rises and speedup falls as selectivity grows")
	return rep, nil
}

// Order is the paper's presentation order of the experiments, the keys
// of Runners; "figb" (the storage-budget eviction comparison), "figm"
// (matcher scaling: sequential scan vs signature index), "figd"
// (reuse across restart with the durable repository) and "figi"
// (append-then-requery with incremental maintenance) extend the
// paper's evaluation.
var Order = []string{
	"fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
	"table1", "fig15", "table2", "fig16", "fig17", "figb", "figm", "figd", "figi",
}

// Runners returns every experiment keyed by name, with the sub-job
// experiments (Figures 10–14, Table 1) bound to the given shared Study
// so they reuse each other's measurements. The Study is concurrency-
// safe, so the returned runners may execute in parallel — each builds
// its own System — without losing the sharing.
func Runners(st *Study) map[string]func() (*Report, error) {
	if st == nil {
		st = NewStudy()
	}
	return map[string]func() (*Report, error){
		"fig9":   Figure9,
		"fig10":  func() (*Report, error) { return figure10(st) },
		"fig11":  func() (*Report, error) { return figure11(st) },
		"fig12":  func() (*Report, error) { return figure12(st) },
		"fig13":  func() (*Report, error) { return figure13(st) },
		"fig14":  func() (*Report, error) { return figure14(st) },
		"table1": func() (*Report, error) { return table1(st) },
		"fig15":  Figure15,
		"table2": Table2,
		"fig16":  Figure16,
		"fig17":  Figure17,
		"figb":   FigureB,
		"figm":   FigureM,
		"figd":   FigureD,
		"figi":   FigureI,
	}
}

// Summary renders all reports as one document.
func Summary(reports []*Report) string {
	var b strings.Builder
	for _, r := range reports {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
