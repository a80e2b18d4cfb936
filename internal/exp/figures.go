package exp

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/pigmix"
)

// Figure9 regenerates the whole-job reuse experiment: L3/L11 and their
// variants at the 150 GB scale, comparing no-reuse execution against
// reuse of whole intermediate jobs stored by a previous query of the
// same family (the variants share their expensive first job).
func Figure9() (*Report, error) {
	rep := &Report{
		ID:      "Figure 9",
		Title:   "Effect of reusing whole job outputs (150GB)",
		Columns: []string{"Query", "NoReuse(min)", "ReusingJobs(min)", "Speedup"},
	}
	var sumSpeedup float64
	for _, q := range pigmix.VariantSuite {
		sys, err := newPigMixSystem(scaleLarge, restore.Options{KeepWholeJobs: true})
		if err != nil {
			return nil, err
		}
		// Warm the repository with a sibling variant: its shared
		// intermediate jobs (the join for L3*, the page_views distinct
		// for L11*) become reusable; its final job does not match.
		if _, err := runQuery(sys, sibling(q)); err != nil {
			return nil, err
		}
		// Baseline for q itself, reuse off.
		r1, err := runQuery(sys, q, restore.WithOptions(restore.Options{}))
		if err != nil {
			return nil, err
		}
		// Reuse of stored whole jobs. Storing whole jobs adds no Store
		// operators, so the baseline carries no overhead (the paper's
		// "overhead is 0%").
		r2, err := runQuery(sys, q, restore.WithOptions(restore.Options{Reuse: true, KeepWholeJobs: true}))
		if err != nil {
			return nil, err
		}
		if r2.JobsReused == 0 {
			return nil, fmt.Errorf("exp: %s reused no jobs", q)
		}
		sumSpeedup += float64(r1.SimTime) / float64(r2.SimTime)
		rep.AddRow(q, minutes(r1.SimTime), minutes(r2.SimTime), ratio(r1.SimTime, r2.SimTime))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("average speedup %.1f (paper: 9.8); overhead 0%% (no Store operators injected)",
			sumSpeedup/float64(len(pigmix.VariantSuite))))
	return rep, nil
}

// figure10 regenerates the sub-job reuse experiment at 150 GB with the
// Aggressive heuristic: baseline, generating sub-jobs, reusing them.
func figure10(st *Study) (*Report, error) {
	rep := &Report{
		ID:      "Figure 10",
		Title:   "Effect of reusing sub-job outputs, Aggressive heuristic (150GB)",
		Columns: []string{"Query", "NoReuse(min)", "GeneratingSubjobs(min)", "ReusingSubjobs(min)", "Overhead", "Speedup"},
	}
	var sumSp, sumOv float64
	for _, q := range pigmix.CoreSuite {
		m, err := st.Measure(scaleLarge, core.Aggressive, q)
		if err != nil {
			return nil, err
		}
		sumSp += float64(m.NoReuse) / float64(m.Reuse)
		sumOv += float64(m.Generate) / float64(m.NoReuse)
		rep.AddRow(q, minutes(m.NoReuse), minutes(m.Generate), minutes(m.Reuse),
			ratio(m.Generate, m.NoReuse), ratio(m.NoReuse, m.Reuse))
	}
	n := float64(len(pigmix.CoreSuite))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("average speedup %.1f (paper: 24.4), average overhead %.1f (paper: 1.6)", sumSp/n, sumOv/n))
	return rep, nil
}

// figure11 regenerates the overhead-by-scale comparison (15 GB vs
// 150 GB, Aggressive heuristic).
func figure11(st *Study) (*Report, error) {
	rep := &Report{
		ID:      "Figure 11",
		Title:   "Overhead of adding Store operators, 15GB vs 150GB (Aggressive)",
		Columns: []string{"Query", "Overhead15GB", "Overhead150GB"},
	}
	var sum15, sum150 float64
	for _, q := range pigmix.CoreSuite {
		m15, err := st.Measure(scaleSmall, core.Aggressive, q)
		if err != nil {
			return nil, err
		}
		m150, err := st.Measure(scaleLarge, core.Aggressive, q)
		if err != nil {
			return nil, err
		}
		sum15 += float64(m15.Generate) / float64(m15.NoReuse)
		sum150 += float64(m150.Generate) / float64(m150.NoReuse)
		rep.AddRow(q, ratio(m15.Generate, m15.NoReuse), ratio(m150.Generate, m150.NoReuse))
	}
	n := float64(len(pigmix.CoreSuite))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("average overhead %.1f at 15GB vs %.1f at 150GB (paper: 2.4 vs 1.6)", sum15/n, sum150/n))
	return rep, nil
}

// figure12 regenerates the speedup-by-scale comparison.
func figure12(st *Study) (*Report, error) {
	rep := &Report{
		ID:      "Figure 12",
		Title:   "Speedup from reusing sub-jobs, 15GB vs 150GB (Aggressive)",
		Columns: []string{"Query", "Speedup15GB", "Speedup150GB"},
	}
	var sum15, sum150 float64
	for _, q := range pigmix.CoreSuite {
		m15, err := st.Measure(scaleSmall, core.Aggressive, q)
		if err != nil {
			return nil, err
		}
		m150, err := st.Measure(scaleLarge, core.Aggressive, q)
		if err != nil {
			return nil, err
		}
		sum15 += float64(m15.NoReuse) / float64(m15.Reuse)
		sum150 += float64(m150.NoReuse) / float64(m150.Reuse)
		rep.AddRow(q, ratio(m15.NoReuse, m15.Reuse), ratio(m150.NoReuse, m150.Reuse))
	}
	n := float64(len(pigmix.CoreSuite))
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("average speedup %.1f at 15GB vs %.1f at 150GB (paper: 3.0 vs 24.4)", sum15/n, sum150/n))
	return rep, nil
}

// figure13 regenerates the reuse-time comparison across heuristics at
// 150 GB: no reuse vs reusing sub-jobs chosen by HC, HA, and NH.
func figure13(st *Study) (*Report, error) {
	rep := &Report{
		ID:      "Figure 13",
		Title:   "Execution time when reusing sub-jobs chosen by different heuristics (150GB)",
		Columns: []string{"Query", "NoReuse(min)", "Conservative(min)", "Aggressive(min)", "NoHeuristic(min)"},
	}
	for _, q := range pigmix.CoreSuite {
		mHC, err := st.Measure(scaleLarge, core.Conservative, q)
		if err != nil {
			return nil, err
		}
		mHA, err := st.Measure(scaleLarge, core.Aggressive, q)
		if err != nil {
			return nil, err
		}
		mNH, err := st.Measure(scaleLarge, core.NoHeuristic, q)
		if err != nil {
			return nil, err
		}
		rep.AddRow(q, minutes(mHC.NoReuse), minutes(mHC.Reuse), minutes(mHA.Reuse), minutes(mNH.Reuse))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: HA ≈ NH ≤ HC ≤ NoReuse (the extra NH sub-jobs add no reuse benefit)")
	return rep, nil
}

// figure14 regenerates the generation-time comparison across
// heuristics at 150 GB: the cost of materializing the chosen sub-jobs.
func figure14(st *Study) (*Report, error) {
	rep := &Report{
		ID:      "Figure 14",
		Title:   "Execution time with injected Store operators per heuristic (150GB)",
		Columns: []string{"Query", "NoReuse(min)", "Conservative(min)", "Aggressive(min)", "NoHeuristic(min)"},
	}
	for _, q := range pigmix.CoreSuite {
		mHC, err := st.Measure(scaleLarge, core.Conservative, q)
		if err != nil {
			return nil, err
		}
		mHA, err := st.Measure(scaleLarge, core.Aggressive, q)
		if err != nil {
			return nil, err
		}
		mNH, err := st.Measure(scaleLarge, core.NoHeuristic, q)
		if err != nil {
			return nil, err
		}
		rep.AddRow(q, minutes(mHC.NoReuse), minutes(mHC.Generate), minutes(mHA.Generate), minutes(mNH.Generate))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: NH worst; HA close to HC except where it stores a large Group output (L6)")
	return rep, nil
}

// table1 regenerates the byte accounting: input volume, bytes stored by
// each heuristic, and final output size at 150 GB.
func table1(st *Study) (*Report, error) {
	rep := &Report{
		ID:      "Table 1",
		Title:   "Input, stored (per heuristic), and output volumes (GB, simulated, 150GB instance)",
		Columns: []string{"Query", "I/P(GB)", "HC(GB)", "HA(GB)", "NH(GB)", "O/P"},
	}
	for _, q := range pigmix.CoreSuite {
		mHC, err := st.Measure(scaleLarge, core.Conservative, q)
		if err != nil {
			return nil, err
		}
		mHA, err := st.Measure(scaleLarge, core.Aggressive, q)
		if err != nil {
			return nil, err
		}
		mNH, err := st.Measure(scaleLarge, core.NoHeuristic, q)
		if err != nil {
			return nil, err
		}
		rep.AddRow(q, gb(mHC.InputSimBytes), gb(mHC.StoredSimBytes), gb(mHA.StoredSimBytes),
			gb(mNH.StoredSimBytes), byteSize(mHC.OutputSimBytes))
	}
	rep.Notes = append(rep.Notes, "expected shape: HC ≤ HA ≪ NH, outputs tiny except L11")
	return rep, nil
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Figure15 regenerates the whole-job versus sub-job comparison on the
// variant workload: no reuse, sub-jobs via HC, sub-jobs via HA, whole
// jobs.
func Figure15() (*Report, error) {
	rep := &Report{
		ID:      "Figure 15",
		Title:   "Reusing whole jobs vs sub-jobs (150GB)",
		Columns: []string{"Query", "NoReuse(min)", "SubjobsHC(min)", "SubjobsHA(min)", "WholeJobs(min)"},
	}
	for _, q := range pigmix.VariantSuite {
		var times [3]time.Duration
		for i, mode := range []restore.Options{
			{Heuristic: core.Conservative},
			{Heuristic: core.Aggressive},
			{KeepWholeJobs: true},
		} {
			sys, err := newPigMixSystem(scaleLarge, mode)
			if err != nil {
				return nil, err
			}
			if _, err := runQuery(sys, sibling(q)); err != nil {
				return nil, err
			}
			r, err := runQuery(sys, q, restore.WithOptions(restore.Options{Reuse: true}))
			if err != nil {
				return nil, err
			}
			times[i] = r.SimTime
		}
		// Baseline on a fresh system.
		sysB, err := newPigMixSystem(scaleLarge, restore.Options{})
		if err != nil {
			return nil, err
		}
		rB, err := runQuery(sysB, q)
		if err != nil {
			return nil, err
		}
		rep.AddRow(q, minutes(rB.SimTime), minutes(times[0]), minutes(times[1]), minutes(times[2]))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: all reuse modes beat NoReuse; WholeJobs ≈ SubjobsHA ≤ SubjobsHC")
	return rep, nil
}
