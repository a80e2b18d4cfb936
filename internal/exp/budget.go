package exp

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/core"
)

// budgetSuite is the PigMix subset the budget experiment cycles
// through: enough distinct sub-jobs to overflow a halved budget, small
// enough to run four configurations in one experiment.
var budgetSuite = []string{"L2", "L3", "L5", "L8"}

// FigureB goes beyond the paper: it compares the storage manager's two
// eviction policies under a byte budget. Each configuration runs
// the suite twice on a fresh system storing sub-jobs aggressively; the
// second pass measures how much reuse survives eviction. The budget is
// half of what an unbounded first pass retains, so every policy is
// forced to discard entries, and the reuse-window policy's window is
// one full pass of simulated time.
func FigureB() (*Report, error) {
	rep := &Report{
		ID:      "Figure B",
		Title:   "Reuse under a storage budget per eviction policy (15GB, Aggressive)",
		Columns: []string{"Policy", "Usage(MB)", "Budget(MB)", "Evictions", "Pass1(min)", "Pass2(min)", "Speedup"},
	}

	// Unbounded baseline: how much the repository retains with no
	// budget, and how fast a fully warm second pass runs.
	baseUsage, basePass1, basePass2, baseStats, err := budgetRun(0, nil)
	if err != nil {
		return nil, err
	}
	budget := baseUsage / 2
	window := basePass1 // simulated time of one pass

	rep.AddRow("unbounded", mb(baseUsage), "-", fmt.Sprintf("%d", baseStats.Evictions),
		minutes(basePass1), minutes(basePass2), ratio(basePass1, basePass2))

	for _, policy := range []restore.EvictionPolicy{
		restore.ReuseWindowPolicy{Window: window},
		restore.CostBenefitPolicy{},
	} {
		usage, pass1, pass2, stats, err := budgetRun(budget, policy)
		if err != nil {
			return nil, err
		}
		if usage > budget {
			return nil, fmt.Errorf("exp: policy %s left usage %d over budget %d", policy.Name(), usage, budget)
		}
		rep.AddRow(policy.Name(), mb(usage), mb(budget), fmt.Sprintf("%d", stats.Evictions),
			minutes(pass1), minutes(pass2), ratio(pass1, pass2))
	}
	rep.Notes = append(rep.Notes,
		"expected shape: every policy converges under budget; unbounded keeps the best pass-2 speedup, budgeted policies trade reuse for space")
	return rep, nil
}

// budgetRun executes two passes of the budget suite on a fresh system
// configured with the given budget and policy, returning the retained
// bytes after the final sweep, both passes' total simulated time, and
// the storage statistics.
func budgetRun(budget int64, policy restore.EvictionPolicy) (usage int64, pass1, pass2 time.Duration, stats restore.StorageStats, err error) {
	sys, err := pigMixSystem(scaleSmall, budgetConfig(budget, policy))
	if err != nil {
		return
	}
	defer sys.Close()
	if pass1, err = budgetPass(sys); err != nil {
		return
	}
	if pass2, err = budgetPass(sys); err != nil {
		return
	}
	sys.Sweep()
	stats = sys.StorageStats()
	usage = stats.UsageBytes
	return
}

// budgetConfig stores sub-jobs aggressively under the given budget and
// policy. The reuse window is expressed only through ReuseWindowPolicy,
// not Options.EvictionWindow, so FigureB's runs differ in nothing but
// the budget policy under comparison.
func budgetConfig(budget int64, policy restore.EvictionPolicy) restore.Config {
	cfg := restore.DefaultConfig()
	cfg.Options = restore.Options{Reuse: true, Heuristic: core.Aggressive}
	cfg.MaxRepositoryBytes = budget
	cfg.Eviction = policy
	return cfg
}

// budgetPass runs the budget suite once and returns its total simulated
// time.
func budgetPass(sys *restore.System) (time.Duration, error) {
	var total time.Duration
	for _, name := range budgetSuite {
		r, err := runQuery(sys, name)
		if err != nil {
			return 0, err
		}
		total += r.SimTime
	}
	return total, nil
}

func mb(n int64) string {
	return fmt.Sprintf("%.1f", float64(n)/float64(1<<20))
}
