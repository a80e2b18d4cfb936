package exp

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// FigureD goes beyond the paper: it measures what the durable
// repository buys across a process restart. Each mode runs the budget
// suite cold, reruns it warm, then simulates a restart — a fresh System
// over the same DFS — and runs the suite a third time. Without
// durability the restarted process starts from an empty repository and
// pays the cold cost again; with the event log it recovers every entry
// (decoding no stored plans) and the third pass reuses like the warm
// one. Simulated times are identical between modes everywhere else:
// journaling changes only real I/O, never the modeled cluster.
func FigureD() (*Report, error) {
	rep := &Report{
		ID:      "Figure D",
		Title:   "Reuse across restart: in-memory repository vs durable event log (15GB, Aggressive)",
		Columns: []string{"Mode", "Cold(min)", "Warm(min)", "Restart(min)", "RestartSpeedup", "Appends", "Recovered", "PlanDecodes"},
	}
	for _, durable := range []bool{false, true} {
		row, err := durabilityRun(durable)
		if err != nil {
			return nil, err
		}
		rep.AddRow(row...)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: identical cold/warm times in both modes; only the durable mode keeps its speedup across the restart (recovery decodes zero stored plans)")
	return rep, nil
}

func durabilityRun(durable bool) ([]string, error) {
	cfg := restore.DefaultConfig()
	cfg.Options = restore.Options{Reuse: true, Heuristic: core.Aggressive}
	if durable {
		cfg.Durability = restore.DurabilityConfig{Enabled: true}
	}
	fs := dfs.New()
	if _, err := pigmix.Generate(fs, scaleSmall, 1); err != nil {
		return nil, err
	}
	cfg.SimScale, cfg.RecordScale = pigmix.SimScaleFor(fs, scaleSmall), pigmix.RecordScaleFor(scaleSmall)
	sys, err := restore.Recover(cfg, fs)
	if err != nil {
		return nil, err
	}

	pass := func(s *restore.System) (time.Duration, error) {
		var total time.Duration
		for _, name := range budgetSuite {
			r, err := runQuery(s, name)
			if err != nil {
				return 0, err
			}
			total += r.SimTime
		}
		return total, nil
	}
	cold, err := pass(sys)
	if err != nil {
		return nil, err
	}
	warm, err := pass(sys)
	if err != nil {
		return nil, err
	}
	appends := sys.DurabilityStats().Appends
	if err := sys.Close(); err != nil {
		return nil, err
	}

	// Restart: a fresh System over the surviving DFS.
	decodesBefore := core.PlanDecodes()
	restarted, err := restore.Recover(cfg, fs)
	if err != nil {
		return nil, err
	}
	defer restarted.Close()
	recovered := restarted.DurabilityStats().RecoveredEntries
	decodes := core.PlanDecodes() - decodesBefore
	if durable && decodes != 0 {
		return nil, fmt.Errorf("exp: durable recovery decoded %d stored plans", decodes)
	}
	restart, err := pass(restarted)
	if err != nil {
		return nil, err
	}
	// Invariants, not just a table: a durable restart keeps (at least)
	// the warm pass's reuse — the recovered repository is the state
	// after two passes, so it may reuse even more — while an in-memory
	// restart starts empty and pays exactly the cold cost again.
	if durable && restart > warm {
		return nil, fmt.Errorf("exp: durable restart pass took %v, warm pass %v — recovery lost reuse", restart, warm)
	}
	if !durable && restart != cold {
		return nil, fmt.Errorf("exp: in-memory restart pass took %v, cold pass %v — expected identical cold cost", restart, cold)
	}

	mode := "in-memory"
	if durable {
		mode = "durable-log"
	}
	return []string{
		mode, minutes(cold), minutes(warm), minutes(restart), ratio(cold, restart),
		fmt.Sprintf("%d", appends), fmt.Sprintf("%d", recovered), fmt.Sprintf("%d", decodes),
	}, nil
}
