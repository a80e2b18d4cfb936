package exp

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/dfs"
	"repro/internal/pigmix"
)

// FigureI extends the paper's evaluation with incremental maintenance
// (the i2MapReduce delta model grafted onto the repository): the
// append-then-requery cost of the net-traffic workload with delta
// refresh against a cold recompute, as the base log grows. The
// refreshed requery's simulated time includes the delta and merge jobs
// — the comparison is honest work-for-work — so the speedup column
// isolates what shrinking the read set from O(log) to O(day) buys.
func FigureI() (*Report, error) {
	rep := &Report{
		ID:      "Figure I",
		Title:   "Append-then-requery: delta refresh vs cold recompute (N1, one appended day at ~2GB/day)",
		Columns: []string{"BaseDays", "Cold(min)", "Refresh(min)", "Speedup", "DeltaRead(MB)", "ColdAvoided(MB)"},
	}
	for _, baseDays := range []int{2, 4, 8, 16} {
		cold, err := incrementalRequery(baseDays, false)
		if err != nil {
			return nil, err
		}
		warm, err := incrementalRequery(baseDays, true)
		if err != nil {
			return nil, err
		}
		ds := warm.stats
		if ds.Refreshes == 0 {
			return nil, fmt.Errorf("exp: figi base=%d requery did not refresh: %+v", baseDays, ds)
		}
		rep.AddRow(
			fmt.Sprintf("%d", baseDays),
			minutes(cold.requery),
			minutes(warm.requery),
			ratio(cold.requery, warm.requery),
			fmt.Sprintf("%.0f", warm.simMB(ds.DeltaBytesRead)),
			fmt.Sprintf("%.0f", warm.simMB(ds.ColdBytesAvoided)),
		)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: cold requery cost grows with the base while the refreshed requery stays ~flat (one day of delta), so the speedup widens with BaseDays")
	return rep, nil
}

type incrementalRun struct {
	requery  time.Duration
	stats    restore.DeltaStats
	simScale float64
}

// simMB maps actual delta-counter bytes to simulated megabytes, the
// scale the time columns are reported at.
func (r *incrementalRun) simMB(b int64) float64 {
	return float64(b) * r.simScale / (1 << 20)
}

// incrementalRequery seeds a net-traffic log of baseDays days, runs N1
// once, appends one day, and reruns it, returning the requery cost.
// With reuse on the requery delta-refreshes the stored aggregate; with
// reuse off it recomputes the grown log cold.
func incrementalRequery(baseDays int, reuse bool) (*incrementalRun, error) {
	cfg := restore.DefaultConfig()
	if reuse {
		cfg.Options = restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive}
	}
	sys, fs, simScale, err := netTrafficSystem(baseDays, cfg)
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	if _, err := runQuery(sys, "N1"); err != nil {
		return nil, err
	}
	res, err := appendAndRequery(sys, fs)
	if err != nil {
		return nil, err
	}
	return &incrementalRun{requery: res.SimTime, stats: sys.DeltaStats(), simScale: simScale}, nil
}

// netTrafficSystem seeds a net-traffic log of baseDays days and opens a
// System over it under cfg, returning the DFS and the simulated scale
// it set.
func netTrafficSystem(baseDays int, cfg restore.Config) (*restore.System, dfs.Backend, float64, error) {
	fs := dfs.New()
	if err := pigmix.GenerateNetTraffic(fs, baseDays, pigmix.NetTrafficRowsPerDay, 7); err != nil {
		return nil, nil, 0, err
	}
	// Scale the laptop-size log so each daily partition represents
	// ~2 GB, the way the PigMix instances map to the paper's 15 GB.
	simScale := float64(int64(baseDays)*(2<<30)) / float64(fs.Size(pigmix.PathNetTraffic))
	cfg.SimScale, cfg.RecordScale = simScale, pigmix.RecordScaleFor(scaleSmall)
	sys, err := restore.Recover(cfg, fs)
	if err != nil {
		return nil, nil, 0, err
	}
	return sys, fs, simScale, nil
}

// appendAndRequery appends one day to the log and reruns N1.
func appendAndRequery(sys *restore.System, fs dfs.Backend) (*restore.Result, error) {
	if _, err := pigmix.AppendNetTrafficDay(fs, pigmix.NetTrafficRowsPerDay, 7); err != nil {
		return nil, err
	}
	return runQuery(sys, "N1")
}
