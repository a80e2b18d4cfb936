package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dfs"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/physical"
)

// Incremental maintenance of stored entries. When the matcher's best
// candidate is an entry whose inputs merely grew by appended part files
// (dfs.Classify) and whose producing plan is mergeable
// (physical.AnalyzeMerge), the driver refreshes the entry instead of
// letting the probing job recompute cold: it runs the entry's sub-plan
// over only the appended slice, merges that delta with the stored
// output, and re-registers the entry at the new input versions. The
// probing job then reuses the refreshed output exactly as it would a
// valid match — O(delta) bytes read instead of O(full input).

// DeltaStats is a point-in-time snapshot of the driver's incremental
// maintenance counters.
type DeltaStats struct {
	// Refreshes counts entries successfully delta-refreshed; Failed
	// counts refresh attempts that fell back to the cold path (the
	// delta or merge job failed, the stored output moved mid-refresh,
	// or another query claimed the refresh first).
	Refreshes int64 `json:"refreshes"`
	Failed    int64 `json:"failed"`
	// DeltaBytesRead totals the appended input bytes the delta jobs
	// read; ColdBytesAvoided totals the input bytes a cold recompute of
	// each refreshed entry would have read instead, minus the delta —
	// the I/O the refreshes saved.
	DeltaBytesRead   int64 `json:"deltaBytesRead"`
	ColdBytesAvoided int64 `json:"coldBytesAvoided"`
}

// deltaCounters holds the driver's incremental-maintenance counters;
// a separate struct keeps the Driver declaration readable.
type deltaCounters struct {
	refreshes        atomic.Int64
	failed           atomic.Int64
	deltaBytesRead   atomic.Int64
	coldBytesAvoided atomic.Int64
	seq              atomic.Int64 // uniquifies refresh output paths
}

// DeltaStats snapshots the driver's incremental maintenance counters.
func (d *Driver) DeltaStats() DeltaStats {
	return DeltaStats{
		Refreshes:        d.delta.refreshes.Load(),
		Failed:           d.delta.failed.Load(),
		DeltaBytesRead:   d.delta.deltaBytesRead.Load(),
		ColdBytesAvoided: d.delta.coldBytesAvoided.Load(),
	}
}

// stampMergeable classifies the entry's producing plan for incremental
// maintenance and, when mergeable, records each input's inventory
// snapshot as the future delta base. InputVersions are re-derived from
// the snapshots so the validity check and the growth classifier always
// compare against the same observation.
func stampMergeable(fs dfs.Backend, e *Entry, plan *physical.Plan) {
	spec := physical.AnalyzeMerge(plan)
	if spec == nil {
		return
	}
	bases := make(map[string]dfs.Snapshot, len(e.InputVersions))
	for p := range e.InputVersions {
		s := dfs.TakeSnapshot(fs, p)
		bases[p] = s
		e.InputVersions[p] = s.Version
	}
	e.Merge = spec
	e.InputBases = bases
}

// refresh is the rewriter's Refresher: it delta-refreshes the
// candidate's entry under a refresh span parented by the probing job's
// span, and charges the refresh jobs' simulated time to this query. It
// runs jobs under the workflow lock, so sibling jobs' rewrites wait for
// it; their execution does not, and the refreshed entry is what they
// would match anyway.
func (x *execution) refresh(cand RefreshCandidate) *Entry {
	span := x.tr.Start(cand.Span, obs.KindRefresh, cand.Match.Entry.ID)
	start := time.Now()
	e, spent := x.refreshEntry(cand, span)
	x.d.Metrics.ObserveRefresh(time.Since(start))
	x.tr.Sim(span, spent)
	if e == nil {
		x.tr.Note(span, "failed — cold fallback")
	} else {
		x.tr.Note(span, "refreshed")
	}
	x.tr.End(span)
	x.refreshSim.Add(int64(spent))
	return e
}

// refreshEntry runs the delta sub-plan over the appended input slices,
// merges the result with the entry's stored output, and re-registers
// the entry at the grown input versions. It returns the refreshed entry
// (nil when the refresh failed or was lost to a concurrent query, which
// sends the job down the cold path) and the simulated time it spent.
//
// The refresh claims the entry's plan fingerprint, so two queries
// probing the same stale entry never run the same delta twice; the
// loser goes cold (and may store a fresh copy, replacing the entry just
// like the refresh would).
func (x *execution) refreshEntry(cand RefreshCandidate, span obs.SpanID) (*Entry, time.Duration) {
	e := cand.Match.Entry
	d, tr := x.d, x.tr
	if tr != nil {
		tr.Event(span, obs.KindRefreshClassify, e.ID,
			fmt.Sprintf("%d input(s) grew by pure append", len(cand.Growth)))
	}
	claim, won := d.store.TryClaim(e.fingerprint())
	if !won {
		d.delta.failed.Add(1)
		return nil, 0
	}
	fail := func(path string) *Entry {
		_ = d.eng.FS().Delete(path)
		d.store.Abort(claim)
		d.delta.failed.Add(1)
		return nil
	}

	base := fmt.Sprintf("%s/refresh/%s-r%d", d.Namespace("restore", x.queryID), e.ID, d.delta.seq.Add(1))
	deltaPath, mergedPath := base+"/delta", base+"/out"
	dstats, deltaBytes, err := x.refreshDelta(cand, deltaPath, span)
	if err != nil {
		return fail(deltaPath), 0
	}
	spent := dstats.SimTime

	mjob := &physical.Job{
		ID:          fmt.Sprintf("refresh-%s-merge", e.ID),
		Plan:        physical.BuildMergePlan(e.Merge, e.OutputPath, deltaPath, mergedPath),
		OutputPath:  mergedPath,
		NumReducers: cand.Job.NumReducers,
	}
	mergeSpan := tr.Start(span, obs.KindRefreshMerge, mjob.ID)
	mstats, err := d.eng.Run(x.ctx, mjob, nil)
	tr.End(mergeSpan)
	_ = d.eng.FS().Delete(deltaPath)
	if err != nil {
		return fail(mergedPath), spent
	}
	tr.Sim(mergeSpan, mstats.SimTime)
	tr.Bytes(mergeSpan, dstats.OutputSimBytes+e.Stats.OutputSimBytes, mstats.OutputSimBytes)
	spent += mstats.SimTime
	// The merge read the stored output unlocked; if a concurrent writer
	// replaced it mid-merge, the merged result mixes versions. The
	// entry is pinned (no vacuum) but the dataset itself is not sealed.
	if d.eng.FS().Version(e.OutputPath) != e.OutputVersion {
		return fail(mergedPath), spent
	}

	ne, coldBytes := x.refreshedEntry(cand, mergedPath, dstats.InputSimBytes, dstats.SimTime, mstats.OutputSimBytes)
	ins := d.store.insert(ne, x.since)
	d.store.Commit(claim)
	d.delta.refreshes.Add(1)
	d.delta.deltaBytesRead.Add(deltaBytes)
	d.delta.coldBytesAvoided.Add(coldBytes - deltaBytes)
	return ins, spent
}

// refreshDelta runs the entry's sub-plan over only the appended input
// slices into deltaPath, and returns its statistics and the bytes read.
// The delta plan is the probing job's prefix up to the matched frontier
// — the entry stores only a signature DAG, but containment guarantees
// the frontier's ancestor cone in the job computes the same result —
// with every Load restricted to its dataset's appended part files.
func (x *execution) refreshDelta(cand RefreshCandidate, deltaPath string, span obs.SpanID) (*mapreduce.JobStats, int64, error) {
	dp := cand.Job.Plan.PrefixPlan(cand.Match.Frontier, deltaPath)
	var deltaBytes int64
	for _, op := range dp.Ops() {
		if op.Kind != physical.KLoad {
			continue
		}
		if g, ok := cand.Growth[op.Path]; ok {
			op.Files = g.NewPaths()
		} else {
			op.Files = []string{}
		}
	}
	for _, g := range cand.Growth {
		deltaBytes += g.NewBytes
	}
	djob := &physical.Job{
		ID:          fmt.Sprintf("refresh-%s-delta", cand.Match.Entry.ID),
		Plan:        dp,
		OutputPath:  deltaPath,
		NumReducers: cand.Job.NumReducers,
	}
	deltaSpan := x.tr.Start(span, obs.KindRefreshDelta, djob.ID)
	dstats, err := x.d.eng.Run(x.ctx, djob, nil)
	x.tr.End(deltaSpan)
	if err != nil {
		return nil, 0, err
	}
	x.tr.Sim(deltaSpan, dstats.SimTime)
	x.tr.Bytes(deltaSpan, deltaBytes, dstats.OutputSimBytes)
	return dstats, deltaBytes, nil
}

// refreshedEntry is the candidate's entry re-registered at the grown
// input versions with its output at mergedPath, and the bytes a cold
// recompute would read. A grown input's base is base ∪ the files the
// delta consumed — not a fresh observation, which could include appends
// it never read. Replacement keeps the entry's identity, so the pin
// taken at match time protects the refreshed entry. The plan is read
// through planSig and the fingerprint carried: a recovered entry's Plan
// field is empty until decoded, and an entry registered under the empty
// plan's fingerprint would never replace it.
func (x *execution) refreshedEntry(cand RefreshCandidate, mergedPath string, deltaIn int64, deltaSim time.Duration, mergedOut int64) (*Entry, int64) {
	e := cand.Match.Entry
	ne := &Entry{
		Plan:       e.planSig(),
		fp:         e.fingerprint(),
		OutputPath: mergedPath,
		WholeJob:   e.WholeJob,
		Stats: EntryStats{
			// Approximate grown-recompute costs: a cold run would read
			// the base and the delta and take at least the original job
			// plus the delta job.
			InputSimBytes:  e.Stats.InputSimBytes + deltaIn,
			OutputSimBytes: mergedOut,
			AvgMapTime:     e.Stats.AvgMapTime,
			AvgRedTime:     e.Stats.AvgRedTime,
			JobSimTime:     e.Stats.JobSimTime + deltaSim,
		},
		InputVersions: make(map[string]int64, len(e.InputVersions)),
		OutputVersion: x.d.eng.FS().Version(mergedPath),
		InputBases:    make(map[string]dfs.Snapshot, len(e.InputBases)),
		Merge:         e.Merge,
		StoredAt:      x.d.Now(),
	}
	var coldBytes int64
	for p, v := range e.InputVersions {
		if g, ok := cand.Growth[p]; ok {
			ne.InputVersions[p] = g.Version
			ne.InputBases[p] = g.Grown(e.InputBases[p])
		} else {
			ne.InputVersions[p] = v
			ne.InputBases[p] = e.InputBases[p]
		}
		coldBytes += ne.InputBases[p].Bytes
	}
	return ne, coldBytes
}
