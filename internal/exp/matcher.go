package exp

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/piglatin"
)

// matcherSizes are the repository entry counts FigureM sweeps, declared
// as a variable so tests can substitute smaller sizes.
var matcherSizes = []int{64, 256, 1024}

// matcherProbeJobs is how many distinct jobs probe each repository, and
// matcherReps how many times the probe set is replayed per timing
// (fresh rewriter each replay, so submission-scoped memoization never
// flatters the numbers).
const (
	matcherProbeJobs = 24
	matcherReps      = 20
)

// FigureM goes beyond the paper: it measures how the cost of finding a
// match scales with repository size, comparing the signature-indexed
// matcher against the paper's sequential scan. Each repository holds N
// distinct sub-job entries (filter prefixes over N distinct datasets);
// the probe workload rewrites jobs whose prefixes hit exactly one entry
// each. The scan must visit (and quickly reject) every entry per job,
// so its per-job cost grows with N; the index nominates only the
// footprint-compatible candidates, so its per-job cost tracks plan
// size. Both modes must choose identical entries — FigureM fails
// otherwise.
func FigureM() (*Report, error) {
	rep := &Report{
		ID:      "Figure M",
		Title:   "Match cost vs repository size: sequential scan vs signature index",
		Columns: []string{"Entries", "Scan(us/job)", "Indexed(us/job)", "Speedup", "Visited/scan", "Cand/probe"},
	}
	for _, n := range matcherSizes {
		fs := dfs.New()
		repo, err := buildMatcherRepo(fs, n)
		if err != nil {
			return nil, err
		}
		jobs, err := matcherProbeSet(n)
		if err != nil {
			return nil, err
		}

		before := repo.MatcherStats()
		scanTime, scanEvents, err := measureMatch(repo, fs, jobs, true)
		if err != nil {
			return nil, err
		}
		mid := repo.MatcherStats()
		idxTime, idxEvents, err := measureMatch(repo, fs, jobs, false)
		if err != nil {
			return nil, err
		}
		after := repo.MatcherStats()

		if len(scanEvents) != len(idxEvents) {
			return nil, fmt.Errorf("exp: scan and index diverged at %d entries: %d vs %d rewrites",
				n, len(scanEvents), len(idxEvents))
		}
		for i := range scanEvents {
			if scanEvents[i] != idxEvents[i] {
				return nil, fmt.Errorf("exp: scan and index diverged at %d entries: %s vs %s",
					n, scanEvents[i], idxEvents[i])
			}
		}

		visited := perProbe(mid.ScanVisited-before.ScanVisited, mid.Scans-before.Scans)
		cands := perProbe(after.Candidates-mid.Candidates, after.Probes-mid.Probes)
		rep.AddRow(fmt.Sprintf("%d", n),
			micros(scanTime), micros(idxTime), ratio(scanTime, idxTime),
			visited, cands)
	}
	rep.Notes = append(rep.Notes,
		"expected shape: scan cost grows ~linearly with entries, indexed cost stays ~flat (candidates track plan size, not repository size)")
	return rep, nil
}

// buildMatcherRepo registers n distinct filter-prefix entries whose
// outputs exist in the FS, so every entry is valid at match time.
func buildMatcherRepo(fs dfs.Backend, n int) (*core.Repository, error) {
	repo := core.NewRepository()
	for i := 0; i < n; i++ {
		src := fmt.Sprintf(`
A = load 'data/src%d' as (a, b, c);
B = filter A by a > %d;
store B into 'stored/e%d';
`, i, i, i)
		job, err := compileFirstJob(src, core.NamespacePath("", "tmp", fmt.Sprintf("me%d", i)))
		if err != nil {
			return nil, err
		}
		out := fmt.Sprintf("stored/e%d", i)
		if err := fs.WriteFile(out+"/part-00000", []byte("1\t2\t3\n")); err != nil {
			return nil, err
		}
		in := fmt.Sprintf("data/src%d", i)
		repo.Insert(&core.Entry{
			Plan:          core.SigOf(job.Plan),
			OutputPath:    out,
			InputVersions: map[string]int64{in: fs.Version(in)},
			Stats:         core.EntryStats{InputSimBytes: int64(1000 + i), OutputSimBytes: 100},
		})
	}
	return repo, nil
}

// matcherProbeSet compiles the probe jobs: aggregations whose
// filter prefix equals one stored entry each.
func matcherProbeSet(n int) ([]*physical.Job, error) {
	var jobs []*physical.Job
	for p := 0; p < matcherProbeJobs; p++ {
		i := p * n / matcherProbeJobs // spread hits across scan positions
		src := fmt.Sprintf(`
A = load 'data/src%d' as (a, b, c);
B = filter A by a > %d;
G = group B by b;
R = foreach G generate group, COUNT(B);
store R into 'out/p%d';
`, i, i, p)
		job, err := compileFirstJob(src, core.NamespacePath("", "tmp", fmt.Sprintf("mp%d", p)))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// measureMatch replays the probe set matcherReps times against the
// repository in the given mode and returns the average wall time per
// job plus the rewrite events of one replay (for the scan-vs-index
// equality check). Each replay uses a fresh rewriter and fresh job
// clones, since RewriteJob rewrites in place.
func measureMatch(repo *core.Repository, fs dfs.Backend, jobs []*physical.Job, linear bool) (time.Duration, []string, error) {
	var events []string
	start := time.Now()
	for rep := 0; rep < matcherReps; rep++ {
		rw := &core.Rewriter{Repo: repo, FS: fs, LinearScan: linear}
		var evs []string
		for _, j := range jobs {
			jc := j.Clone()
			for _, ev := range rw.RewriteJob(jc, false, obs.NoSpan) {
				evs = append(evs, fmt.Sprintf("%s->%s@%s", jc.ID, ev.EntryID, ev.Path))
			}
		}
		if rep == 0 {
			events = evs
			if len(evs) == 0 {
				return 0, nil, fmt.Errorf("exp: probe workload reused nothing")
			}
		}
	}
	per := time.Since(start) / time.Duration(matcherReps*len(jobs))
	return per, events, nil
}

// compileFirstJob compiles a script and returns its first MapReduce job.
func compileFirstJob(src, tempPrefix string) (*physical.Job, error) {
	script, err := piglatin.Parse(src)
	if err != nil {
		return nil, err
	}
	lp, err := logical.Build(script)
	if err != nil {
		return nil, err
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: tempPrefix, DefaultReducers: 2})
	if err != nil {
		return nil, err
	}
	jobs, err := wf.TopoJobs()
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

func micros(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

func perProbe(total, probes int64) string {
	if probes == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(total)/float64(probes))
}
