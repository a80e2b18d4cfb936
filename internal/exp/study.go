package exp

import (
	"context"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/pigmix"
)

// subjobMeasure is one (scale, heuristic, query) measurement triple of
// the sub-job experiments: the baseline time, the time while
// materializing sub-jobs, and the time when reusing them — plus the
// byte accounting Table 1 reports.
type subjobMeasure struct {
	NoReuse  time.Duration
	Generate time.Duration
	Reuse    time.Duration

	InputSimBytes  int64
	StoredSimBytes int64
	OutputSimBytes int64
}

// Study caches sub-job measurements shared by Figures 10–14 and
// Table 1, so the harness executes each configuration once. A Study is
// safe for concurrent use: experiments running in parallel (the
// experiments CLI's -parallel mode) share one Study, and concurrent
// Measure calls for the same configuration coalesce into a single run
// instead of duplicating it or racing on the cache.
type Study struct {
	mu    sync.Mutex
	cache map[string]*studyCell
}

// studyCell is one cached measurement; its once gate lets the first
// caller run the experiment while later callers for the same key block
// until the result is in.
type studyCell struct {
	once sync.Once
	m    subjobMeasure
	err  error
}

// NewStudy returns an empty measurement cache.
func NewStudy() *Study { return &Study{cache: map[string]*studyCell{}} }

// Measure runs (or recalls) the three-phase sub-job experiment for one
// query at one scale under one heuristic:
//
//  1. baseline: no reuse, no materialization;
//  2. generate: materialize sub-jobs per the heuristic (cold repository);
//  3. reuse: rewrite against the now-warm repository.
//
// All three phases execute in one System so phase 3 sees phase 2's
// repository, mirroring the paper's methodology.
func (st *Study) Measure(sc pigmix.Scale, h core.Heuristic, query string) (subjobMeasure, error) {
	key := sc.Name + "/" + h.String() + "/" + query
	st.mu.Lock()
	cell := st.cache[key]
	if cell == nil {
		cell = &studyCell{}
		st.cache[key] = cell
	}
	st.mu.Unlock()
	cell.once.Do(func() { cell.m, cell.err = measureSubjobs(sc, h, query) })
	return cell.m, cell.err
}

// measureSubjobs executes the three phases on a private System. Each
// phase runs with its own per-query options, so one warm System yields
// the baseline, generation and reuse numbers in sequence.
func measureSubjobs(sc pigmix.Scale, h core.Heuristic, query string) (subjobMeasure, error) {
	sys, err := newPigMixSystem(sc, restore.Options{})
	if err != nil {
		return subjobMeasure{}, err
	}
	q, err := pigmix.Get(query)
	if err != nil {
		return subjobMeasure{}, err
	}

	// Phase 1: baseline.
	r1, err := sys.Execute(q.Script)
	if err != nil {
		return subjobMeasure{}, err
	}

	// Phase 2: generate sub-jobs (storing on, reuse off).
	r2, err := sys.ExecuteContext(context.Background(), q.Script, restore.WithOptions(restore.Options{Heuristic: h}))
	if err != nil {
		return subjobMeasure{}, err
	}

	// Phase 3: reuse (rewriting on, storing off, so the measurement is
	// pure reuse, as in the paper's "all sub-jobs available" runs).
	r3, err := sys.ExecuteContext(context.Background(), q.Script, restore.WithOptions(restore.Options{Reuse: true}))
	if err != nil {
		return subjobMeasure{}, err
	}

	var outBytes int64
	for _, js := range r1.JobStats {
		if out, ok := js.Outputs[q.Output]; ok {
			outBytes += out.SimBytes
		}
	}

	return subjobMeasure{
		NoReuse:        r1.SimTime,
		Generate:       r2.SimTime,
		Reuse:          r3.SimTime,
		InputSimBytes:  inputVolume(r1),
		StoredSimBytes: r2.ExtraStoredSimBytes,
		OutputSimBytes: outBytes,
	}, nil
}

// inputVolume sums the bytes loaded from base datasets, matching
// Table 1's "I/P" column: total input minus inter-job temporaries, the
// outputs under newPigMixSystem's managed tmp namespace (each temp
// written by one job is read once by its dependant in these workflows).
func inputVolume(r *restore.Result) int64 {
	tmp := core.NamespacePath("", "tmp") + "/"
	var total int64
	for _, js := range r.JobStats {
		total += js.InputSimBytes
	}
	for _, js := range r.JobStats {
		for p, o := range js.Outputs {
			if strings.HasPrefix(p, tmp) {
				total -= o.SimBytes
			}
		}
	}
	return total
}
