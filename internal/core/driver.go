package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/physical"
)

// JobState is the lifecycle of one MapReduce job within an executing
// query, observable through the query handle's Status.
type JobState int

const (
	// JobPending: the job has not been dispatched (its dependencies
	// have not completed, or the workflow was cancelled first).
	JobPending JobState = iota
	// JobRunning: the job is being matched, rewritten and executed.
	JobRunning
	// JobReused: the whole job was answered from the repository and
	// never ran.
	JobReused
	// JobDone: the job executed to completion.
	JobDone
	// JobFailed: the job's execution returned an error.
	JobFailed
	// JobCanceled: the job was aborted by context cancellation after it
	// started.
	JobCanceled
)

// String renders the state for logs and status displays.
func (s JobState) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobReused:
		return "reused"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// ExecConfig is the immutable per-execution configuration the driver
// works from: the query-handle API resolves it at submission time, and
// a Driver holds no defaults of its own for it to drift from.
type ExecConfig struct {
	// Opts is this execution's ReStore configuration.
	Opts Options
	// Workers bounds how many of this workflow's jobs run concurrently;
	// zero or negative means runtime.NumCPU().
	Workers int
	// OnJobState, when non-nil, receives every job lifecycle transition
	// (running, reused, done, failed, canceled). It is called
	// synchronously from scheduler goroutines and must not block for
	// long or call back into the driver.
	OnJobState func(jobID string, state JobState)
	// OnJobProgress, when non-nil, receives task-level progress of every
	// executing job: tasks completed out of total, and the simulated
	// execution time accumulated so far (the job's final Equation 1 time
	// on the last call). Same calling discipline as OnJobState.
	OnJobProgress func(jobID string, done, total int, sim time.Duration)
	// Trace, when non-nil, records this execution's span tree: per-job
	// rewrite probes with candidate-level decision provenance, claim
	// waits, delta refreshes, engine executions and STORE commits. A
	// nil Trace records nothing and costs nothing (every recording call
	// is a nil-receiver no-op), so traced and untraced executions are
	// SimTime- and byte-identical.
	Trace *obs.Trace
	// LinearScan makes this execution's matcher visit the repository by
	// the paper's sequential scan instead of the signature index — the
	// reference the end-to-end indexed-vs-scan suite compares against;
	// no CLI, server or public option sets it.
	LinearScan bool
}

// Options configure a Driver. The two independent switches mirror the
// paper's experiments: Reuse turns the plan matcher and rewriter on, and
// Heuristic selects sub-job materialization (storing can run without
// reuse — the "generating sub-jobs" configuration — and vice versa).
type Options struct {
	// Reuse enables matching and rewriting against the repository.
	Reuse bool
	// Heuristic selects sub-job enumeration (HeuristicOff disables it).
	Heuristic Heuristic
	// KeepWholeJobs registers every executed job's output in the
	// repository.
	KeepWholeJobs bool
	// AdmitOnlyReducing applies Section 5 Rule 1: keep a candidate only
	// when its output is smaller than its input.
	AdmitOnlyReducing bool
	// AdmitOnlyBeneficial applies Section 5 Rule 2: keep a candidate
	// only when Equation 1 predicts a reduction in execution time for
	// workflows reusing it — loading the stored output must be cheaper
	// than re-running the job that produced it.
	AdmitOnlyBeneficial bool
	// EvictionWindow applies Section 5 Rule 3 after each workflow: evict
	// entries not reused within this much simulated time (0 disables).
	EvictionWindow time.Duration
	// DeleteTemps removes inter-job temporaries after the workflow —
	// the "current practice" the paper improves on. It is forced off
	// whenever ReStore stores anything, since repository entries may
	// reference those files.
	DeleteTemps bool
	// DisableTrace opts this execution out of per-query span tracing:
	// the query handle carries no Trace and every recording call on the
	// execution path no-ops. Latency histograms still record. Traced
	// and untraced runs are SimTime- and DFS-byte-identical
	// (differential-tested); the flag exists for that suite and for
	// callers that want the last few allocations back.
	DisableTrace bool
	// TraceTasks additionally records a span per task-completion
	// callback under each job.exec span. Off by default: a large job
	// has thousands of tasks and the per-task spans dominate the
	// arena.
	TraceTasks bool
}

// storesAnything reports whether this configuration writes repository
// entries.
func (o Options) storesAnything() bool {
	return o.KeepWholeJobs || o.Heuristic != HeuristicOff
}

// Result reports one workflow execution.
type Result struct {
	QueryID string
	// SimTime is the workflow completion time per the paper's
	// Equation 1 (critical path over the job DAG).
	SimTime  time.Duration
	WallTime time.Duration

	JobStats   []*mapreduce.JobStats
	JobsRun    int
	JobsReused int

	// Rewrites lists the repository reuses applied, in the workflow's
	// topological job order.
	Rewrites []RewriteEvent
	// Stored lists the repository entries registered by this execution.
	Stored []*Entry
	// ExtraStoredSimBytes totals the side outputs materialized by the
	// sub-job enumerator (the paper's Table 1 columns).
	ExtraStoredSimBytes int64
	// FinalOutputs maps each user STORE path to the dataset actually
	// holding the result (identity unless whole-job reuse redirected it).
	FinalOutputs map[string]string
}

// Driver executes workflows of MapReduce jobs through ReStore: it is the
// analogue of the paper's extension to Pig's JobControlCompiler. Each
// workflow's jobs are scheduled over its dependency DAG: independent
// jobs run concurrently on a bounded worker pool, and each job is
// matched and rewritten against the repository, has sub-job Stores
// injected per the heuristic, is executed, and has its outputs
// registered — only after every job it depends on has completed.
//
// Execute is safe for concurrent use by multiple goroutines sharing one
// Driver: the repository is internally synchronized, the simulated
// clock and query counter are atomic, and every Execute works on a
// private clone of its workflow. A Driver's wiring is fixed by
// NewDriver; everything tunable arrives per execution in ExecConfig.
type Driver struct {
	eng   *mapreduce.Engine
	store *StorageManager

	// admission, when non-nil, is the cross-query job-admission
	// semaphore: every job of every concurrent execution holds one slot
	// while it runs, capping total cluster jobs under high fan-in.
	admission chan struct{}

	// Metrics aggregates wall-latency histograms (submit→done, probe,
	// claim-wait, refresh) across every execution.
	Metrics *obs.Metrics

	// delta counts the incremental-maintenance activity (see
	// DeltaStats): entries delta-refreshed, appended bytes read, cold
	// recompute bytes avoided.
	delta deltaCounters

	// clock accumulates simulated nanoseconds across executions; it
	// drives the reuse-window eviction rule.
	clock atomic.Int64
}

// NewDriver returns a driver running jobs on eng over store's
// repository; per-query data goes under store's managed namespaces, so
// the writer's layout and the janitor's cannot disagree. maxClusterJobs
// > 0 caps the jobs running at once across all concurrent executions.
// Over a durable store the simulated clock resumes past every persisted
// entry's timestamp, so reuse-window eviction never sees recovered
// entries in the future.
func NewDriver(eng *mapreduce.Engine, store *StorageManager, maxClusterJobs int) *Driver {
	d := &Driver{eng: eng, store: store, Metrics: obs.NewMetrics()}
	if maxClusterJobs > 0 {
		d.admission = make(chan struct{}, maxClusterJobs)
	}
	if dl := store.cfg.Durable; dl != nil {
		d.clock.Store(int64(dl.MaxSimTime()))
	}
	return d
}

// namespace returns the per-query path prefix for kind ("restore" or
// "tmp") under the configured namespace root.
func (d *Driver) namespace(kind, queryID string) string {
	return NamespacePath(d.store.cfg.NamespaceRoot, kind, queryID)
}

// Now returns the driver's simulated clock: the total simulated time of
// every workflow completed so far.
func (d *Driver) Now() time.Duration {
	return time.Duration(d.clock.Load())
}

// advance moves the simulated clock forward.
func (d *Driver) advance(by time.Duration) {
	d.clock.Add(int64(by))
}

// jobOutcome accumulates the per-job results of one workflow execution;
// each scheduled job writes only its own slot, and the outcomes are
// merged in topological order after the DAG drains so reports stay
// deterministic under concurrent scheduling.
type jobOutcome struct {
	events      []RewriteEvent
	reusedWhole bool
	stats       *mapreduce.JobStats
	deps        []string
	stored      []*Entry
	extraBytes  int64
	// deferred is the whole-job entry of a job whose primary output is
	// staged: it is inserted only after the output is renamed into its
	// user-visible place, so the repository never references data that
	// has not been committed.
	deferred *Entry
}

// Execute runs a workflow through the full ReStore pipeline under ctx
// with a per-execution configuration snapshot, and returns its report.
// queryID must be unique per execution. The caller's workflow is never
// mutated: the driver clones it, so one compiled workflow may be
// executed repeatedly or from several goroutines at once.
//
// Cancelling ctx (or exceeding its deadline) aborts the workflow
// promptly: jobs that have not started stay pending forever, in-flight
// jobs abort at the engine's next task-slot acquisition and release
// their slots, and Execute returns ctx.Err(). Cancellation
// leaves the repository consistent — no entry is ever registered for a
// job that did not run to completion — and leaves user STORE outputs
// untouched: each query's final outputs are written under its private
// temp namespace and renamed into place only when the whole workflow
// commits, so a cancelled (or failed) query publishes nothing and two
// queries storing to the same path cannot interleave part files.
func (d *Driver) Execute(ctx context.Context, wf *physical.Workflow, queryID string, cfg ExecConfig) (*Result, error) {
	start := time.Now()
	opts := cfg.Opts
	eng, store := d.eng, d.store
	repo := store.repo
	notify := cfg.OnJobState
	if notify == nil {
		notify = func(string, JobState) {}
	}
	progress := cfg.OnJobProgress
	if progress == nil {
		progress = func(string, int, int, time.Duration) {}
	}
	wf = wf.Clone()

	// On a shared durable store, fold peers' committed entries into the
	// local repository before matching: what another process stored is
	// reusable here from the first probe.
	if opts.Reuse {
		store.RefreshShared()
	}

	res := &Result{QueryID: queryID, FinalOutputs: map[string]string{}}
	for p, v := range wf.FinalOutputs {
		res.FinalOutputs[p] = v
	}

	tr := cfg.Trace
	root := tr.Root()
	// jobSpans lets the Refresher closure — created once per execution,
	// without job context — parent its refresh span under the probing
	// job's span. Written at each job's dispatch, read under wfMu when
	// a probe triggers a refresh; only traced executions populate it.
	var spanMu sync.Mutex
	jobSpans := map[string]obs.SpanID{}
	jobSpanOf := func(jobID string) obs.SpanID {
		spanMu.Lock()
		defer spanMu.Unlock()
		if id, ok := jobSpans[jobID]; ok {
			return id
		}
		return obs.NoSpan
	}

	rewriter := &Rewriter{Repo: repo, FS: eng.FS(), LinearScan: cfg.LinearScan, Trace: tr, Metrics: d.Metrics}
	// Incremental maintenance: when the matcher's only candidate is a
	// stale-but-mergeable entry whose inputs merely grew, refresh it
	// from the appended slice instead of recomputing cold. The hook
	// runs jobs through the engine, so rewrites of sibling jobs wait on
	// the workflow lock while a refresh runs — execution itself is not
	// serialized, and the refreshed entry is what they would match
	// anyway.
	// refreshSim accumulates the simulated time this query's entry
	// refreshes consumed; it is added to the result's SimTime below —
	// the delta and merge jobs run on the probing query's critical path,
	// so a refreshed reuse is never reported as free.
	var refreshSim atomic.Int64
	rewriter.Refresher = func(cand RefreshCandidate) *Entry {
		refreshSpan := tr.Start(jobSpanOf(cand.Job.ID), obs.KindRefresh, cand.Match.Entry.ID)
		refreshStart := time.Now()
		e, spent := d.refreshEntry(ctx, queryID, cand, tr, refreshSpan)
		d.Metrics.ObserveRefresh(time.Since(refreshStart))
		tr.Sim(refreshSpan, spent)
		if e == nil {
			tr.Note(refreshSpan, "failed — cold fallback")
		} else {
			tr.Note(refreshSpan, "refreshed")
		}
		tr.End(refreshSpan)
		refreshSim.Add(int64(spent))
		return e
	}
	enum := &Enumerator{
		Heuristic: opts.Heuristic,
		PathFor: func(job *physical.Job, opID int) string {
			return fmt.Sprintf("%s/%s/op%d", d.namespace("restore", queryID), job.ID, opID)
		},
	}

	jobs, err := wf.TopoJobs()
	if err != nil {
		return nil, err
	}

	// Stage user STORE outputs: each final job writes under the query's
	// private temp namespace, and the staged dataset is renamed into its
	// user-visible place only when the whole workflow commits. finalJob
	// remembers which jobs write a user output (by ID, since their
	// OutputPath now points at the stage), and staged maps each stage
	// path back to the user path for the commit and for re-keying
	// JobStats.Outputs.
	finalJob := make(map[string]string, len(wf.FinalOutputs)) // job ID -> user path
	staged := make(map[string]string, len(wf.FinalOutputs))   // stage path -> user path
	for _, job := range jobs {
		user := job.OutputPath
		if _, ok := wf.FinalOutputs[user]; !ok {
			continue
		}
		stage := d.namespace("tmp", queryID) + "/.staged/" + user
		for _, op := range job.Plan.Ops() {
			if op.Kind == physical.KStore && op.Path == user {
				op.Path = stage
			}
		}
		job.OutputPath = stage
		finalJob[job.ID] = user
		staged[stage] = user
		for _, other := range jobs {
			if other != job {
				other.RewriteLoadPath(user, stage)
			}
		}
	}

	slot := make(map[string]int, len(jobs))
	for i, j := range jobs {
		slot[j.ID] = i
	}
	// dependants of a job are the only jobs whole-job reuse may touch
	// besides the job itself; they cannot have started yet (they depend
	// on it), so mutating them is safe — unlike a workflow-wide sweep,
	// which would read sibling jobs' plans while their goroutines
	// mutate them.
	dependants := make(map[string][]*physical.Job, len(jobs))
	for _, j := range jobs {
		for _, dep := range j.DependsOn {
			dependants[dep] = append(dependants[dep], j)
		}
	}
	outcomes := make([]jobOutcome, len(jobs))

	// Entries pinned by this execution's rewrites stay vacuum-proof
	// until the workflow finishes (rewritten jobs read their outputs).
	var pinned []string
	defer func() {
		for _, id := range pinned {
			repo.Unpin(id)
		}
	}()

	// wfMu serializes every mutation of the shared workflow structure:
	// rewriting a job's plan, dropping a whole-job-reused job, and
	// redirecting its dependants' Load paths and dependency lists. A job
	// is scheduled only after its producers completed (including their
	// dependant redirects), so outside this lock each job's plan and
	// DependsOn list are private to the goroutine running it.
	var wfMu sync.Mutex

	// claimsOn: every execution that stores participates in the claim
	// protocol. With claims on, a sub-job another query is currently
	// materializing is waited for and reused instead of materialized
	// twice.
	claimsOn := opts.storesAnything()
	// maxClaimAttempts bounds the rewrite/claim loop: each iteration
	// either wins every needed claim, absorbs a freshly committed entry,
	// or retries an aborted claim. The bound only matters under
	// pathological abort storms; on overflow the job proceeds without
	// the unresolved claims.
	const maxClaimAttempts = 16

	process := func(job *physical.Job) error {
		if err := ctx.Err(); err != nil {
			return err // cancelled before dispatch: the job stays pending
		}
		out := &outcomes[slot[job.ID]]
		notify(job.ID, JobRunning)
		jobSpan := tr.Start(root, obs.KindJob, job.ID)
		if tr != nil {
			spanMu.Lock()
			jobSpans[job.ID] = jobSpan
			spanMu.Unlock()
		}
		defer tr.End(jobSpan)

		// held maps claimed plan fingerprints to the claims this job
		// won; every exit path must Commit or Abort them all.
		held := map[string]*Claim{}
		abortHeld := func() {
			for _, c := range held {
				store.Abort(c)
			}
			held = map[string]*Claim{}
		}

		var existing []Candidate      // zero-cost candidates of the final plan
		var targets []*physical.Op    // injectable targets of the final plan
		var injectable []*physical.Op // targets this job actually materializes

		for attempt := 0; ; attempt++ {
			// Entries published after seen are invisible to the rewrite
			// below. Finding one later — a target Choose skips as
			// already stored, or a claim that was free because a peer
			// registered its sub-job and released it — means the
			// rewrite is stale: rewrite again rather than recompute or
			// re-materialize what the repository already answers.
			seen := repo.generation()
			stale := false
			wfMu.Lock()
			_, isFinal := finalJob[job.ID]
			if opts.Reuse {
				events := rewriter.RewriteJob(job, !isFinal, jobSpan)
				for _, ev := range events {
					pinned = append(pinned, ev.EntryID)
					repo.NoteReuse(ev.entry, d.Now())
				}
				out.events = append(out.events, events...)
				if n := len(events); n > 0 && events[n-1].WholeJob {
					// Drop the job; its dependants — which cannot have
					// started — read the stored output instead.
					wf.DropJob(job.ID)
					for _, dep := range dependants[job.ID] {
						dep.RemoveDependency(job.ID)
						dep.RewriteLoadPath(job.OutputPath, events[n-1].Path)
					}
					out.reusedWhole = true
					wfMu.Unlock()
					abortHeld()
					tr.Note(jobSpan, "whole job reused — never executed")
					notify(job.ID, JobReused)
					return nil
				}
			}
			// Snapshot the dependency list for Equation 1 while the lock
			// is held: whole-job reuse of a producer strips it from
			// DependsOn.
			out.deps = append([]string(nil), job.DependsOn...)
			wfMu.Unlock()

			// Choose materialization points on the rewritten plan.
			choose := *enum
			choose.SkipExisting = func(prefix PlanSig) bool {
				e := repo.Lookup(prefix)
				if e == nil || !repo.Valid(e, eng.FS()) {
					return false
				}
				stale = stale || e.gen > seen
				return true
			}
			existing, targets = choose.Choose(job)
			if stale && opts.Reuse && attempt < maxClaimAttempts {
				continue
			}
			if !claimsOn {
				injectable = targets
				break
			}

			// The claim set: every sub-job this job would register. The
			// whole-job and existing-candidate fingerprints are claimed
			// only when reuse is on — a loser can only profit from them
			// by rewriting against the committed entry — and only for
			// non-final jobs (a final job's own output is staged under
			// the query's private namespace until commit, so other
			// queries must not wait on, or rewrite to, its entries).
			fps := map[string]*physical.Op{}
			if !isFinal && opts.Reuse {
				if opts.KeepWholeJobs {
					sig := SigOf(job.Plan)
					fps[sig.Fingerprint()] = nil
				}
				for _, c := range existing {
					sig := SigOf(job.Plan.PrefixPlan(c.OpID, c.Path))
					fps[sig.Fingerprint()] = nil
				}
			}
			targetFP := make(map[int]string, len(targets))
			for _, op := range targets {
				sig := SigOf(job.Plan.PrefixPlan(op.ID, "claim"))
				fp := sig.Fingerprint()
				targetFP[op.ID] = fp
				fps[fp] = op
			}

			// Release claims the rewritten plan no longer needs (a
			// committed entry absorbed the sub-job).
			for fp, c := range held {
				if _, ok := fps[fp]; !ok {
					store.Abort(c)
					delete(held, fp)
				}
			}

			// Acquire in sorted fingerprint order, waiting at the first
			// contended claim while holding only smaller ones — the
			// hierarchical order makes cross-query claim waits
			// deadlock-free.
			order := make([]string, 0, len(fps))
			for fp := range fps {
				order = append(order, fp)
			}
			sort.Strings(order)
			acqSpan := tr.Start(jobSpan, obs.KindClaimAcquire, job.ID)
			var waitOn *Claim
			for _, fp := range order {
				if held[fp] != nil {
					continue
				}
				if c, won := store.TryClaim(fp, queryID); won {
					held[fp] = c
				} else {
					waitOn = c
					break
				}
			}
			if tr != nil {
				tr.Note(acqSpan, fmt.Sprintf("%d fingerprint(s) wanted, %d held", len(order), len(held)))
			}
			tr.End(acqSpan)
			raced := false
			for fp, c := range held {
				if attempt < maxClaimAttempts && repo.registeredSince(fp, seen) {
					store.Abort(c)
					delete(held, fp)
					raced = true
				}
			}
			if raced {
				continue
			}
			if waitOn == nil {
				injectable = targets
				break
			}
			if attempt >= maxClaimAttempts {
				// Stop contending: materialize only what this job holds.
				injectable = injectable[:0]
				for _, op := range targets {
					if held[targetFP[op.ID]] != nil {
						injectable = append(injectable, op)
					}
				}
				break
			}
			// The deadlock-freedom invariant — while blocked, hold only
			// fingerprints smaller than the one waited on — must survive
			// re-rewrites: an absorbed entry can put new, smaller
			// fingerprints into the claim set. Release any held claim
			// above the wait target before blocking; the next iteration
			// re-contends for it.
			for fp, c := range held {
				if fp > waitOn.Fingerprint() {
					store.Abort(c)
					delete(held, fp)
				}
			}
			waitSpan := tr.Start(jobSpan, obs.KindClaimWait, waitOn.Fingerprint())
			waitStart := time.Now()
			_, err := store.WaitShared(ctx, waitOn)
			d.Metrics.ObserveClaimWait(time.Since(waitStart))
			tr.End(waitSpan)
			if err != nil {
				abortHeld()
				notify(job.ID, JobCanceled)
				return fmt.Errorf("core: executing %s/%s: %w", queryID, job.ID, err)
			}
			// Re-rewrite: a committed entry is absorbed by the matcher
			// (or skipped by Choose); an aborted one is contended again.
		}

		// Snapshot the plan before Store injection: the whole-job
		// repository entry must describe the job without ReStore's
		// instrumentation.
		cleanPlan := job.Plan.Clone()

		candidates := append(existing, enum.Inject(job, injectable)...)

		execSpan := tr.Start(jobSpan, obs.KindJobExec, job.ID)
		onProgress := func(done, total int, sim time.Duration) {
			progress(job.ID, done, total, sim)
		}
		if tr.TaskSpans() {
			inner := onProgress
			onProgress = func(done, total int, sim time.Duration) {
				tr.Event(execSpan, obs.KindTask,
					fmt.Sprintf("%s task %d/%d", job.ID, done, total), sim.String())
				inner(done, total, sim)
			}
		}
		stats, err := eng.Run(ctx, job, onProgress)
		tr.End(execSpan)
		if err != nil {
			abortHeld()
			if ctx.Err() != nil {
				notify(job.ID, JobCanceled)
			} else {
				notify(job.ID, JobFailed)
			}
			return fmt.Errorf("core: executing %s/%s: %w", queryID, job.ID, err)
		}
		tr.Sim(execSpan, stats.SimTime)
		tr.Bytes(execSpan, stats.InputSimBytes, stats.OutputSimBytes)
		out.stats = stats
		out.stored, out.deferred, out.extraBytes = d.register(opts, job, cleanPlan, candidates, stats, finalJob[job.ID])

		// Resolve claims: every registered entry commits its claim so
		// waiting queries wake and reuse it; claims whose entries the
		// sub-job selector rejected abort, releasing the fingerprint.
		if len(held) > 0 {
			byFP := make(map[string]*Entry, len(out.stored))
			for _, e := range out.stored {
				byFP[e.fingerprint()] = e
			}
			for fp, c := range held {
				if e := byFP[fp]; e != nil {
					store.Commit(c, e)
				} else {
					store.Abort(c)
				}
			}
			held = map[string]*Claim{}
		}

		progress(job.ID, stats.MapTasks+stats.RedTasks, stats.MapTasks+stats.RedTasks, stats.SimTime)
		notify(job.ID, JobDone)
		return nil
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if err := runDAG(ctx, jobs, workers, d.admission, process); err != nil {
		// Abort: discard staged outputs so a cancelled or failed query
		// publishes nothing (user paths keep whatever they held before).
		for stage := range staged {
			_ = eng.DeleteDataset(stage)
		}
		return nil, err
	}

	// Commit: atomically rename each staged user output into place.
	// Renames serialize on the DFS lock, so concurrent queries storing
	// to one path leave it holding exactly one query's complete dataset.
	committedVer := make(map[string]int64, len(staged)) // user path -> version
	for stage, user := range staged {
		commitSpan := tr.Start(root, obs.KindStoreCommit, user)
		v, err := eng.RenameDataset(stage, user)
		tr.End(commitSpan)
		if err != nil {
			return nil, fmt.Errorf("core: committing %s output %s: %w", queryID, user, err)
		}
		committedVer[user] = v
	}
	// Re-key per-job output statistics from stage paths to the user
	// paths callers (and the experiment harness) look up.
	if len(staged) > 0 {
		for i := range outcomes {
			st := outcomes[i].stats
			if st == nil {
				continue
			}
			for stage, user := range staged {
				if o, ok := st.Outputs[stage]; ok {
					delete(st.Outputs, stage)
					st.Outputs[user] = o
				}
			}
		}
	}

	// Merge per-job outcomes in topological order so Rewrites, Stored
	// and JobStats read the same regardless of scheduling interleaving.
	jobTimes := map[string]time.Duration{}
	jobDeps := map[string][]string{}
	for i, job := range jobs {
		out := &outcomes[i]
		res.Rewrites = append(res.Rewrites, out.events...)
		if out.reusedWhole {
			res.JobsReused++
			continue
		}
		res.JobStats = append(res.JobStats, out.stats)
		res.JobsRun++
		jobTimes[job.ID] = out.stats.SimTime
		jobDeps[job.ID] = out.deps
		if out.deferred != nil {
			// The job's user output is committed now; its whole-job
			// entry (pointing at the user path) becomes registrable,
			// bound to exactly the dataset version this query's rename
			// produced: an overwrite by any other query — even one that
			// slipped in before this insert — invalidates it.
			out.deferred.OutputVersion = committedVer[out.deferred.OutputPath]
			res.Stored = append(res.Stored, repo.Insert(out.deferred))
		}
		res.Stored = append(res.Stored, out.stored...)
		res.ExtraStoredSimBytes += out.extraBytes
	}

	res.SimTime = cluster.CriticalPath(jobTimes, jobDeps) + time.Duration(refreshSim.Load())
	d.advance(res.SimTime)

	if opts.DeleteTemps && !opts.storesAnything() {
		deleteTemps(eng, wf, jobs)
	}
	// Post-execution storage maintenance: the reuse-window and validity
	// vacuum (Rules 3 and 4, reclaiming evicted sub-job outputs;
	// user-visible whole-job outputs are left in place) and, when a byte
	// budget is configured, policy-driven eviction back under it. On a
	// durable store, the event log is compacted when due even without a
	// budget or window.
	if opts.EvictionWindow > 0 || store.cfg.MaxBytes > 0 {
		store.Sweep(d.Now(), opts.EvictionWindow)
	} else {
		store.MaintainDurable()
	}

	res.WallTime = time.Since(start)
	tr.Sim(root, res.SimTime)
	d.Metrics.ObserveQuery(res.WallTime)
	return res, nil
}

// register stores the whole-job output and the enumerated sub-job
// outputs in the repository (the enumerated sub-job selector) and
// returns the entries kept plus the extra simulated bytes materialized.
// finalUser, when non-empty, is the user path the job's staged primary
// output will be renamed to at commit: the whole-job entry is then
// returned as deferred (pointing at the user path) instead of being
// inserted, so the repository never references an uncommitted output.
func (d *Driver) register(opts Options, job *physical.Job, cleanPlan *physical.Plan, candidates []Candidate, stats *mapreduce.JobStats, finalUser string) ([]*Entry, *Entry, int64) {
	eng, repo := d.eng, d.store.repo
	fs := eng.FS()
	var stored []*Entry
	var deferred *Entry
	var extraBytes int64

	admit := func(e *Entry) bool {
		if e.Plan.OpCount() <= 1 {
			return false // a bare Load: reusing it is just re-reading the input
		}
		if opts.AdmitOnlyReducing && e.Stats.OutputSimBytes >= e.Stats.InputSimBytes {
			return false
		}
		if opts.AdmitOnlyBeneficial && !beneficial(eng, e) {
			return false
		}
		return true
	}

	versionsOf := func(sig PlanSig) map[string]int64 {
		vs := map[string]int64{}
		for _, p := range sig.loadPaths() {
			vs[p] = fs.Version(p)
		}
		return vs
	}

	if opts.KeepWholeJobs {
		outPath := job.OutputPath
		if finalUser != "" {
			outPath = finalUser
		}
		sig := SigOf(cleanPlan)
		e := &Entry{
			Plan:       sig,
			OutputPath: outPath,
			WholeJob:   true,
			Stats: EntryStats{
				InputSimBytes:  stats.InputSimBytes,
				OutputSimBytes: stats.OutputSimBytes,
				AvgMapTime:     stats.AvgMapTime,
				AvgRedTime:     stats.AvgRedTime,
				JobSimTime:     stats.SimTime,
			},
			InputVersions: versionsOf(sig),
			StoredAt:      d.Now(),
		}
		if admit(e) {
			stampMergeable(fs, e, cleanPlan)
			if finalUser != "" {
				// OutputVersion is unknown until the staged output is
				// renamed into place; the commit path fills it in.
				deferred = e
			} else {
				e.OutputVersion = fs.Version(e.OutputPath)
				stored = append(stored, repo.Insert(e))
			}
		}
	}

	for _, c := range candidates {
		out := stats.Outputs[c.Path]
		if !c.Existing {
			extraBytes += out.SimBytes
		}
		prefixPlan := job.Plan.PrefixPlan(c.OpID, c.Path)
		prefix := SigOf(prefixPlan)
		e := &Entry{
			Plan:       prefix,
			OutputPath: c.Path,
			Stats: EntryStats{
				InputSimBytes:  stats.InputSimBytes,
				OutputSimBytes: out.SimBytes,
				AvgMapTime:     stats.AvgMapTime,
				AvgRedTime:     stats.AvgRedTime,
				JobSimTime:     stats.SimTime,
			},
			InputVersions: versionsOf(prefix),
			StoredAt:      d.Now(),
		}
		if admit(e) {
			stampMergeable(fs, e, prefixPlan)
			e.OutputVersion = fs.Version(e.OutputPath)
			stored = append(stored, repo.Insert(e))
		} else if !c.Existing {
			_ = eng.DeleteDataset(c.Path) // rejected by the selector: reclaim now
		}
	}
	return stored, deferred, extraBytes
}

// beneficial estimates Section 5 Rule 2: reusing the entry must beat
// recomputing it. The replacement job reads the stored output from the
// DFS; the saved work is the producing job's execution time.
func beneficial(eng *mapreduce.Engine, e *Entry) bool {
	cost := eng.Config().Cost
	topo := eng.Config().Topology
	readBW := cost.DiskReadBW * float64(topo.MapSlots())
	if readBW <= 0 {
		return true
	}
	loadTime := time.Duration(float64(e.Stats.OutputSimBytes) / readBW * float64(time.Second))
	loadTime += cost.JobStartup
	return loadTime < e.Stats.JobSimTime
}

// deleteTemps removes inter-job temporaries, the pre-ReStore "current
// practice".
func deleteTemps(eng *mapreduce.Engine, wf *physical.Workflow, jobs []*physical.Job) {
	finals := map[string]bool{}
	for p := range wf.FinalOutputs {
		finals[p] = true
	}
	for _, j := range jobs {
		if !finals[j.OutputPath] {
			_ = eng.DeleteDataset(j.OutputPath)
		}
	}
}
