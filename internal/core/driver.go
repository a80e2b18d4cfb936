package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
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

// Execute runs a workflow through the full ReStore pipeline under ctx
// with a per-execution configuration snapshot, and returns its report.
// queryID must be unique per execution. The caller's workflow is never
// mutated: the driver clones it, so one compiled workflow may be
// executed repeatedly or from several goroutines at once.
//
// Cancelling ctx (or exceeding its deadline) aborts the workflow
// promptly: jobs that have not started stay pending forever, in-flight
// jobs abort at the engine's next task-slot acquisition and release
// their slots, and Execute returns ctx.Err(). No entry is ever
// registered for a job that did not run to completion. Each query's
// final outputs are written under its private temp namespace and
// renamed into place in user-path order once every job has completed,
// so a query cancelled or failed before that publishes nothing, and two
// queries storing to one path cannot interleave part files. A rename
// failing mid-commit leaves the outputs renamed before it published.
func (d *Driver) Execute(ctx context.Context, wf *physical.Workflow, queryID string, cfg ExecConfig) (*Result, error) {
	start := time.Now()
	x, err := d.newExecution(ctx, wf, queryID, cfg)
	if err != nil {
		return nil, err
	}
	defer x.unpin()
	if err := x.stage(); err != nil {
		return nil, err
	}
	if err := x.run(); err != nil {
		x.discard(0)
		return nil, err
	}
	versions, err := x.commit()
	if err != nil {
		return nil, err
	}
	res := x.merge(versions)
	d.advance(res.SimTime)
	x.maintain()
	res.WallTime = time.Since(start)
	x.tr.Sim(x.root, res.SimTime)
	d.Metrics.ObserveQuery(res.WallTime)
	return res, nil
}

// execution is one Execute call. Its methods are the workflow stages —
// stage, run, commit, merge, maintain — and run drives one jobRun per
// job through the DAG scheduler.
type execution struct {
	d        *Driver
	ctx      context.Context
	cfg      ExecConfig
	queryID  string
	tr       *obs.Trace
	root     obs.SpanID
	notify   func(jobID string, state JobState)
	progress func(jobID string, done, total int, sim time.Duration)

	wf   *physical.Workflow // the private clone
	jobs []*physical.Job    // in topological order
	runs map[string]*jobRun // by job ID
	// dependants of a job are the only jobs whole-job reuse may touch
	// besides the job itself: they cannot have started (they depend on
	// it), unlike siblings whose goroutines may be mutating their plans.
	dependants map[string][]*physical.Job
	staged     []stagedOutput // in user-path order

	rewriter *Rewriter
	enum     *Enumerator
	// refreshSim is the simulated time this query's entry refreshes
	// consumed: they run on its critical path, so a refreshed reuse is
	// never free.
	refreshSim atomic.Int64

	// wfMu serializes every mutation of the shared workflow structure:
	// rewriting a job's plan, dropping a whole-job-reused job, and
	// redirecting its dependants' Load paths and dependency lists. A job
	// is scheduled only after its producers completed (including their
	// dependant redirects), so outside this lock each job's plan and
	// DependsOn list are private to the goroutine running it. It also
	// guards pinned, the entries rewritten jobs read: vacuum-proof here
	// and at every peer until the execution finishes.
	wfMu   sync.Mutex
	pinned []string
}

// stagedOutput is a user STORE output and the private path it is
// written to until the commit renames it into place.
type stagedOutput struct{ stage, user string }

// maxClaimAttempts bounds a job's rewrite/claim loop. It only matters
// under pathological abort storms; on overflow the job proceeds without
// the unresolved claims.
const maxClaimAttempts = 16

func (d *Driver) newExecution(ctx context.Context, wf *physical.Workflow, queryID string, cfg ExecConfig) (*execution, error) {
	x := &execution{d: d, ctx: ctx, cfg: cfg, queryID: queryID, tr: cfg.Trace, root: cfg.Trace.Root(),
		notify: cfg.OnJobState, progress: cfg.OnJobProgress, wf: wf.Clone()}
	if x.notify == nil {
		x.notify = func(string, JobState) {}
	}
	if x.progress == nil {
		x.progress = func(string, int, int, time.Duration) {}
	}
	// Fold a shared durable store's peer entries into the repository
	// first: what another process stored is reusable from the first probe.
	if cfg.Opts.Reuse {
		d.store.RefreshShared()
	}
	x.rewriter = &Rewriter{Repo: d.store.repo, FS: d.eng.FS(), LinearScan: cfg.LinearScan,
		Leases: d.store.cfg.Leases, Trace: x.tr, Metrics: d.Metrics, Refresher: x.refresh}
	x.enum = &Enumerator{Heuristic: cfg.Opts.Heuristic, PathFor: func(job *physical.Job, opID int) string {
		return fmt.Sprintf("%s/%s/op%d", d.namespace("restore", queryID), job.ID, opID)
	}}
	jobs, err := x.wf.TopoJobs()
	if err != nil {
		return nil, err
	}
	x.jobs, x.runs = jobs, make(map[string]*jobRun, len(jobs))
	x.dependants = make(map[string][]*physical.Job, len(jobs))
	for _, j := range jobs {
		x.runs[j.ID] = &jobRun{x: x, job: j, claims: claimSet{store: d.store, held: map[string]*Claim{}}}
		for _, dep := range j.DependsOn {
			x.dependants[dep] = append(x.dependants[dep], j)
		}
	}
	return x, nil
}

// unpin releases the pins this execution's rewrites took.
func (x *execution) unpin() {
	for _, id := range x.pinned {
		x.d.store.cfg.Leases.Unpin(id)
	}
}

// stage points every user STORE output at the query's private stage
// path, <root>/tmp/<qid>/.staged/<user>, and every job reading it at the
// stage. A user path that equals or contains its stage path could never
// be renamed onto, so it is rejected before any job runs.
func (x *execution) stage() error {
	prefix := x.d.namespace("tmp", x.queryID) + "/.staged/"
	for _, job := range x.jobs {
		user := job.OutputPath
		if _, ok := x.wf.FinalOutputs[user]; !ok {
			continue
		}
		stage := prefix + user
		if u := cleanPath(user); u == "" || strings.HasPrefix(cleanPath(stage), u+"/") {
			return fmt.Errorf("core: STORE path %q contains the query's stage path %q", user, stage)
		}
		for _, op := range job.Plan.Ops() {
			if op.Kind == physical.KStore && op.Path == user {
				op.Path = stage
			}
		}
		job.OutputPath = stage
		x.runs[job.ID].user = user
		x.staged = append(x.staged, stagedOutput{stage: stage, user: user})
		for _, other := range x.jobs {
			if other != job {
				other.RewriteLoadPath(user, stage)
			}
		}
	}
	sort.Slice(x.staged, func(i, j int) bool { return x.staged[i].user < x.staged[j].user })
	return nil
}

// run schedules the jobs over their dependency DAG on the worker pool.
func (x *execution) run() error {
	workers := x.cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return runDAG(x.ctx, x.jobs, workers, x.d.admission, func(job *physical.Job) error {
		return x.runs[job.ID].run()
	})
}

// commit renames each staged output into place in user-path order and
// returns the dataset version each rename produced. Renames serialize
// on the DFS lock, so concurrent queries storing to one path leave it
// holding exactly one query's complete dataset. A failed rename
// discards the stages not yet renamed; those renamed before it stay.
func (x *execution) commit() (map[string]int64, error) {
	versions := make(map[string]int64, len(x.staged))
	for i, s := range x.staged {
		span := x.tr.Start(x.root, obs.KindStoreCommit, s.user)
		v, err := x.d.eng.RenameDataset(s.stage, s.user)
		x.tr.End(span)
		if err != nil {
			x.discard(i)
			return nil, fmt.Errorf("core: committing %s output %s: %w", x.queryID, s.user, err)
		}
		versions[s.user] = v
	}
	return versions, nil
}

// discard deletes the staged outputs from the from-th on.
func (x *execution) discard(from int) {
	for _, s := range x.staged[from:] {
		_ = x.d.eng.DeleteDataset(s.stage)
	}
}

// merge folds the job runs into the report in topological order, so it
// reads the same under any scheduling. It re-keys output statistics to
// user paths and inserts each deferred whole-job entry bound to exactly
// the dataset version its rename produced: an overwrite by any other
// query — even one that slipped in before this insert — invalidates it.
func (x *execution) merge(versions map[string]int64) *Result {
	res := &Result{QueryID: x.queryID, FinalOutputs: x.wf.FinalOutputs}
	jobTimes := map[string]time.Duration{}
	jobDeps := map[string][]string{}
	for _, job := range x.jobs {
		r := x.runs[job.ID]
		res.Rewrites = append(res.Rewrites, r.events...)
		if r.reusedWhole {
			res.JobsReused++
			continue
		}
		for _, s := range x.staged {
			if o, ok := r.stats.Outputs[s.stage]; ok {
				delete(r.stats.Outputs, s.stage)
				r.stats.Outputs[s.user] = o
			}
		}
		res.JobStats = append(res.JobStats, r.stats)
		res.JobsRun++
		jobTimes[job.ID] = r.stats.SimTime
		jobDeps[job.ID] = r.deps
		if r.deferred != nil {
			r.deferred.OutputVersion = versions[r.deferred.OutputPath]
			res.Stored = append(res.Stored, x.d.store.repo.Insert(r.deferred))
		}
		res.Stored = append(res.Stored, r.stored...)
		res.ExtraStoredSimBytes += r.extraBytes
	}
	res.SimTime = cluster.CriticalPath(jobTimes, jobDeps) + time.Duration(x.refreshSim.Load())
	return res
}

// maintain runs the post-execution storage maintenance
// (StorageManager.Maintain): the validity vacuum of the entries over
// the datasets that changed (Rule 4) and the reuse-window vacuum
// (Rule 3; user-visible whole-job outputs stay in place), eviction back
// under a byte budget and, on a durable store, log compaction when due.
// Temporaries are deleted first, so their paths are among the changed.
func (x *execution) maintain() {
	opts := x.cfg.Opts
	if opts.DeleteTemps && !opts.storesAnything() {
		deleteTemps(x.d.eng, x.wf, x.jobs)
	}
	x.d.store.Maintain(x.d.Now(), opts.EvictionWindow)
}

// jobRun is one job's pass through the ReStore steps — rewrite, choose,
// claim, exec, register, resolve — and the outcome merge reads.
type jobRun struct {
	x          *execution
	job        *physical.Job
	user       string // the user path of the job's staged output, if any
	span       obs.SpanID
	claims     claimSet
	seen       int64          // the repository generation the last rewrite saw
	existing   []Candidate    // zero-cost candidates of the final plan
	targets    []*physical.Op // injectable targets of the final plan
	injectable []*physical.Op // targets this job actually materializes

	events      []RewriteEvent
	reusedWhole bool
	stats       *mapreduce.JobStats
	deps        []string
	stored      []*Entry
	extraBytes  int64
	// deferred is the whole-job entry of a job whose output is staged:
	// inserted only after the commit, so the repository never references
	// data that has not been committed.
	deferred *Entry
}

func (r *jobRun) run() error {
	x, job := r.x, r.job
	if err := x.ctx.Err(); err != nil {
		return err // cancelled before dispatch: the job stays pending
	}
	x.notify(job.ID, JobRunning)
	r.span = x.tr.Start(x.root, obs.KindJob, job.ID)
	defer x.tr.End(r.span)

	reused, err := r.claim()
	if err != nil {
		return r.fail(err)
	}
	if reused {
		r.claims.abortAll()
		x.tr.Note(r.span, "whole job reused — never executed")
		x.notify(job.ID, JobReused)
		return nil
	}
	// The whole-job entry describes the plan before Store injection.
	cleanPlan := job.Plan.Clone()
	candidates := append(r.existing, x.enum.Inject(job, r.injectable)...)
	stats, err := r.exec()
	if err != nil {
		return r.fail(err)
	}
	r.stats = stats
	r.register(cleanPlan, candidates)
	r.claims.resolve(r.stored)
	x.progress(job.ID, stats.MapTasks+stats.RedTasks, stats.MapTasks+stats.RedTasks, stats.SimTime)
	x.notify(job.ID, JobDone)
	return nil
}

// fail aborts the job's claims and reports it canceled or failed.
func (r *jobRun) fail(err error) error {
	r.claims.abortAll()
	if r.x.ctx.Err() != nil {
		r.x.notify(r.job.ID, JobCanceled)
	} else {
		r.x.notify(r.job.ID, JobFailed)
	}
	return fmt.Errorf("core: executing %s/%s: %w", r.x.queryID, r.job.ID, err)
}

// rewrite matches and rewrites the job against the repository under the
// workflow lock, and reports whether the whole job was reused: it is
// then dropped, and its dependants read the stored output instead.
func (r *jobRun) rewrite() bool {
	x, job := r.x, r.job
	x.wfMu.Lock()
	defer x.wfMu.Unlock()
	if x.cfg.Opts.Reuse {
		events := x.rewriter.RewriteJob(job, r.user == "", r.span)
		for _, ev := range events {
			x.pinned = append(x.pinned, ev.EntryID)
			x.d.store.repo.NoteReuse(ev.entry, x.d.Now())
		}
		r.events = append(r.events, events...)
		if n := len(events); n > 0 && events[n-1].WholeJob {
			x.wf.DropJob(job.ID)
			for _, dep := range x.dependants[job.ID] {
				dep.RemoveDependency(job.ID)
				dep.RewriteLoadPath(job.OutputPath, events[n-1].Path)
			}
			r.reusedWhole = true
			return true
		}
	}
	// Snapshot the dependency list for Equation 1 while the lock is
	// held: whole-job reuse of a producer strips it from DependsOn.
	r.deps = append([]string(nil), job.DependsOn...)
	return false
}

// choose picks the materialization points of the rewritten plan, and
// reports whether the rewrite is stale: it skipped a target as stored
// by an entry published after the rewrite's generation.
func (r *jobRun) choose() (stale bool) {
	repo, fs := r.x.d.store.repo, r.x.d.eng.FS()
	enum := *r.x.enum
	enum.SkipExisting = func(prefix PlanSig) bool {
		e := repo.Lookup(prefix)
		if e == nil || !repo.Valid(e, fs) {
			return false
		}
		stale = stale || e.gen > r.seen
		return true
	}
	r.existing, r.targets = enum.Choose(r.job)
	return stale
}

// claim rewrites, chooses and claims until the job holds every claim it
// needs, or reports that the whole job was reused. Every execution that
// stores claims: a sub-job another query is materializing is waited for
// and reused, not materialized twice. Each iteration wins every needed
// claim, absorbs a freshly committed entry, or retries an aborted one.
func (r *jobRun) claim() (reused bool, err error) {
	x, repo := r.x, r.x.d.store.repo
	for attempt := 0; ; attempt++ {
		// Entries published after seen are invisible to the rewrite.
		// Finding one later — a target Choose skips as already stored,
		// or a claim that was free because a peer registered its
		// sub-job and released it — means the rewrite is stale: rewrite
		// again rather than recompute or re-materialize what the
		// repository already answers.
		r.seen = repo.generation()
		if r.rewrite() {
			return true, nil
		}
		if r.choose() && x.cfg.Opts.Reuse && attempt < maxClaimAttempts {
			continue
		}
		if !x.cfg.Opts.storesAnything() {
			r.injectable = r.targets
			return false, nil
		}
		fps, targetFP := r.wanted()
		// Release claims a committed entry absorbed.
		r.claims.release(func(fp string) bool { return !fps[fp] })
		waitOn := r.acquire(fps)
		if attempt < maxClaimAttempts && r.claims.release(func(fp string) bool { return repo.registeredSince(fp, r.seen) }) {
			continue
		}
		if waitOn == nil {
			r.injectable = r.targets
			return false, nil
		}
		if attempt >= maxClaimAttempts {
			// Stop contending: materialize only what this job holds.
			for _, op := range r.targets {
				if r.claims.held[targetFP[op.ID]] != nil {
					r.injectable = append(r.injectable, op)
				}
			}
			return false, nil
		}
		// The deadlock-freedom invariant — while blocked, hold only
		// fingerprints smaller than the one waited on — must survive
		// re-rewrites: an absorbed entry can put new, smaller
		// fingerprints into the claim set. Release any held claim above
		// the wait target before blocking; the next iteration
		// re-contends for it.
		r.claims.release(func(fp string) bool { return fp > waitOn.Fingerprint() })
		waitSpan := x.tr.Start(r.span, obs.KindClaimWait, waitOn.Fingerprint())
		waitStart := time.Now()
		_, err := x.d.store.WaitShared(x.ctx, waitOn)
		x.d.Metrics.ObserveClaimWait(time.Since(waitStart))
		x.tr.End(waitSpan)
		if err != nil {
			return false, err
		}
		// Re-rewrite: a committed entry is absorbed by the matcher (or
		// skipped by Choose); an aborted one is contended again.
	}
}

// wanted returns the fingerprint of every sub-job the job would
// register, and each injectable target's. The whole-job and existing
// candidates are claimed only with reuse on — a loser profits from them
// only by rewriting against the committed entry — and only for
// non-final jobs, whose outputs other queries must not wait on or
// rewrite to until the commit.
func (r *jobRun) wanted() (map[string]bool, map[int]string) {
	opts, plan := r.x.cfg.Opts, r.job.Plan
	fps := map[string]bool{}
	if r.user == "" && opts.Reuse {
		if opts.KeepWholeJobs {
			sig := SigOf(plan)
			fps[sig.Fingerprint()] = true
		}
		for _, c := range r.existing {
			sig := SigOf(plan.PrefixPlan(c.OpID, c.Path))
			fps[sig.Fingerprint()] = true
		}
	}
	targetFP := make(map[int]string, len(r.targets))
	for _, op := range r.targets {
		sig := SigOf(plan.PrefixPlan(op.ID, "claim"))
		targetFP[op.ID] = sig.Fingerprint()
		fps[targetFP[op.ID]] = true
	}
	return fps, targetFP
}

// acquire takes the wanted claims in sorted fingerprint order up to the
// first contended one, which it returns: waiting while holding only
// smaller fingerprints makes cross-query claim waits deadlock-free.
func (r *jobRun) acquire(fps map[string]bool) (waitOn *Claim) {
	order := make([]string, 0, len(fps))
	for fp := range fps {
		order = append(order, fp)
	}
	sort.Strings(order)
	span := r.x.tr.Start(r.span, obs.KindClaimAcquire, r.job.ID)
	for _, fp := range order {
		if r.claims.held[fp] != nil {
			continue
		}
		c, won := r.x.d.store.TryClaim(fp)
		if !won {
			waitOn = c
			break
		}
		r.claims.held[fp] = c
	}
	if r.x.tr != nil {
		r.x.tr.Note(span, fmt.Sprintf("%d fingerprint(s) wanted, %d held", len(order), len(r.claims.held)))
	}
	r.x.tr.End(span)
	return waitOn
}

// exec runs the instrumented job on the engine under a job.exec span.
func (r *jobRun) exec() (*mapreduce.JobStats, error) {
	x, job := r.x, r.job
	span := x.tr.Start(r.span, obs.KindJobExec, job.ID)
	stats, err := x.d.eng.Run(x.ctx, job, func(done, total int, sim time.Duration) {
		x.progress(job.ID, done, total, sim)
	})
	x.tr.End(span)
	if err != nil {
		return nil, err
	}
	x.tr.Sim(span, stats.SimTime)
	x.tr.Bytes(span, stats.InputSimBytes, stats.OutputSimBytes)
	return stats, nil
}

// register is the enumerated sub-job selector: it keeps the whole-job
// output and the enumerated sub-job outputs the admission rules accept
// as repository entries, and deletes the rejected sub-job outputs. A
// final job's whole-job entry points at its user path, which holds
// nothing until the commit, so it is deferred instead of inserted.
func (r *jobRun) register(cleanPlan *physical.Plan, candidates []Candidate) {
	x, job, stats := r.x, r.job, r.stats
	opts, eng, repo := x.cfg.Opts, x.d.eng, x.d.store.repo
	fs := eng.FS()
	admit := func(e *Entry) bool {
		if e.Plan.OpCount() <= 1 {
			return false // a bare Load: reusing it is just re-reading the input
		}
		if opts.AdmitOnlyReducing && e.Stats.OutputSimBytes >= e.Stats.InputSimBytes {
			return false
		}
		return !opts.AdmitOnlyBeneficial || beneficial(eng, e)
	}
	entry := func(plan *physical.Plan, outPath string, outBytes int64) *Entry {
		sig := SigOf(plan)
		vs := map[string]int64{}
		for _, p := range sig.loadPaths() {
			vs[p] = fs.Version(p)
		}
		return &Entry{Plan: sig, OutputPath: outPath, InputVersions: vs, StoredAt: x.d.Now(), Stats: EntryStats{
			InputSimBytes:  stats.InputSimBytes,
			OutputSimBytes: outBytes,
			AvgMapTime:     stats.AvgMapTime,
			AvgRedTime:     stats.AvgRedTime,
			JobSimTime:     stats.SimTime,
		}}
	}

	if opts.KeepWholeJobs {
		e := entry(cleanPlan, cmp.Or(r.user, job.OutputPath), stats.OutputSimBytes)
		e.WholeJob = true
		if admit(e) {
			stampMergeable(fs, e, cleanPlan)
			if r.user != "" {
				r.deferred = e // OutputVersion is set at commit
			} else {
				e.OutputVersion = fs.Version(e.OutputPath)
				r.stored = append(r.stored, repo.Insert(e))
			}
		}
	}
	for _, c := range candidates {
		o := stats.Outputs[c.Path]
		if !c.Existing {
			r.extraBytes += o.SimBytes
		}
		prefixPlan := job.Plan.PrefixPlan(c.OpID, c.Path)
		e := entry(prefixPlan, c.Path, o.SimBytes)
		if admit(e) {
			stampMergeable(fs, e, prefixPlan)
			e.OutputVersion = fs.Version(e.OutputPath)
			r.stored = append(r.stored, repo.Insert(e))
		} else if !c.Existing {
			_ = eng.DeleteDataset(c.Path) // rejected by the selector: reclaim now
		}
	}
}

// claimSet holds the claims one job won, by plan fingerprint; every
// exit path of the job must commit or abort them all.
type claimSet struct {
	store *StorageManager
	held  map[string]*Claim
}

func (s *claimSet) abortAll() { s.release(func(string) bool { return true }) }

// release aborts the held claims drop selects and reports whether there
// were any.
func (s *claimSet) release(drop func(fp string) bool) bool {
	dropped := false
	for fp, c := range s.held {
		if drop(fp) {
			s.store.Abort(c)
			delete(s.held, fp)
			dropped = true
		}
	}
	return dropped
}

// resolve commits the claim of every entry the job registered, so
// waiting queries wake and reuse it, and aborts the claims whose
// entries the sub-job selector rejected.
func (s *claimSet) resolve(stored []*Entry) {
	registered := make(map[string]bool, len(stored))
	for _, e := range stored {
		registered[e.fingerprint()] = true
	}
	for fp, c := range s.held {
		if registered[fp] {
			s.store.Commit(c)
		} else {
			s.store.Abort(c)
		}
	}
	clear(s.held)
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
