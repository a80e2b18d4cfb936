package restore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Result reports one executed query.
type Result struct {
	*core.Result
	sys *System
}

// ErrOutputReplaced reports that a later write replaced or deleted the
// dataset a query committed at a STORE path.
var ErrOutputReplaced = errors.New("restore: output replaced since the query stored it")

// Output returns the rows the query stored at userPath (Outputs.Read).
func (r *Result) Output(userPath string) ([]Tuple, error) {
	return r.Outputs().Read(userPath)
}

// Outputs returns what reading the query's STORE outputs back needs,
// without the rest of the result.
func (r *Result) Outputs() Outputs {
	return Outputs{sys: r.sys, versions: r.OutputVersions}
}

// Outputs is a finished query's STORE paths, each with the dataset
// version its commit produced.
type Outputs struct {
	sys      *System
	versions map[string]int64
}

// Read returns the rows the query stored at path, or ErrOutputReplaced
// once another write has replaced them. The version is checked after
// the read, so a replacement during the read fails it too.
func (o Outputs) Read(path string) ([]Tuple, error) {
	v, ok := o.versions[path]
	if !ok {
		return nil, fmt.Errorf("restore: the query stored nothing at %q", path)
	}
	rows, err := o.sys.ReadDataset(path)
	if o.sys.fs.Version(path) != v {
		return nil, fmt.Errorf("%w: %s", ErrOutputReplaced, path)
	}
	return rows, err
}

// ExecOption tunes one query submission, overriding the System's
// default configuration for that query only.
type ExecOption func(*execConfig)

// execConfig is the resolved per-submission configuration: seeded from
// the System's Config, then adjusted by the submission's ExecOptions in
// order.
type execConfig struct {
	opts     Options
	workers  int
	tag      string
	tenant   string
	observer func(jobID string, state JobState)
	progress func(jobID string, done, total int, sim time.Duration)
	// linearScan routes the matcher through the reference sequential
	// scan; set only by the indexed-vs-scan differential suite.
	linearScan bool
}

// WithOptions replaces the query's entire ReStore configuration,
// instead of inheriting the System's Config.Options. Apply it before
// finer-grained options like WithHeuristic when combining them.
func WithOptions(opts Options) ExecOption {
	return func(c *execConfig) { c.opts = opts }
}

// WithHeuristic overrides only the sub-job materialization heuristic.
func WithHeuristic(h Heuristic) ExecOption {
	return func(c *execConfig) { c.opts.Heuristic = h }
}

// WithWorkers overrides how many of this query's jobs may run
// concurrently (zero means GOMAXPROCS(0); 1 forces stock Pig's serial order).
func WithWorkers(n int) ExecOption {
	return func(c *execConfig) { c.workers = n }
}

// WithTag attaches a client-chosen label to the query, reported by
// Query.Status — useful when one dashboard multiplexes many tenants.
func WithTag(tag string) ExecOption {
	return func(c *execConfig) { c.tag = tag }
}

// WithTenant attaches a tenant identity to the query. The tenant is
// reported by Query.Tenant and QueryStatus, so a serving front-end
// multiplexing many clients over one System (internal/service) can
// account, list and cancel per tenant. Unlike WithTag it names who
// submitted the query rather than what the query is.
func WithTenant(tenant string) ExecOption {
	return func(c *execConfig) { c.tenant = tenant }
}

// withJobObserver registers a synchronous per-job lifecycle callback;
// unexported, for deterministic lifecycle tests.
func withJobObserver(fn func(jobID string, state JobState)) ExecOption {
	return func(c *execConfig) { c.observer = fn }
}

// withJobProgress registers a synchronous task-progress callback —
// called while the job executes, i.e. while it holds its claims and
// leases; unexported, for deterministic cross-process claim tests.
func withJobProgress(fn func(jobID string, done, total int, sim time.Duration)) ExecOption {
	return func(c *execConfig) { c.progress = fn }
}

// ErrInFlight is returned by Query.Result while the query is still
// executing.
var ErrInFlight = errors.New("restore: query still executing")

// ErrClosed is returned by Submit and Execute after System.Close.
var ErrClosed = errors.New("restore: system closed")

// JobProgress is the task-level progress of one MapReduce job within a
// submitted query.
type JobProgress struct {
	// State is the job's lifecycle state (same value as Status.Jobs).
	State JobState
	// TasksDone and TasksTotal count the job's completed map and reduce
	// tasks; both are zero until the job's input is split.
	TasksDone  int
	TasksTotal int
	// SimTime is the simulated execution time accumulated by the job's
	// completed tasks while it runs, and its final Equation 1 time once
	// done. Zero for reused jobs: their work was answered from the
	// repository.
	SimTime time.Duration
}

// QueryStatus is a point-in-time snapshot of a submitted query.
type QueryStatus struct {
	// ID is the unique query ID ("q1", "q2", ...).
	ID string
	// Tag is the WithTag label, if any.
	Tag string
	// Tenant is the WithTenant identity, if any.
	Tenant string
	// Done reports whether the query has finished (successfully or not).
	Done bool
	// Err is the terminal error of a finished query (nil on success or
	// while running; context.Canceled after cancellation).
	Err error
	// Jobs maps each MapReduce job ID of the compiled workflow to its
	// lifecycle state. Jobs a cancelled query never dispatched stay
	// JobPending.
	Jobs map[string]JobState
	// Progress maps each job ID to its task-level progress, so long
	// workflows stay observable while they run — including while the
	// claim protocol has a job waiting on another query's
	// materialization (the job shows running with no tasks done yet).
	Progress map[string]JobProgress
	// SimTimeSoFar sums the simulated execution time of the query's
	// completed and in-flight tasks across all jobs.
	SimTimeSoFar time.Duration
}

// Query is a handle on one submitted script: an asynchronous execution
// whose progress can be observed, whose result can be awaited, and
// whose lifetime is bound to the context passed to Submit. All methods
// are safe for concurrent use.
type Query struct {
	id     string
	tag    string
	tenant string
	sys    *System

	done   chan struct{}
	cancel context.CancelFunc
	trace  *obs.Trace

	mu       sync.Mutex
	jobs     map[string]JobState
	progress map[string]JobProgress
	res      *Result
	err      error
}

// ID returns the unique query ID.
func (q *Query) ID() string { return q.id }

// Tag returns the WithTag label, if any.
func (q *Query) Tag() string { return q.tag }

// Tenant returns the WithTenant identity, if any.
func (q *Query) Tenant() string { return q.tenant }

// Trace snapshots the query's span trace: submit → compile → per-job
// probe (with candidate-level reuse provenance) → claim → refresh →
// execution → commit. It may be called while the query is still
// running (open spans are closed at the snapshot instant) and returns
// nil when tracing was disabled (Options.DisableTrace).
func (q *Query) Trace() *TraceSnapshot { return q.trace.Snapshot() }

// Cancel aborts the query as if its submission context had been
// cancelled: unstarted jobs stay pending, running jobs release their
// engine slots, staged outputs are discarded, and Wait returns
// context.Canceled. Cancelling a finished query is a no-op.
func (q *Query) Cancel() { q.cancel() }

// Done returns a channel closed when the query finishes, for use in
// select loops alongside other events.
func (q *Query) Done() <-chan struct{} { return q.done }

// Wait blocks until the query finishes and returns its result. If the
// submission context was cancelled, Wait returns the context's error
// (context.Canceled or context.DeadlineExceeded).
func (q *Query) Wait() (*Result, error) {
	<-q.done
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.res, q.err
}

// Result returns the query's outcome without blocking: ErrInFlight
// while it is still executing, otherwise exactly what Wait returns.
func (q *Query) Result() (*Result, error) {
	select {
	case <-q.done:
		return q.Wait()
	default:
		return nil, ErrInFlight
	}
}

// Status snapshots the query's per-job lifecycle states and task-level
// progress.
func (q *Query) Status() QueryStatus {
	st := QueryStatus{ID: q.id, Tag: q.tag, Tenant: q.tenant}
	select {
	case <-q.done:
		st.Done = true
	default:
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if st.Done {
		st.Err = q.err
	}
	st.Jobs = make(map[string]JobState, len(q.jobs))
	st.Progress = make(map[string]JobProgress, len(q.jobs))
	for id, s := range q.jobs {
		st.Jobs[id] = s
		p := q.progress[id]
		p.State = s
		st.Progress[id] = p
		st.SimTimeSoFar += p.SimTime
	}
	return st
}

// Submit parses and compiles a Pig Latin script, then starts executing
// it asynchronously, returning a Query handle immediately — before any
// MapReduce job has run. Compilation errors are returned synchronously;
// execution errors surface through Wait/Result.
//
// The query runs with its own immutable configuration: Config.Options
// and Config.WorkflowWorkers, adjusted by the given ExecOptions.
// Cancelling ctx aborts the workflow promptly (unstarted jobs stay
// pending, running jobs release their engine slots, staged outputs are
// discarded) and Wait returns ctx.Err().
func (s *System) Submit(ctx context.Context, script string, opts ...ExecOption) (*Query, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.closed.Load() {
		return nil, ErrClosed
	}
	qid := fmt.Sprintf("%sq%d", s.qidPrefix, s.nquery.Add(1))

	// The System's defaults, then the submission's own options.
	// Resolved before compilation so the trace — which wants a compile
	// span — knows whether this query is traced.
	ec := execConfig{opts: s.cfg.Options, workers: s.cfg.WorkflowWorkers}
	for _, o := range opts {
		o(&ec)
	}

	var tr *obs.Trace
	rootSpan := obs.NoSpan
	if !ec.opts.DisableTrace {
		tr = obs.NewTrace(qid)
		rootSpan = tr.Start(obs.NoSpan, obs.KindSubmit, qid)
	}
	compileSpan := tr.Start(rootSpan, obs.KindCompile, "")
	wf, err := s.compile(script, s.driver.Namespace("tmp", qid))
	tr.End(compileSpan)
	if err != nil {
		return nil, err
	}

	// The execution runs under a cancellable child of the caller's
	// context, so the handle (and the System's Cancel) can abort it.
	qctx, cancel := context.WithCancel(ctx)
	q := &Query{
		id:       qid,
		tag:      ec.tag,
		tenant:   ec.tenant,
		sys:      s,
		done:     make(chan struct{}),
		cancel:   cancel,
		trace:    tr,
		jobs:     make(map[string]JobState, len(wf.Jobs)),
		progress: make(map[string]JobProgress, len(wf.Jobs)),
	}
	for _, j := range wf.Jobs {
		q.jobs[j.ID] = JobPending
	}

	cfg := core.ExecConfig{
		Opts:       ec.opts,
		Workers:    ec.workers,
		Trace:      tr,
		LinearScan: ec.linearScan,
		OnJobState: func(jobID string, state JobState) {
			q.mu.Lock()
			q.jobs[jobID] = state
			q.mu.Unlock()
			if ec.observer != nil {
				ec.observer(jobID, state)
			}
		},
		OnJobProgress: func(jobID string, done, total int, sim time.Duration) {
			q.mu.Lock()
			p := q.progress[jobID]
			p.TasksDone, p.TasksTotal, p.SimTime = done, total, sim
			q.progress[jobID] = p
			q.mu.Unlock()
			if ec.progress != nil {
				ec.progress(jobID, done, total, sim)
			}
		},
	}

	// The handle is listed by Queries until the execution fully returns.
	s.qmu.Lock()
	s.queries[qid] = q
	s.qmu.Unlock()

	go func() {
		res, err := s.driver.Execute(qctx, wf, qid, cfg)
		s.qmu.Lock()
		delete(s.queries, qid)
		s.qmu.Unlock()
		cancel() // release the context's resources
		if err != nil {
			tr.Note(rootSpan, "failed: "+err.Error())
		}
		tr.End(rootSpan)
		q.mu.Lock()
		if err != nil {
			q.err = err
		} else {
			q.res = &Result{Result: res, sys: s}
		}
		q.mu.Unlock()
		close(q.done)
	}()
	return q, nil
}

// Queries returns the in-flight query handles, sorted by ID. A handle
// leaves the registry only when its execution has fully finished, so a
// returned handle may report Done by the time it is inspected.
func (s *System) Queries() []*Query {
	s.qmu.Lock()
	out := make([]*Query, 0, len(s.queries))
	for _, q := range s.queries {
		out = append(out, q)
	}
	s.qmu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].id, out[j].id
		if len(a) != len(b) {
			return len(a) < len(b) // q2 before q10
		}
		return a < b
	})
	return out
}

// Cancel aborts every in-flight query whose ID or tag equals idOrTag
// and returns how many were cancelled.
func (s *System) Cancel(idOrTag string) int {
	n := 0
	for _, q := range s.Queries() {
		if q.id == idOrTag || (q.tag != "" && q.tag == idOrTag) {
			q.Cancel()
			n++
		}
	}
	return n
}

// Execute parses, compiles, and runs a Pig Latin script through the
// ReStore pipeline, blocking until it completes: it is Submit followed
// by Wait, with no cancellation. It is safe to call from many
// goroutines at once; each call gets a unique query ID and private
// temp-path namespace.
func (s *System) Execute(script string) (*Result, error) {
	return s.ExecuteContext(context.Background(), script)
}

// ExecuteContext is Execute with a context and per-query options: it
// submits the script and waits for the result.
func (s *System) ExecuteContext(ctx context.Context, script string, opts ...ExecOption) (*Result, error) {
	q, err := s.Submit(ctx, script, opts...)
	if err != nil {
		return nil, err
	}
	return q.Wait()
}
