package restore

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tuple"
)

// twoJobScript compiles to a chain of two MapReduce jobs (group, then
// group of the aggregate), with a parameterized output path.
const twoJobScript = `
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, COUNT(A) as n;
D = group C by n;
E = foreach D generate group, COUNT(C);
store E into '%s';
`

func TestSubmitReturnsBeforeCompletion(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)

	gate := make(chan struct{})
	var once sync.Once
	q, err := sys.Submit(context.Background(), fmt.Sprintf(twoJobScript, "async/out"),
		withJobObserver(func(jobID string, st JobState) {
			if st == JobRunning {
				once.Do(func() { <-gate }) // hold the first job until released
			}
		}),
		WithTag("async-check"),
	)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// The workflow is blocked inside its first job, so Submit must have
	// returned mid-flight: the handle reports in-flight state.
	if _, err := q.Result(); !errors.Is(err, ErrInFlight) {
		t.Errorf("Result before completion: err = %v, want ErrInFlight", err)
	}
	st := q.Status()
	if st.Done {
		t.Errorf("Status.Done = true while the first job is gated")
	}
	if st.Tag != "async-check" {
		t.Errorf("Status.Tag = %q", st.Tag)
	}
	if len(st.Jobs) != 2 {
		t.Fatalf("Status.Jobs = %v, want 2 jobs", st.Jobs)
	}
	select {
	case <-q.Done():
		t.Fatalf("Done closed while the first job is gated")
	default:
	}

	close(gate)
	res, err := q.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if res.JobsRun != 2 {
		t.Errorf("JobsRun = %d, want 2", res.JobsRun)
	}
	st = q.Status()
	if !st.Done || st.Err != nil {
		t.Errorf("final Status = %+v", st)
	}
	for id, s := range st.Jobs {
		if s != JobDone {
			t.Errorf("job %s final state = %v, want done", id, s)
		}
	}
	if _, err := q.Result(); err != nil {
		t.Errorf("Result after completion: %v", err)
	}
}

// TestCancelMidWorkflow is the acceptance check for context
// cancellation: cancelling after the first job of a two-job chain
// completes must prevent the second job from ever starting, release the
// engine's task slots, and surface context.Canceled from Wait.
func TestCancelMidWorkflow(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, err := sys.Submit(ctx, fmt.Sprintf(twoJobScript, "cancelled/out"),
		withJobObserver(func(jobID string, st JobState) {
			if st == JobDone {
				cancel() // first job finished: abort the rest
			}
		}),
	)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	res, err := q.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Errorf("cancelled query returned a result: %+v", res)
	}

	st := q.Status()
	if !st.Done || !errors.Is(st.Err, context.Canceled) {
		t.Errorf("Status = %+v, want done with context.Canceled", st)
	}
	var done, pending int
	for _, s := range st.Jobs {
		switch s {
		case JobDone:
			done++
		case JobPending:
			pending++
		default:
			t.Errorf("unexpected job state %v", s)
		}
	}
	if done != 1 || pending != 1 {
		t.Errorf("job states = %v, want one done and one pending (second job never started)", st.Jobs)
	}

	// Nothing was published: the staged output was discarded.
	if _, err := sys.ReadDataset("cancelled/out"); err == nil {
		t.Errorf("cancelled query published its STORE output")
	}

	// Engine slots were released: the same System still executes.
	if _, err := sys.Execute(fmt.Sprintf(twoJobScript, "after/out")); err != nil {
		t.Fatalf("Execute after cancellation: %v", err)
	}
}

func TestDeadlineExpiryBeforeStart(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q, err := sys.Submit(ctx, fmt.Sprintf(twoJobScript, "late/out"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := q.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait err = %v, want context.DeadlineExceeded", err)
	}
	for id, s := range q.Status().Jobs {
		if s != JobPending {
			t.Errorf("job %s = %v, want pending (nothing ran)", id, s)
		}
	}
}

// TestPerQueryOptionIsolation is the acceptance check for per-query
// configuration: a reuse-on and a reuse-off query running concurrently
// on one System must each observe exactly their own policy, with
// SimTime byte-identical to equivalent serial runs.
func TestPerQueryOptionIsolation(t *testing.T) {
	warmOpts := Options{KeepWholeJobs: true, Heuristic: Aggressive}

	// Serial references: warm a system, then run each policy alone.
	warmUp := func() *System {
		sys := newTestSystem(Options{}) // defaults: reuse off, store nothing
		seedEvents(t, sys)
		if _, err := sys.ExecuteContext(context.Background(),
			fmt.Sprintf(twoJobScript, "warm/out"), WithOptions(warmOpts)); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	serialSys := warmUp()
	serialOn, err := serialSys.ExecuteContext(context.Background(),
		fmt.Sprintf(twoJobScript, "serial/on"), WithOptions(Options{Reuse: true}))
	if err != nil {
		t.Fatal(err)
	}
	serialOff, err := serialSys.Execute(fmt.Sprintf(twoJobScript, "serial/off"))
	if err != nil {
		t.Fatal(err)
	}
	if len(serialOn.Rewrites) == 0 {
		t.Fatalf("serial reuse-on query reused nothing; warm-up broken")
	}

	// Concurrent run on a fresh warm system: same two policies at once.
	sys := warmUp()
	qOn, err := sys.Submit(context.Background(),
		fmt.Sprintf(twoJobScript, "conc/on"), WithOptions(Options{Reuse: true}), WithTag("reuse-on"))
	if err != nil {
		t.Fatal(err)
	}
	qOff, err := sys.Submit(context.Background(),
		fmt.Sprintf(twoJobScript, "conc/off"), WithTag("reuse-off"))
	if err != nil {
		t.Fatal(err)
	}
	rOn, err := qOn.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rOff, err := qOff.Wait()
	if err != nil {
		t.Fatal(err)
	}

	// Each query saw exactly its own policy.
	if len(rOn.Rewrites) == 0 {
		t.Errorf("concurrent reuse-on query reused nothing")
	}
	if len(rOff.Rewrites) != 0 || len(rOff.Stored) != 0 {
		t.Errorf("reuse-off query leaked policy: rewrites=%d stored=%d", len(rOff.Rewrites), len(rOff.Stored))
	}
	// Byte-identical SimTime against the serial references.
	if rOn.SimTime != serialOn.SimTime {
		t.Errorf("reuse-on SimTime %v != serial %v", rOn.SimTime, serialOn.SimTime)
	}
	if rOff.SimTime != serialOff.SimTime {
		t.Errorf("reuse-off SimTime %v != serial %v", rOff.SimTime, serialOff.SimTime)
	}

	// And both produced correct rows.
	for _, res := range []*Result{rOn, rOff} {
		out := "conc/on"
		if res == rOff {
			out = "conc/off"
		}
		rows, err := res.Output(out)
		if err != nil {
			t.Fatal(err)
		}
		serialRows, err := serialOff.Output("serial/off")
		if err != nil {
			t.Fatal(err)
		}
		rows, serialRows = sorted(rows), sorted(serialRows)
		if len(rows) != len(serialRows) {
			t.Fatalf("%s rows = %v, want %v", out, rows, serialRows)
		}
		for i := range rows {
			if !tuple.Equal(rows[i], serialRows[i]) {
				t.Errorf("%s row %d = %v, want %v", out, i, rows[i], serialRows[i])
			}
		}
	}
}

// TestConcurrentStoreSamePath proves output staging: two queries with
// different results storing to one path concurrently must leave it
// holding exactly one query's complete dataset, never an interleaving
// of both queries' part files.
func TestConcurrentStoreSamePath(t *testing.T) {
	scriptA := `
a = load 'events' as (user, amount);
b = filter a by amount > 4;
store b into 'shared/out';
`
	scriptB := `
a = load 'events' as (user, amount);
c = foreach a generate user;
store c into 'shared/out';
`
	golden := func(script string) []Tuple {
		sys := newTestSystem(Options{})
		seedEvents(t, sys)
		res, err := sys.Execute(script)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Output("shared/out")
		if err != nil {
			t.Fatal(err)
		}
		return sorted(rows)
	}
	wantA, wantB := golden(scriptA), golden(scriptB)

	matches := func(rows, want []Tuple) bool {
		if len(rows) != len(want) {
			return false
		}
		for i := range rows {
			if !tuple.Equal(rows[i], want[i]) {
				return false
			}
		}
		return true
	}

	sys := newTestSystem(Options{})
	seedEvents(t, sys)
	for iter := 0; iter < 5; iter++ {
		qa, err := sys.Submit(context.Background(), scriptA)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := sys.Submit(context.Background(), scriptB)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := qa.Wait(); err != nil {
			t.Fatal(err)
		}
		if _, err := qb.Wait(); err != nil {
			t.Fatal(err)
		}
		rows, err := sys.ReadDataset("shared/out")
		if err != nil {
			t.Fatal(err)
		}
		rows = sorted(rows)
		if !matches(rows, wantA) && !matches(rows, wantB) {
			t.Fatalf("iter %d: shared/out holds a mixture: %v (want %v or %v)", iter, rows, wantA, wantB)
		}
	}
}

// TestStatusSnapshotsUnderStress hammers Status from a watcher while
// many tagged queries with mixed per-query options run; run with -race.
func TestStatusSnapshotsUnderStress(t *testing.T) {
	sys := New(DefaultConfig())
	seedEvents(t, sys)

	const clients = 8
	queries := make([]*Query, clients)
	for c := 0; c < clients; c++ {
		opts := []ExecOption{WithTag(fmt.Sprintf("client-%d", c))}
		if c%2 == 0 {
			opts = append(opts, WithOptions(Options{Reuse: true, KeepWholeJobs: true}))
		}
		q, err := sys.Submit(context.Background(),
			fmt.Sprintf(twoJobScript, fmt.Sprintf("stress/c%d", c)), opts...)
		if err != nil {
			t.Fatal(err)
		}
		queries[c] = q
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // watcher: concurrent Status polling
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, q := range queries {
				st := q.Status()
				for id, s := range st.Jobs {
					if s < JobPending || s > JobCanceled {
						t.Errorf("query %s job %s: invalid state %d", st.ID, id, s)
					}
				}
			}
		}
	}()

	for c, q := range queries {
		res, err := q.Wait()
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
		if res.JobsRun+res.JobsReused == 0 {
			t.Errorf("client %d ran nothing", c)
		}
		st := q.Status()
		for id, s := range st.Jobs {
			if s != JobDone && s != JobReused {
				t.Errorf("client %d job %s final state %v", c, id, s)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestOverwrittenUserOutputNotReused guards the staging commit
// protocol: a whole-job entry registered at a user STORE path must stop
// matching once a different query renames its own result over that
// path, or reuse would silently serve the other query's data.
func TestOverwrittenUserOutputNotReused(t *testing.T) {
	const scriptA = `
a = load 'events' as (user, amount);
b = distinct a;
store b into 'pub/data';
`
	const scriptB = `
a = load 'events' as (user, amount);
c = foreach a generate user;
store c into 'pub/data';
`
	const scriptC = `
a = load 'events' as (user, amount);
b = distinct a;
g = group b by user;
s = foreach g generate group, SUM(b.amount);
store s into 'c/out';
`
	golden := func() []Tuple {
		sys := newTestSystem(Options{})
		seedEvents(t, sys)
		res, err := sys.Execute(scriptC)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := res.Output("c/out")
		if err != nil {
			t.Fatal(err)
		}
		return sorted(rows)
	}()

	sys := newTestSystem(Options{})
	seedEvents(t, sys)
	ropts := WithOptions(Options{Reuse: true, KeepWholeJobs: true})
	ctx := context.Background()
	// A publishes 'pub/data' and registers a whole-job entry for it.
	if _, err := sys.ExecuteContext(ctx, scriptA, ropts); err != nil {
		t.Fatal(err)
	}
	// Sanity: before any overwrite, C's first job whole-job reuses A's
	// published output.
	sanity, err := sys.ExecuteContext(ctx, scriptC, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if sanity.JobsReused == 0 {
		t.Fatalf("pre-overwrite query reused nothing; test premise broken")
	}
	// B overwrites the path with different data.
	if _, err := sys.Execute(scriptB); err != nil {
		t.Fatal(err)
	}
	// C must not read B's data through A's stale entry.
	res, err := sys.ExecuteContext(ctx, scriptC, ropts)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := res.Output("c/out")
	if err != nil {
		t.Fatal(err)
	}
	rows = sorted(rows)
	if len(rows) != len(golden) {
		t.Fatalf("rows after overwrite = %v, want %v", rows, golden)
	}
	for i := range rows {
		if !tuple.Equal(rows[i], golden[i]) {
			t.Errorf("row %d = %v, want %v (reused overwritten output?)", i, rows[i], golden[i])
		}
	}
}

// TestCancelByTagConcurrent is the acceptance check for cancel-by-tag
// under concurrency: with several live queries sharing one tag
// (submitted from racing goroutines), plus finished queries that used
// the same tag and a live query under a different tag,
// Cancel(idOrTag) must hit exactly the live tag-holders — every one of
// them — and nothing else.
func TestCancelByTagConcurrent(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)

	// Queries that already finished under the tag: their handles have
	// left the registry, so Cancel must not count them.
	for i := 0; i < 2; i++ {
		if _, err := sys.ExecuteContext(context.Background(),
			fmt.Sprintf(twoJobScript, fmt.Sprintf("tagdone/%d", i)),
			WithTag("nightly")); err != nil {
			t.Fatalf("finished tagged run %d: %v", i, err)
		}
	}

	const live = 4
	release := make(chan struct{})
	var running atomic.Int32
	submit := func(tag, out string) (*Query, error) {
		var once sync.Once
		return sys.Submit(context.Background(), fmt.Sprintf(twoJobScript, out),
			WithTag(tag),
			withJobObserver(func(jobID string, st JobState) {
				if st == JobRunning {
					once.Do(func() {
						running.Add(1)
						<-release // hold the first job mid-flight
					})
				}
			}))
	}

	// Race the tag-sharing submissions against each other.
	queries := make([]*Query, live)
	errs := make([]error, live)
	var wg sync.WaitGroup
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			queries[i], errs[i] = submit("nightly", fmt.Sprintf("taglive/%d", i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	other, err := submit("adhoc", "tagother/out")
	if err != nil {
		t.Fatalf("Submit adhoc: %v", err)
	}

	// Wait until every live query is provably mid-flight (first job
	// gated), so Cancel races against running work, not queued work.
	deadline := time.Now().Add(10 * time.Second)
	for running.Load() < live+1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d queries reached running", running.Load(), live+1)
		}
		time.Sleep(time.Millisecond)
	}

	// The registry sees exactly the live handles, by tag.
	byTag := map[string]int{}
	for _, q := range sys.Queries() {
		byTag[q.Tag()]++
	}
	if byTag["nightly"] != live || byTag["adhoc"] != 1 {
		t.Fatalf("live registry by tag = %v, want nightly:%d adhoc:1", byTag, live)
	}

	if n := sys.Cancel("nightly"); n != live {
		t.Fatalf("Cancel(nightly) = %d, want %d", n, live)
	}
	close(release)

	for i, q := range queries {
		if _, err := q.Wait(); !errors.Is(err, context.Canceled) {
			t.Errorf("tagged query %d: Wait err = %v, want context.Canceled", i, err)
		}
	}
	// The differently-tagged query was untouched and completes.
	res, err := other.Wait()
	if err != nil {
		t.Fatalf("adhoc query: %v", err)
	}
	if res.JobsRun != 2 {
		t.Errorf("adhoc JobsRun = %d, want 2", res.JobsRun)
	}
	// The finished tagged runs' outputs survived the cancellation.
	for i := 0; i < 2; i++ {
		if _, err := sys.ReadDataset(fmt.Sprintf("tagdone/%d", i)); err != nil {
			t.Errorf("finished tagged output %d lost: %v", i, err)
		}
	}
	// Everything matching is gone: a second sweep cancels nothing.
	if n := sys.Cancel("nightly"); n != 0 {
		t.Errorf("second Cancel(nightly) = %d, want 0", n)
	}
}
