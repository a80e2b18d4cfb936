package restore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dfs"
	"repro/internal/tuple"
)

// oneJobScript compiles to a single MapReduce job with a parameterized
// output path; its group/aggregate prefix is the shared sub-job the
// claim protocol must materialize exactly once across queries.
const oneJobScript = `
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, SUM(A.amount);
store C into '%s';
`

// claimOpts stores and reuses aggressively: the configuration under
// which concurrent same-signature queries contend for materialization.
var claimOpts = Options{Reuse: true, Heuristic: Aggressive}

// TestConcurrentSameSignatureSubmissions is the acceptance check for
// the claim protocol, run with -race: N concurrent submissions of one
// script must materialize each shared sub-job exactly once — asserted
// via the repository size and the DFS's restore/ dataset count against
// a serial baseline — and produce byte-identical outputs with the same
// multiset of SimTimes as the serial runs.
func TestConcurrentSameSignatureSubmissions(t *testing.T) {
	const clients = 4

	runAll := func(concurrent bool) (sims []time.Duration, rows [][]Tuple, datasets int, entries int) {
		sys := newTestSystem(claimOpts)
		seedEvents(t, sys)
		results := make([]*Result, clients)
		if concurrent {
			queries := make([]*Query, clients)
			for i := 0; i < clients; i++ {
				q, err := sys.Submit(context.Background(), fmt.Sprintf(oneJobScript, fmt.Sprintf("out/c%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				queries[i] = q
			}
			for i, q := range queries {
				res, err := q.Wait()
				if err != nil {
					t.Fatal(err)
				}
				results[i] = res
			}
		} else {
			for i := 0; i < clients; i++ {
				res, err := sys.Execute(fmt.Sprintf(oneJobScript, fmt.Sprintf("out/c%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				results[i] = res
			}
		}
		for i, res := range results {
			sims = append(sims, res.SimTime)
			out, err := res.Output(fmt.Sprintf("out/c%d", i))
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, sorted(out))
		}
		// Every claim is a lease file under locks/ while it is held, and
		// gone once it resolves.
		if n := len(sys.FS().Datasets(core.NamespacePath("", "locks"))); n != 0 {
			t.Errorf("%d lease files outlived the queries", n)
		}
		return sims, rows, len(sys.FS().Datasets(core.NamespacePath("", "restore"))), sys.Repository().Len()
	}

	serialSims, serialRows, serialDatasets, serialEntries := runAll(false)
	concSims, concRows, concDatasets, concEntries := runAll(true)

	// Exactly-once materialization: the concurrent run wrote the same
	// number of sub-job datasets as the serial one, where later runs
	// skip everything the first materialized; and the repository holds
	// the same number of entries.
	if concDatasets != serialDatasets {
		t.Errorf("concurrent run materialized %d restore/ datasets, serial baseline %d", concDatasets, serialDatasets)
	}
	if concEntries != serialEntries {
		t.Errorf("concurrent repository has %d entries, serial baseline %d", concEntries, serialEntries)
	}

	// Outputs byte-identical to the serial runs.
	for i := range concRows {
		if len(concRows[i]) != len(serialRows[i]) {
			t.Fatalf("client %d: %d rows, serial %d", i, len(concRows[i]), len(serialRows[i]))
		}
		for j := range concRows[i] {
			if !tuple.Equal(concRows[i][j], serialRows[i][j]) {
				t.Errorf("client %d row %d = %v, serial %v", i, j, concRows[i][j], serialRows[i][j])
			}
		}
	}

	// The multiset of SimTimes matches the serial baseline: one winner
	// pays the full generating run, every loser reuses the winner's
	// freshly committed entries exactly as a serial rerun would.
	sortDurations(serialSims)
	sortDurations(concSims)
	for i := range serialSims {
		if concSims[i] != serialSims[i] {
			t.Fatalf("SimTime multiset mismatch:\nconcurrent %v\nserial     %v", concSims, serialSims)
		}
	}
}

// stallFS stalls the first commit of a staged query output (a rename
// out of a .staged/ directory) until release is closed.
type stallFS struct {
	dfs.Backend
	stalled          atomic.Bool
	arrived, release chan struct{}
}

func (s *stallFS) Rename(oldPath, newPath string) (int64, error) {
	if strings.Contains(oldPath, "/.staged/") && s.stalled.CompareAndSwap(false, true) {
		close(s.arrived)
		<-s.release
	}
	return s.Backend.Rename(oldPath, newPath)
}

// TestConcurrentSameSignatureAcrossAppend: query 1 stalls at its
// commit, its job run and its entries registered; an append lands, and
// query 2 — the same script — replaces query 1's entries at the grown
// input version. Query 2's maintenance must not delete what query 1
// is about to commit, and once query 1 is done the janitor reclaims
// every managed dataset no entry references.
func TestConcurrentSameSignatureAcrossAppend(t *testing.T) {
	fs := &stallFS{Backend: dfs.New(), arrived: make(chan struct{}), release: make(chan struct{})}
	cfg := DefaultConfig()
	cfg.Options = claimOpts
	sys, err := Recover(cfg, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	seedEvents(t, sys)
	q1, err := sys.Submit(context.Background(), fmt.Sprintf(oneJobScript, "out/c1"))
	if err != nil {
		t.Fatal(err)
	}
	<-fs.arrived
	var part bytes.Buffer
	w := tuple.NewWriter(&part)
	if err := w.Write(Tuple{"dave", int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("events/part-00001", part.Bytes()); err != nil {
		t.Fatal(err)
	}
	res2, err := sys.Execute(fmt.Sprintf(oneJobScript, "out/c2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Stored) == 0 {
		t.Fatal("query 2 registered nothing; test premise broken")
	}
	close(fs.release)
	res1, err := q1.Wait()
	if err != nil {
		t.Fatalf("query 1 lost its output to query 2's maintenance: %v", err)
	}
	for _, c := range []struct {
		res  *Result
		path string
		rows int
	}{{res1, "out/c1", 3}, {res2, "out/c2", 4}} {
		out, err := c.res.Output(c.path)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != c.rows {
			t.Errorf("%s: %d rows, want %d", c.path, len(out), c.rows)
		}
	}

	sys.Sweep()
	referenced := map[string]bool{}
	for _, e := range RepositoryEntries(sys.Repository()) {
		referenced[strings.Trim(e.OutputPath, "/")] = true
	}
	for _, ns := range []string{"restore", "tmp"} {
		for _, ds := range fs.Datasets(core.NamespacePath("", ns)) {
			if !referenced[ds] {
				t.Errorf("%s outlived the janitor, no entry's output", ds)
			}
		}
	}
}

func sortDurations(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// TestBudgetConvergence is the acceptance check for byte-budgeted
// eviction: a repository filled past Config.MaxRepositoryBytes must
// converge under the budget via each policy, the reuse-window one with
// and without a window.
func TestBudgetConvergence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy EvictionPolicy
	}{
		{"reuse-window", ReuseWindowPolicy{Window: time.Nanosecond}},
		{"lru", ReuseWindowPolicy{}}, // no window: nothing expires
		{"cost-benefit", CostBenefitPolicy{}},
	} {
		policy := tc.policy
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Options = Options{Heuristic: NoHeuristic} // store a lot
			cfg.MaxRepositoryBytes = 1                    // any stored output overflows
			cfg.Eviction = policy
			sys := New(cfg)
			defer sys.Close()
			seedEvents(t, sys)
			for i := 0; i < 3; i++ {
				if _, err := sys.Execute(fmt.Sprintf(oneJobScript, fmt.Sprintf("budget/c%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			st := sys.StorageStats()
			if st.UsageBytes > cfg.MaxRepositoryBytes {
				t.Errorf("usage %d over budget %d (%d entries)", st.UsageBytes, cfg.MaxRepositoryBytes, st.Entries)
			}
			if st.Evictions == 0 {
				t.Errorf("no evictions recorded despite overflow")
			}
		})
	}
}

// TestBudgetEvictionSparesUserOutputs is the regression check for the
// one known violation of "reuse never changes answers": with whole jobs
// kept, a final job's output is registered twice under one fingerprint
// (as the final operator's zero-cost sub-job, then as the whole job),
// and the folded entry pointed at the user's STORE path without the
// WholeJob mark — so budget eviction deleted the user's dataset. Under
// a budget small enough to evict everything, every user output must
// stay readable and equal to a reuse-off run.
func TestBudgetEvictionSparesUserOutputs(t *testing.T) {
	scripts := append([]string{oneJobScript}, stressVariants...)
	oracle := newTestSystem(Options{})
	seedEvents(t, oracle)

	cfg := DefaultConfig()
	cfg.Options = Options{Reuse: true, KeepWholeJobs: true, Heuristic: Aggressive}
	cfg.MaxRepositoryBytes = 1 // any stored output overflows
	sys := New(cfg)
	defer sys.Close()
	seedEvents(t, sys)

	for i, script := range scripts {
		out := fmt.Sprintf("user/s%d", i)
		if _, err := sys.Execute(fmt.Sprintf(script, out)); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Execute(fmt.Sprintf(script, out)); err != nil {
			t.Fatal(err)
		}
	}
	sys.Sweep()
	if sys.StorageStats().Evictions == 0 {
		t.Fatal("budget evicted nothing; the test exercises no eviction")
	}
	for i := range scripts {
		out := fmt.Sprintf("user/s%d", i)
		want, err := oracle.ReadDataset(out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sys.ReadDataset(out)
		if err != nil {
			t.Errorf("user output lost to eviction: %v", err)
			continue
		}
		got, want = sorted(got), sorted(want)
		if len(got) != len(want) {
			t.Errorf("%s = %v, want %v", out, got, want)
			continue
		}
		for k := range want {
			if !tuple.Equal(got[k], want[k]) {
				t.Errorf("%s row %d = %v, want %v", out, k, got[k], want[k])
			}
		}
	}
}

// TestJanitorReclaimsCancelledQuery is the acceptance check for orphan
// reclamation: a cancelled query's per-query namespaces must be
// reclaimed within one sweep, while a completed query's
// entry-referenced data survives.
func TestJanitorReclaimsCancelledQuery(t *testing.T) {
	sys := newTestSystem(Options{}) // store nothing: all temps are orphans
	seedEvents(t, sys)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, err := sys.Submit(ctx, fmt.Sprintf(twoJobScript, "jan/out"),
		withJobObserver(func(jobID string, st JobState) {
			if st == JobDone {
				cancel() // first job done: abort the second
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	ns := core.NamespacePath("", "tmp", q.ID())
	if sys.FS().Size(ns) == 0 {
		t.Fatalf("cancelled query left nothing under %s; test premise broken", ns)
	}

	rep := sys.Sweep()
	if rep.OrphanDatasets == 0 {
		t.Errorf("sweep reclaimed no orphan datasets: %+v", rep)
	}
	if sys.FS().Exists(ns) {
		t.Errorf("cancelled query's namespace %s survived the sweep", ns)
	}
}

// TestJanitorGoroutine proves the background janitor sweeps on its own:
// with a short interval configured, a cancelled query's namespace
// disappears without any explicit Sweep call, and Close stops the
// goroutine.
func TestJanitorGoroutine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JanitorInterval = 5 * time.Millisecond
	sys := New(cfg)
	defer sys.Close()
	seedEvents(t, sys)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	q, err := sys.Submit(ctx, fmt.Sprintf(twoJobScript, "jang/out"),
		withJobObserver(func(jobID string, st JobState) {
			if st == JobDone {
				cancel()
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v", err)
	}

	ns := core.NamespacePath("", "tmp", q.ID())
	deadline := time.Now().Add(5 * time.Second)
	for sys.FS().Exists(ns) {
		if time.Now().After(deadline) {
			t.Fatalf("janitor did not reclaim %s within 5s", ns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestSweepSparesTopLevelUserDatasets: with no NamespaceRoot set, the
// managed namespaces still live under a root of their own, so user
// datasets named "tmp/…" and "restore/…" are never the janitor's.
func TestSweepSparesTopLevelUserDatasets(t *testing.T) {
	sys := New(DefaultConfig())
	defer sys.Close()
	for i, p := range []string{"tmp/results", "restore/daily"} {
		if err := sys.WriteDataset(p, []Tuple{{"keep", int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if rep := sys.Sweep(); rep.OrphanDatasets != 0 {
		t.Errorf("sweep reclaimed %d orphan datasets, want 0: %+v", rep.OrphanDatasets, rep)
	}
	for _, p := range []string{"tmp/results", "restore/daily"} {
		if rows, err := sys.ReadDataset(p); err != nil || len(rows) != 1 {
			t.Errorf("user dataset %s lost after sweep: rows=%v err=%v", p, rows, err)
		}
	}
}

// TestJanitorSparesReferencedData: the janitor must not reclaim sub-job
// outputs and temps that repository entries reference, or reuse would
// silently break.
func TestJanitorSparesReferencedData(t *testing.T) {
	sys := newTestSystem(claimOpts)
	seedEvents(t, sys)
	r1, err := sys.Execute(fmt.Sprintf(oneJobScript, "spare/out"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Stored) == 0 {
		t.Fatal("first run stored nothing; premise broken")
	}
	sys.Sweep()
	r2, err := sys.Execute(fmt.Sprintf(oneJobScript, "spare/out2"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Rewrites) == 0 {
		t.Errorf("post-sweep run reused nothing: the janitor reclaimed referenced data")
	}
}

// TestQueriesRegistryAndCancel covers the multi-tenant serving story:
// in-flight handles are listable, cancellable by ID or tag, and leave
// the registry once finished.
func TestQueriesRegistryAndCancel(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)

	gates := map[string]chan struct{}{"a": make(chan struct{}), "b": make(chan struct{})}
	var once sync.Map
	submit := func(tag, out string) *Query {
		q, err := sys.Submit(context.Background(), fmt.Sprintf(twoJobScript, out),
			WithTag(tag),
			withJobObserver(func(jobID string, st JobState) {
				if st == JobRunning {
					if _, dup := once.LoadOrStore(tag, true); !dup {
						<-gates[tag] // hold the query's first job
					}
				}
			}),
		)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qa := submit("a", "reg/a")
	qb := submit("b", "reg/b")

	list := sys.Queries()
	if len(list) != 2 || list[0].ID() != qa.ID() || list[1].ID() != qb.ID() {
		ids := make([]string, len(list))
		for i, q := range list {
			ids[i] = q.ID()
		}
		t.Fatalf("Queries() = %v, want [%s %s]", ids, qa.ID(), qb.ID())
	}

	// Cancel by tag while gated.
	if n := sys.Cancel("b"); n != 1 {
		t.Errorf("Cancel(tag b) = %d, want 1", n)
	}
	close(gates["b"])
	if _, err := qb.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled-by-tag query err = %v", err)
	}

	// Cancel by ID.
	if n := sys.Cancel(qa.ID()); n != 1 {
		t.Errorf("Cancel(%s) = %d, want 1", qa.ID(), n)
	}
	close(gates["a"])
	if _, err := qa.Wait(); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled-by-ID query err = %v", err)
	}

	// Both finished: the registry drains.
	deadline := time.Now().Add(5 * time.Second)
	for len(sys.Queries()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d queries", len(sys.Queries()))
		}
		time.Sleep(time.Millisecond)
	}
	if n := sys.Cancel("a"); n != 0 {
		t.Errorf("Cancel on a drained registry = %d, want 0", n)
	}
}

// TestCloseLifecycle: Close rejects new submissions, lets in-flight
// queries finish, and is idempotent.
func TestCloseLifecycle(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JanitorInterval = time.Minute // goroutine started, then stopped by Close
	sys := New(cfg)
	seedEvents(t, sys)

	gate := make(chan struct{})
	var once sync.Once
	q, err := sys.Submit(context.Background(), fmt.Sprintf(twoJobScript, "close/out"),
		withJobObserver(func(jobID string, st JobState) {
			if st == JobRunning {
				once.Do(func() { <-gate })
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}

	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := sys.Submit(context.Background(), totalsScript); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close err = %v, want ErrClosed", err)
	}
	if _, err := sys.Execute(totalsScript); !errors.Is(err, ErrClosed) {
		t.Errorf("Execute after Close err = %v, want ErrClosed", err)
	}

	// The in-flight query still runs to completion.
	close(gate)
	res, err := q.Wait()
	if err != nil {
		t.Fatalf("in-flight query after Close: %v", err)
	}
	if res.JobsRun != 2 {
		t.Errorf("JobsRun = %d, want 2", res.JobsRun)
	}
}

// TestStatusReportsProgress covers the per-job progress satellite: a
// finished job reports all tasks done and its Equation 1 SimTime; the
// query-level SimTimeSoFar accumulates across jobs.
func TestStatusReportsProgress(t *testing.T) {
	sys := newTestSystem(Options{})
	seedEvents(t, sys)

	// Pause the workflow after its first job completes so the main
	// goroutine can snapshot a genuinely mid-flight Status.
	firstDone := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	q, err := sys.Submit(context.Background(), fmt.Sprintf(twoJobScript, "prog/out"),
		withJobObserver(func(jobID string, st JobState) {
			if st == JobDone {
				once.Do(func() {
					close(firstDone)
					<-release
				})
			}
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	<-firstDone
	midFlight := q.Status()
	close(release)
	res, err := q.Wait()
	if err != nil {
		t.Fatal(err)
	}

	st := q.Status()
	if len(st.Progress) != 2 {
		t.Fatalf("Progress has %d jobs, want 2", len(st.Progress))
	}
	var total time.Duration
	for id, p := range st.Progress {
		if p.State != JobDone {
			t.Errorf("job %s state %v, want done", id, p.State)
		}
		if p.TasksTotal == 0 || p.TasksDone != p.TasksTotal {
			t.Errorf("job %s tasks %d/%d, want all done", id, p.TasksDone, p.TasksTotal)
		}
		if p.SimTime <= 0 {
			t.Errorf("job %s SimTime = %v, want > 0", id, p.SimTime)
		}
		total += p.SimTime
	}
	if st.SimTimeSoFar != total {
		t.Errorf("SimTimeSoFar = %v, want %v", st.SimTimeSoFar, total)
	}
	// Per-job final SimTimes are the Equation 1 inputs; the workflow
	// time is their critical path, here a two-job chain.
	if total != res.SimTime {
		t.Errorf("sum of job SimTimes %v != workflow SimTime %v for a serial chain", total, res.SimTime)
	}
	// The mid-flight snapshot (taken when the first job finished) saw
	// that job's progress without waiting for the workflow.
	doneJobs := 0
	for _, p := range midFlight.Progress {
		if p.TasksTotal > 0 && p.TasksDone == p.TasksTotal {
			doneJobs++
		}
	}
	if doneJobs == 0 {
		t.Errorf("mid-flight status showed no completed job progress: %+v", midFlight.Progress)
	}
}
