// Observability tests of the per-query span traces: reuse provenance on
// warm PigMix runs, the whole-job-reused-means-never-executed shape,
// trace isolation between concurrent queries, and the differential
// guarantee that tracing never changes what the system computes.
package restore_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/pigmix"
	"repro/internal/tuple"
)

// spanKinds flattens a trace into kind → spans.
func spanKinds(tr *restore.TraceSnapshot) map[string][]*restore.TraceSpan {
	out := map[string][]*restore.TraceSpan{}
	var walk func(spans []*restore.TraceSpan)
	walk = func(spans []*restore.TraceSpan) {
		for _, sp := range spans {
			out[sp.Kind] = append(out[sp.Kind], sp)
			walk(sp.Children)
		}
	}
	if tr != nil {
		walk(tr.Spans)
	}
	return out
}

// TestWarmTraceProvenance repeats a PigMix query on a reuse-enabled
// system and requires the warm trace to carry the full provenance: a
// probe span that nominated at least one candidate, and a reuse span
// naming the winning entry.
func TestWarmTraceProvenance(t *testing.T) {
	sys := fastpathSystem(t, restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive})
	ctx := context.Background()
	q2, err := pigmix.Get("L2")
	if err != nil {
		t.Fatal(err)
	}

	runTraced := func() (*restore.Result, *restore.TraceSnapshot) {
		t.Helper()
		q, err := sys.Submit(ctx, q2.Script, restore.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		res, err := q.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return res, q.Trace()
	}

	_, cold := runTraced()
	if cold == nil {
		t.Fatal("cold run recorded no trace")
	}
	kinds := spanKinds(cold)
	if len(kinds["submit"]) != 1 || len(kinds["compile"]) != 1 || len(kinds["job.exec"]) == 0 {
		t.Fatalf("cold trace kinds = %v, want submit+compile+exec", keysOf(kinds))
	}

	warm, wtr := runTraced()
	if len(warm.Rewrites) == 0 {
		t.Fatalf("warm run reused nothing; premise broken: %+v", warm)
	}
	wk := spanKinds(wtr)
	nominated := 0
	for _, c := range wk["probe.candidate"] {
		if c.Ref == "" {
			t.Errorf("candidate event without an entry ref: %+v", c)
		}
		nominated++
	}
	if nominated == 0 {
		t.Fatal("warm probe nominated no candidates")
	}
	if len(wk["reuse"]) == 0 {
		t.Fatal("warm trace has no reuse span")
	}
	wonIDs := map[string]bool{}
	for _, ev := range warm.Rewrites {
		wonIDs[ev.EntryID] = true
	}
	for _, sp := range wk["reuse"] {
		if !wonIDs[sp.Ref] {
			t.Errorf("reuse span names entry %q, not among applied rewrites %v", sp.Ref, warm.Rewrites)
		}
	}
	// The root span owns the query's simulated time.
	if wtr.Spans[0].SimMs <= 0 {
		t.Errorf("root span sim = %v, want the query's simulated time", wtr.Spans[0].SimMs)
	}
}

// twoJobTraceScript chains two MapReduce jobs so the first can be
// whole-job reused on a warm run while the second still executes.
const twoJobTraceScript = `
A = load 'events' as (user, amount);
B = group A by user;
C = foreach B generate group, COUNT(A) as n;
D = group C by n;
E = foreach D generate group, COUNT(C);
store E into '%s';
`

// TestWholeJobReuseNoExecSpan: a job answered whole from the repository
// must appear in the trace as a job span with a reuse decision and NO
// job.exec child — the observable form of "never executed".
func TestWholeJobReuseNoExecSpan(t *testing.T) {
	cfg := restore.DefaultConfig()
	cfg.Options = restore.Options{Reuse: true, KeepWholeJobs: true}
	sys := restore.New(cfg)
	rows := []tuple.Tuple{{"alice", int64(10)}, {"bob", int64(5)}, {"alice", int64(7)}}
	if err := sys.WriteDataset("events", rows); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sys.ExecuteContext(ctx, fmt.Sprintf(twoJobTraceScript, "out/a")); err != nil {
		t.Fatal(err)
	}
	q, err := sys.Submit(ctx, fmt.Sprintf(twoJobTraceScript, "out/b"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := q.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsReused == 0 {
		t.Fatalf("warm run reused no whole job; premise broken: %+v", res)
	}
	kinds := spanKinds(q.Trace())
	reusedJobs := 0
	for _, job := range kinds["job"] {
		var hasExec, hasReuse bool
		for _, c := range job.Children {
			switch c.Kind {
			case "job.exec":
				hasExec = true
			case "reuse":
				hasReuse = true
			}
		}
		if hasReuse && !hasExec {
			reusedJobs++
		}
	}
	if reusedJobs != res.JobsReused {
		t.Fatalf("trace shows %d reused-without-exec jobs, result says %d", reusedJobs, res.JobsReused)
	}
}

// TestTracedUntracedDifferential is the allocation-consciousness
// contract: tracing observes, never participates. Every PigMix query
// run cold and warm on a traced and an untraced system must report
// identical simulated times and leave byte-identical DFS state.
func TestTracedUntracedDifferential(t *testing.T) {
	opts := restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive}
	untracedOpts := opts
	untracedOpts.DisableTrace = true
	traced := fastpathSystem(t, opts)
	untraced := fastpathSystem(t, untracedOpts)
	ctx := context.Background()

	for _, name := range pigmix.Names() {
		q, err := pigmix.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			rt, err := traced.ExecuteContext(ctx, q.Script, restore.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s run %d traced: %v", name, run, err)
			}
			ru, err := untraced.ExecuteContext(ctx, q.Script, restore.WithWorkers(1))
			if err != nil {
				t.Fatalf("%s run %d untraced: %v", name, run, err)
			}
			if rt.SimTime != ru.SimTime {
				t.Errorf("%s run %d: SimTime diverged: traced %v, untraced %v", name, run, rt.SimTime, ru.SimTime)
			}
			if rt.JobsReused != ru.JobsReused || len(rt.Rewrites) != len(ru.Rewrites) {
				t.Errorf("%s run %d: reuse diverged: traced %d/%d, untraced %d/%d",
					name, run, rt.JobsReused, len(rt.Rewrites), ru.JobsReused, len(ru.Rewrites))
			}
		}
	}
	diffFS(t, "traced-vs-untraced", snapshotFS(t, traced), snapshotFS(t, untraced))
}

// TestDisableTraceNilSnapshot: opting out records nothing.
func TestDisableTraceNilSnapshot(t *testing.T) {
	cfg := restore.DefaultConfig()
	cfg.Options = restore.Options{DisableTrace: true}
	sys := restore.New(cfg)
	if err := sys.WriteDataset("events", []tuple.Tuple{{"a", int64(1)}}); err != nil {
		t.Fatal(err)
	}
	q, err := sys.Submit(context.Background(), "A = load 'events' as (u, n);\nstore A into 'out/x';")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if tr := q.Trace(); tr != nil {
		t.Fatalf("disabled trace snapshot = %+v, want nil", tr)
	}
}

// TestConcurrentTraceIsolation runs many queries at once on one system
// and checks every trace is self-contained: its own query ID, exactly
// one root, and job refs belonging to its own execution. Run under
// -race this also exercises the span arena's locking against the
// engine's worker pool.
func TestConcurrentTraceIsolation(t *testing.T) {
	sys := fastpathSystem(t, restore.Options{Reuse: true, KeepWholeJobs: true, Heuristic: restore.Aggressive})
	ctx := context.Background()
	q2, err := pigmix.Get("L2")
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	traces := make([]*restore.TraceSnapshot, n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			q, err := sys.Submit(ctx, q2.Script)
			if err != nil {
				errs <- err
				return
			}
			if _, err := q.Wait(); err != nil {
				errs <- err
				return
			}
			ids[i] = q.ID()
			traces[i] = q.Trace()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, tr := range traces {
		if tr == nil {
			t.Fatalf("query %d recorded no trace", i)
		}
		if tr.QueryID != ids[i] {
			t.Errorf("trace %d carries query ID %s, want %s", i, tr.QueryID, ids[i])
		}
		if len(tr.Spans) != 1 || tr.Spans[0].Kind != "submit" || tr.Spans[0].Ref != ids[i] {
			t.Errorf("trace %d root = %+v, want its own submit span", i, tr.Spans[0])
		}
	}
}

func keysOf(m map[string][]*restore.TraceSpan) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRefreshSpanUnderJob: a traced delta refresh (append, then
// requery) is recorded under the job whose probe triggered it — its
// refresh span is a child of that job's job span and carries the
// classify event and the delta and merge children.
func TestRefreshSpanUnderJob(t *testing.T) {
	sys := netSystem(t, reuseOpts(), pigmix.NetTrafficDays)
	runNet(t, sys, "N1")
	if _, err := pigmix.AppendNetTrafficDay(sys.FS(), netRows, netSeed); err != nil {
		t.Fatal(err)
	}
	n1, err := pigmix.Get("N1")
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Submit(context.Background(), n1.Script, restore.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Wait(); err != nil {
		t.Fatal(err)
	}
	if ds := sys.DeltaStats(); ds.Refreshes != 1 {
		t.Fatalf("append-then-requery refreshed %d entries, want 1: %+v", ds.Refreshes, ds)
	}

	refreshes := 0
	var walk func(parent *restore.TraceSpan, spans []*restore.TraceSpan)
	walk = func(parent *restore.TraceSpan, spans []*restore.TraceSpan) {
		for _, sp := range spans {
			if sp.Kind == "refresh" {
				refreshes++
				if parent == nil || parent.Kind != "job" {
					t.Errorf("refresh span %q has parent %+v, want a job span", sp.Ref, parent)
				}
				kids := map[string]int{}
				for _, c := range sp.Children {
					kids[c.Kind]++
				}
				for _, k := range []string{"refresh.classify", "refresh.delta", "refresh.merge"} {
					if kids[k] != 1 {
						t.Errorf("refresh span %q has %d %s children, want 1 (children %v)", sp.Ref, kids[k], k, kids)
					}
				}
			}
			walk(sp, sp.Children)
		}
	}
	tr := q.Trace()
	if tr == nil {
		t.Fatal("query recorded no trace")
	}
	walk(nil, tr.Spans)
	if refreshes != 1 {
		t.Fatalf("trace has %d refresh spans, want 1", refreshes)
	}
}
