package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/physical"
)

// fakeJobs builds a workflow skeleton for scheduler tests: deps maps
// job ID to its dependency IDs.
func fakeJobs(deps map[string][]string) []*physical.Job {
	ids := make([]string, 0, len(deps))
	for id := range deps {
		ids = append(ids, id)
	}
	// Deterministic order.
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ids[j] < ids[i] {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
	}
	jobs := make([]*physical.Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, &physical.Job{ID: id, DependsOn: append([]string(nil), deps[id]...)})
	}
	return jobs
}

// runJobs indexes jobs and runs them, the two steps an execution takes
// (newExecution, then run).
func runJobs(ctx context.Context, jobs []*physical.Job, workers int, process func(*physical.Job) error) error {
	g, err := newJobDAG(jobs)
	if err != nil {
		return err
	}
	return runDAG(ctx, g, workers, process)
}

func TestRunDAGRespectsDependencies(t *testing.T) {
	deps := map[string][]string{
		"a": nil, "b": nil,
		"c": {"a", "b"},
		"d": {"c"},
		"e": {"c"},
		"f": {"d", "e"},
	}
	var mu sync.Mutex
	finished := map[string]bool{}
	err := runJobs(context.Background(), fakeJobs(deps), 4, func(j *physical.Job) error {
		mu.Lock()
		for _, dep := range deps[j.ID] {
			if !finished[dep] {
				mu.Unlock()
				return fmt.Errorf("job %s started before dependency %s finished", j.ID, dep)
			}
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		finished[j.ID] = true
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(finished) != len(deps) {
		t.Errorf("completed %d jobs, want %d", len(finished), len(deps))
	}
}

func TestRunDAGBoundsWorkers(t *testing.T) {
	var cur, peak atomic.Int64
	jobs := fakeJobs(map[string][]string{
		"a": nil, "b": nil, "c": nil, "d": nil, "e": nil, "f": nil, "g": nil, "h": nil,
	})
	err := runJobs(context.Background(), jobs, 3, func(j *physical.Job) error {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Errorf("observed %d concurrent jobs, worker bound is 3", p)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("independent jobs never overlapped (peak=%d); scheduler is serial", p)
	}
}

func TestRunDAGErrorCancelsPending(t *testing.T) {
	jobs := fakeJobs(map[string][]string{
		"a": nil,
		"b": {"a"},
		"c": {"b"},
	})
	var ran atomic.Int64
	boom := errors.New("boom")
	err := runJobs(context.Background(), jobs, 2, func(j *physical.Job) error {
		ran.Add(1)
		if j.ID == "a" {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := ran.Load(); n != 1 {
		t.Errorf("%d jobs ran after the failure, want 1 (b and c cancelled)", n)
	}
}

func TestRunDAGRejectsCycle(t *testing.T) {
	jobs := fakeJobs(map[string][]string{
		"a": {"b"},
		"b": {"a"},
	})
	done := make(chan error, 1)
	go func() {
		done <- runJobs(context.Background(), jobs, 2, func(j *physical.Job) error { return nil })
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Errorf("cyclic workflow did not error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runDAG deadlocked on a cycle")
	}
}

// TestRunDAGRejectsOutOfOrderJobs holds runDAG to the order TopoJobs
// returns: a dependant listed before its producer is an error, not a
// second topological sort.
func TestRunDAGRejectsOutOfOrderJobs(t *testing.T) {
	jobs := []*physical.Job{
		{ID: "b", DependsOn: []string{"a"}},
		{ID: "a"},
	}
	ran := false
	err := runJobs(context.Background(), jobs, 2, func(j *physical.Job) error { ran = true; return nil })
	if err == nil {
		t.Errorf("a dependant listed before its producer did not error")
	}
	if ran {
		t.Errorf("jobs ran from a rejected order")
	}
}

// TestRunDAGCancelledByARunningJob cancels from inside a running job
// that then succeeds: neither of its dependants may start, and the
// workers, free to take both at once, must still return.
func TestRunDAGCancelledByARunningJob(t *testing.T) {
	jobs := fakeJobs(map[string][]string{
		"a": nil,
		"b": {"a"},
		"c": {"a"},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var ran []string
	err := runJobs(ctx, jobs, 3, func(j *physical.Job) error {
		mu.Lock()
		ran = append(ran, j.ID)
		mu.Unlock()
		if j.ID == "a" {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ran) != 1 || ran[0] != "a" {
		t.Errorf("ran = %v, want only a (b and c cancelled before start)", ran)
	}
}

func TestRunDAGMissingDepTreatedSatisfied(t *testing.T) {
	// Dependencies outside the job list (producers dropped by whole-job
	// reuse) must not block scheduling.
	jobs := fakeJobs(map[string][]string{"x": {"ghost"}})
	ran := false
	if err := runJobs(context.Background(), jobs, 1, func(j *physical.Job) error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Errorf("job with an external dependency never ran")
	}
}

// TestRunDAGParallelSpeedup is the acceptance check for the concurrent
// scheduler: a workflow of k independent jobs must complete in roughly
// 1/min(k, workers) of its serial wall time.
func TestRunDAGParallelSpeedup(t *testing.T) {
	const k = 8
	const jobTime = 30 * time.Millisecond
	deps := map[string][]string{}
	for i := 0; i < k; i++ {
		deps[fmt.Sprintf("j%d", i)] = nil
	}
	wall := func(workers int) time.Duration {
		start := time.Now()
		if err := runJobs(context.Background(), fakeJobs(deps), workers, func(j *physical.Job) error {
			time.Sleep(jobTime)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := wall(1)
	parallel := wall(k)
	if serial < k*jobTime {
		t.Fatalf("serial run took %v, want >= %v", serial, k*jobTime)
	}
	// Ideal is serial/k; allow generous slack for scheduler noise while
	// still proving real overlap.
	if parallel > serial/3 {
		t.Errorf("k=%d independent jobs: parallel %v vs serial %v, want ~serial/%d", k, parallel, serial, k)
	}
}

// TestRunDAGCancelStopsUnstartedJobs proves cancellation is synchronous
// with the canceller: once cancel() returns (here, from inside job a's
// process call), no dependant job may start.
func TestRunDAGCancelStopsUnstartedJobs(t *testing.T) {
	jobs := fakeJobs(map[string][]string{
		"a": nil,
		"b": {"a"},
		"c": {"b"},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []string
	var mu sync.Mutex
	err := runJobs(ctx, jobs, 2, func(j *physical.Job) error {
		mu.Lock()
		ran = append(ran, j.ID)
		mu.Unlock()
		if j.ID == "a" {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ran) != 1 || ran[0] != "a" {
		t.Errorf("ran = %v, want only a (b and c cancelled before start)", ran)
	}
}

func TestRunDAGPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	err := runJobs(ctx, fakeJobs(map[string][]string{"a": nil, "b": nil}), 2, func(j *physical.Job) error {
		ran = true
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Errorf("jobs ran under a pre-cancelled context")
	}
}

// BenchmarkScheduler reports the wall time of a k-wide DAG at various
// worker counts; b.N iterations of an 8-job layer with 5ms jobs.
func BenchmarkScheduler(b *testing.B) {
	const k = 8
	deps := map[string][]string{}
	for i := 0; i < k; i++ {
		deps[fmt.Sprintf("j%d", i)] = nil
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runJobs(context.Background(), fakeJobs(deps), workers, func(j *physical.Job) error {
					time.Sleep(5 * time.Millisecond)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDriverSimTimeIndependentOfWorkers drives the whole pipeline: a
// query with two independent chains compiles to two independent jobs,
// and the concurrent driver must report exactly the same simulated
// cluster time (Equation 1) as a serial one — concurrency may only
// change real wall time.
func TestDriverSimTimeIndependentOfWorkers(t *testing.T) {
	run := func(workers int) *Result {
		h := newHarness(t, Options{})
		h.workers = workers
		h.seedPigMixSmall(t)
		return h.run(t, `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
G = group B by user;
S = foreach G generate group, SUM(B.est_revenue);
store S into 'wa_out';
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
D = distinct beta;
store D into 'wb_out';
`)
	}
	serial := run(1)
	parallel := run(8)
	if serial.JobsRun != parallel.JobsRun {
		t.Fatalf("JobsRun differ: %d vs %d", serial.JobsRun, parallel.JobsRun)
	}
	if serial.SimTime != parallel.SimTime {
		t.Errorf("SimTime must not depend on workers: serial %v, parallel %v", serial.SimTime, parallel.SimTime)
	}
}
