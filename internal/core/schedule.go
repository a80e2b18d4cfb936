package core

import (
	"context"
	"fmt"
	"maps"
	"sync"

	"repro/internal/physical"
)

// runDAG executes every job of a workflow through process, running
// independent jobs concurrently on a bounded worker pool while
// respecting DependsOn edges: a job starts only after all of its
// dependencies have completed. The paper's Equation 1 models workflow
// completion as the critical path over the job DAG, so running the DAG
// width-first leaves simulated time unchanged while cutting real wall
// time to roughly serial/min(width, workers).
//
// Cancelling ctx stops the workflow promptly: jobs that have not
// started never run, in-flight jobs are aborted at the engine's next
// task-slot acquisition, and runDAG returns ctx.Err().
//
// The first process error cancels jobs not yet started (in-flight jobs
// finish) and is returned. Dependencies on IDs outside jobs, such as
// producers whole-job reuse dropped, are treated as already satisfied.
func runDAG(ctx context.Context, jobs []*physical.Job, workers int, process func(*physical.Job) error) error {
	if len(jobs) == 0 {
		return ctx.Err()
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	indeg, dependants, err := dagEdges(jobs)
	if err != nil {
		return err
	}

	ready := make(chan *physical.Job, len(jobs))
	var (
		mu       sync.Mutex
		firstErr error
		pending  = len(jobs)
		closed   bool
	)
	finish := func() { // mu held
		if !closed {
			closed = true
			close(ready)
		}
	}
	fail := func(err error) { // takes mu
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		finish()
		mu.Unlock()
	}
	for _, j := range jobs {
		if indeg[j.ID] == 0 {
			ready <- j
		}
	}

	// The cancellation monitor wakes workers blocked on the ready
	// channel when ctx fires; stop releases it once the DAG drains.
	stop := make(chan struct{})
	defer close(stop)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				fail(ctx.Err())
			case <-stop:
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range ready {
				mu.Lock()
				bail := firstErr != nil
				mu.Unlock()
				// The direct ctx check makes cancellation synchronous
				// with the caller: once cancel() returns, no further job
				// starts, even if the monitor goroutine has not yet run.
				if bail || ctx.Err() != nil {
					continue // drain jobs queued before the failure
				}
				if err := process(job); err != nil {
					fail(err)
					continue
				}
				mu.Lock()
				pending--
				if pending == 0 {
					finish()
				} else if firstErr == nil {
					for _, dep := range dependants[job.ID] {
						indeg[dep.ID]--
						if indeg[dep.ID] == 0 {
							ready <- dep
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// The cancellation monitor may still be writing firstErr (it is
	// stopped only by the deferred close); read under the lock.
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// dagEdges snapshots the dependency edges among jobs up front — process
// may legitimately mutate DependsOn slices (whole-job reuse removes
// producers), and the scheduler must not race with that — and rejects
// a cycle. TopoJobs rejects cyclic workflows before scheduling, but a
// cycle reaching runDAG would leave workers blocked forever on an open
// empty channel.
func dagEdges(jobs []*physical.Job) (map[string]int, map[string][]*physical.Job, error) {
	inSet := make(map[string]bool, len(jobs))
	for _, j := range jobs {
		inSet[j.ID] = true
	}
	indeg := make(map[string]int, len(jobs))
	dependants := make(map[string][]*physical.Job, len(jobs))
	for _, j := range jobs {
		for _, dep := range j.DependsOn {
			if inSet[dep] {
				indeg[j.ID]++
				dependants[dep] = append(dependants[dep], j)
			}
		}
	}
	deg := maps.Clone(indeg)
	var q []*physical.Job
	for _, j := range jobs {
		if deg[j.ID] == 0 {
			q = append(q, j)
		}
	}
	for i := 0; i < len(q); i++ { // q doubles as the reached list
		for _, dep := range dependants[q[i].ID] {
			deg[dep.ID]--
			if deg[dep.ID] == 0 {
				q = append(q, dep)
			}
		}
	}
	if len(q) != len(jobs) {
		return nil, nil, fmt.Errorf("core: workflow dependency cycle: %d of %d jobs unreachable", len(jobs)-len(q), len(jobs))
	}
	return indeg, dependants, nil
}
