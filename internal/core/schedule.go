package core

import (
	"context"
	"fmt"
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
// jobs must be in the dependency order Workflow.TopoJobs returns: a
// producer listed at or after its dependant (a cycle, or an order
// TopoJobs did not produce) is rejected before any job runs. A
// dependency outside jobs, such as a producer whole-job reuse dropped,
// counts as satisfied. Edges are read up front, since process may
// mutate DependsOn (whole-job reuse removes producers).
//
// Cancelling ctx stops the workflow promptly: jobs that have not
// started never run, in-flight jobs are aborted at the engine's next
// task-slot acquisition, and runDAG returns ctx.Err(). The first
// process error cancels jobs not yet started (in-flight jobs finish)
// and is returned.
func runDAG(ctx context.Context, jobs []*physical.Job, workers int, process func(*physical.Job) error) error {
	if len(jobs) == 0 {
		return ctx.Err()
	}
	workers = max(1, min(workers, len(jobs)))

	pos := make(map[string]int, len(jobs))
	for i, j := range jobs {
		pos[j.ID] = i
	}
	indeg := make([]int, len(jobs))
	dependants := make([][]int, len(jobs))
	for i, j := range jobs {
		for _, dep := range j.DependsOn {
			p, ok := pos[dep]
			if !ok {
				continue
			}
			if p >= i {
				return fmt.Errorf("core: job %s is listed before its dependency %s (cycle or unordered workflow)", j.ID, dep)
			}
			indeg[i]++
			dependants[p] = append(dependants[p], i)
		}
	}

	// ready closes once: after the last job, or at the first error.
	ready := make(chan int, len(jobs))
	for i := range jobs {
		if indeg[i] == 0 {
			ready <- i
		}
	}
	var (
		mu       sync.Mutex
		firstErr error
		pending  = len(jobs)
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue // drain jobs queued before the failure
				}
				err := ctx.Err() // once cancel() returns, no job starts
				if err == nil {
					err = process(jobs[i])
				}
				if err != nil && ctx.Err() != nil {
					err = ctx.Err() // a job the cancellation aborted wraps it
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
						close(ready)
					}
				} else if pending--; pending == 0 {
					close(ready)
				} else if firstErr == nil {
					for _, d := range dependants[i] {
						if indeg[d]--; indeg[d] == 0 {
							ready <- d
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}
