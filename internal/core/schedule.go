package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/physical"
)

// jobDAG is a workflow's jobs in the order Workflow.TopoJobs returns,
// with the one producer → dependants table read by both the scheduler
// and whole-job reuse (which rewires a reused job's dependants). Edges
// are read once, up front, since a running job may mutate DependsOn
// (whole-job reuse removes producers).
type jobDAG struct {
	jobs []*physical.Job
	pos  map[string]int // job ID → index in jobs
	// producers counts each job's in-list dependencies; dependants
	// lists, by index, the jobs that depend on each job.
	producers  []int
	dependants [][]int
}

// newJobDAG indexes jobs, which must be in the dependency order
// Workflow.TopoJobs returns: a producer listed at or after its
// dependant (a cycle, or an order TopoJobs did not produce) is an
// error. A dependency outside jobs, such as a producer whole-job reuse
// dropped, counts as satisfied.
func newJobDAG(jobs []*physical.Job) (*jobDAG, error) {
	g := &jobDAG{jobs: jobs, pos: make(map[string]int, len(jobs)),
		producers: make([]int, len(jobs)), dependants: make([][]int, len(jobs))}
	for i, j := range jobs {
		g.pos[j.ID] = i
	}
	for i, j := range jobs {
		for _, dep := range j.DependsOn {
			p, ok := g.pos[dep]
			if !ok {
				continue
			}
			if p >= i {
				return nil, fmt.Errorf("core: job %s is listed before its dependency %s (cycle or unordered workflow)", j.ID, dep)
			}
			g.producers[i]++
			g.dependants[p] = append(g.dependants[p], i)
		}
	}
	return g, nil
}

// runDAG executes every job of g through process, running independent
// jobs concurrently on a bounded worker pool while respecting the
// dependency edges: a job starts only after all of its in-list
// producers have completed. The paper's Equation 1 models workflow
// completion as the critical path over the job DAG, so running the DAG
// width-first leaves simulated time unchanged while cutting real wall
// time to roughly serial/min(width, workers).
//
// Cancelling ctx stops the workflow promptly: jobs that have not
// started never run, in-flight jobs are aborted at the engine's next
// task-slot acquisition, and runDAG returns ctx.Err(). The first
// process error cancels jobs not yet started (in-flight jobs finish)
// and is returned.
func runDAG(ctx context.Context, g *jobDAG, workers int, process func(*physical.Job) error) error {
	jobs := g.jobs
	if len(jobs) == 0 {
		return ctx.Err()
	}
	workers = max(1, min(workers, len(jobs)))
	indeg := append([]int(nil), g.producers...)

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
					for _, d := range g.dependants[i] {
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
