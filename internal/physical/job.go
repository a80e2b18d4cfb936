package physical

import (
	"fmt"
	"strings"
)

// Job is one MapReduce job: a physical plan whose map side runs from the
// Load roots up to LocalRearrange (or straight to Store for map-only
// jobs) and whose reduce side runs from Package to Store.
type Job struct {
	ID   string
	Plan *Plan

	// OutputPath is the primary Store destination (the one downstream
	// jobs read). Side stores injected by ReStore write elsewhere.
	OutputPath string

	// NumReducers is the reduce parallelism (0 for map-only jobs).
	NumReducers int

	// DependsOn lists the IDs of jobs whose outputs this job loads.
	DependsOn []string
}

// Clone deep-copies the job: plan structure and dependency list.
// Expressions inside the plan are shared, as in Plan.Clone.
func (j *Job) Clone() *Job {
	return &Job{
		ID:          j.ID,
		Plan:        j.Plan.Clone(),
		OutputPath:  j.OutputPath,
		NumReducers: j.NumReducers,
		DependsOn:   append([]string(nil), j.DependsOn...),
	}
}

// RemoveDependency strips id from the job's DependsOn list.
func (j *Job) RemoveDependency(id string) {
	deps := j.DependsOn[:0]
	for _, d := range j.DependsOn {
		if d != id {
			deps = append(deps, d)
		}
	}
	j.DependsOn = deps
}

// RewriteLoadPath redirects this job's Loads of oldPath to newPath.
func (j *Job) RewriteLoadPath(oldPath, newPath string) {
	for _, op := range j.Plan.Ops() {
		if op.Kind == KLoad && op.Path == oldPath {
			op.Path = newPath
		}
	}
}

// MainStore returns the Store op writing OutputPath, or nil.
func (j *Job) MainStore() *Op {
	for _, op := range j.Plan.Ops() {
		if op.Kind == KStore && op.Path == j.OutputPath {
			return op
		}
	}
	return nil
}

// String renders the job for debugging.
func (j *Job) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %s (out=%s, reducers=%d, deps=%v)\n", j.ID, j.OutputPath, j.NumReducers, j.DependsOn)
	b.WriteString(j.Plan.String())
	return b.String()
}

// Workflow is a DAG of MapReduce jobs compiled from one query, executed
// in dependency order.
type Workflow struct {
	Jobs []*Job

	// FinalOutputs maps each user STORE path to itself: the set of the
	// query's final outputs. Whole-job reuse never redirects one (a job
	// with a user STORE may reuse only sub-jobs).
	FinalOutputs map[string]string
}

// Clone deep-copies the workflow. The ReStore driver clones every
// workflow it executes so that reuse rewrites — which remove jobs and
// redirect Load paths in place — never mutate the caller's workflow;
// this makes it safe to hand one compiled workflow to several
// concurrent Execute calls.
func (w *Workflow) Clone() *Workflow {
	c := &Workflow{
		Jobs:         make([]*Job, len(w.Jobs)),
		FinalOutputs: make(map[string]string, len(w.FinalOutputs)),
	}
	for i, j := range w.Jobs {
		c.Jobs[i] = j.Clone()
	}
	for p, v := range w.FinalOutputs {
		c.FinalOutputs[p] = v
	}
	return c
}

// TopoJobs returns jobs in dependency order.
func (w *Workflow) TopoJobs() ([]*Job, error) {
	byID := map[string]*Job{}
	for _, j := range w.Jobs {
		byID[j.ID] = j
	}
	state := map[string]int{}
	var out []*Job
	var visit func(j *Job) error
	visit = func(j *Job) error {
		switch state[j.ID] {
		case 1:
			return fmt.Errorf("physical: workflow cycle through job %s", j.ID)
		case 2:
			return nil
		}
		state[j.ID] = 1
		for _, dep := range j.DependsOn {
			d := byID[dep]
			if d == nil {
				return fmt.Errorf("physical: job %s depends on missing job %s", j.ID, dep)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[j.ID] = 2
		out = append(out, j)
		return nil
	}
	for _, j := range w.Jobs {
		if err := visit(j); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DropJob removes the job with the given ID from the Jobs slice
// without touching any other job. Whole-job reuse composes it with
// Job.RemoveDependency/RewriteLoadPath on the dropped job's dependants
// only — there is deliberately no workflow-wide sweep helper, because
// sweeping would read sibling jobs' plans while their goroutines
// mutate them.
func (w *Workflow) DropJob(id string) {
	out := w.Jobs[:0]
	for _, j := range w.Jobs {
		if j.ID != id {
			out = append(out, j)
		}
	}
	w.Jobs = out
}

// String renders the workflow for debugging.
func (w *Workflow) String() string {
	var b strings.Builder
	for _, j := range w.Jobs {
		b.WriteString(j.String())
		b.WriteString("\n")
	}
	return b.String()
}
