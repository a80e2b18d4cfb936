package core

import (
	"fmt"

	"repro/internal/physical"
)

// Heuristic selects which physical operators' outputs the sub-job
// enumerator materializes (Section 4 of the paper).
type Heuristic int

// The enumeration policies.
const (
	// HeuristicOff stores no sub-jobs (whole-job outputs only).
	HeuristicOff Heuristic = iota
	// Conservative stores outputs of operators known to reduce their
	// input size: Project (ForEach) and Filter.
	Conservative
	// Aggressive additionally stores outputs of expensive operators:
	// the reduce side of every shuffle (Join, Group, CoGroup and
	// Distinct, which Pig compiles to the same rearrange and package).
	Aggressive
	// NoHeuristic stores the output of every physical operator.
	NoHeuristic
)

// String returns the paper's name for the heuristic.
func (h Heuristic) String() string {
	switch h {
	case HeuristicOff:
		return "off"
	case Conservative:
		return "conservative"
	case Aggressive:
		return "aggressive"
	case NoHeuristic:
		return "no-heuristic"
	}
	return fmt.Sprintf("heuristic(%d)", int(h))
}

// ParseHeuristic resolves a heuristic by the name String gives it:
// "off", "conservative", "aggressive" or "no-heuristic".
func ParseHeuristic(s string) (Heuristic, error) {
	for h := HeuristicOff; h <= NoHeuristic; h++ {
		if s == h.String() {
			return h, nil
		}
	}
	return 0, fmt.Errorf("core: unknown heuristic %q (want off, conservative, aggressive or no-heuristic)", s)
}

// Candidate is one enumerated sub-job: the operator whose output gets
// materialized and the DFS path holding it. Existing marks candidates
// whose output the job already stores (the paper's "if P ... is a
// Store, the output of JP would already be stored"): they are
// registered at zero cost, without injecting anything.
type Candidate struct {
	OpID     int
	Path     string
	Existing bool
}

// Enumerator is ReStore's sub-job enumerator: it chooses operators
// according to the heuristic and injects Split+Store pairs into the
// job's plan so the operators' outputs are materialized during
// execution (Figure 8 of the paper).
type Enumerator struct {
	Heuristic Heuristic
	// PathFor names the materialization target for an operator.
	PathFor func(job *physical.Job, opID int) string
	// SkipExisting, when non-nil, suppresses injection for a sub-job
	// whose prefix plan already has a valid repository entry, avoiding
	// re-materializing stored results on reuse runs.
	SkipExisting func(prefix PlanSig) bool
}

// eligible reports whether the heuristic materializes op's output.
// Aggressive and NoHeuristic take every Package except a GROUP ALL
// one: a single global bag the size of the input is not a useful reuse
// unit (and the paper's Table 1 shows L8's heuristics storing only the
// projections).
func (en *Enumerator) eligible(plan *physical.Plan, op *physical.Op) bool {
	switch en.Heuristic {
	case HeuristicOff:
		return false
	case Conservative:
		return op.Kind == physical.KForEach || op.Kind == physical.KFilter
	case Aggressive:
		switch op.Kind {
		case physical.KForEach, physical.KFilter, physical.KJoinFlatten:
			return true
		case physical.KPackage:
			return !groupAllPackage(plan, op)
		}
		return false
	case NoHeuristic:
		switch op.Kind {
		case physical.KLoad, physical.KStore, physical.KLocalRearrange,
			physical.KShuffle, physical.KSplit:
			return false
		case physical.KPackage:
			return !groupAllPackage(plan, op)
		}
		return true
	}
	return false
}

// groupAllPackage reports whether the package receives a GROUP ALL
// rearrange.
func groupAllPackage(plan *physical.Plan, pkg *physical.Op) bool {
	for _, shID := range pkg.InputIDs {
		sh := plan.Op(shID)
		if sh == nil || sh.Kind != physical.KShuffle {
			continue
		}
		for _, lrID := range sh.InputIDs {
			if lr := plan.Op(lrID); lr != nil && lr.GroupAll {
				return true
			}
		}
	}
	return false
}

// Choose selects the sub-job materialization points of the job's
// current plan without mutating it. It returns the zero-cost Existing
// candidates (operators whose output the job already stores — the
// job's own output doubles as a stored sub-job, so whole-job outputs
// enter the repository through enumeration, as in the paper) and the
// operators whose outputs would need a Store injected. The split from
// Inject lets the driver claim each target's plan fingerprint before
// committing to materialize it: a concurrent query may already be
// materializing the same sub-job.
func (en *Enumerator) Choose(job *physical.Job) (existing []Candidate, targets []*physical.Op) {
	if en.Heuristic == HeuristicOff {
		return nil, nil
	}
	plan := job.Plan
	succ := plan.Successors()
	for _, op := range plan.Topo() {
		if !en.eligible(plan, op) {
			continue
		}
		if sp := storedPath(plan, succ, op.ID); sp != "" {
			existing = append(existing, Candidate{OpID: op.ID, Path: sp, Existing: true})
			continue
		}
		if en.SkipExisting != nil && en.SkipExisting(SigOf(plan.PrefixPlan(op.ID, "candidate"))) {
			continue
		}
		targets = append(targets, op)
	}
	return existing, targets
}

// Inject materializes the chosen targets: each gets a Split+Store pair
// spliced into the plan, and the returned candidates carry their
// materialization paths.
func (en *Enumerator) Inject(job *physical.Job, targets []*physical.Op) []Candidate {
	var out []Candidate
	for _, op := range targets {
		path := en.PathFor(job, op.ID)
		injectStore(job.Plan, op.ID, path)
		out = append(out, Candidate{OpID: op.ID, Path: path})
	}
	return out
}

// storedPath returns the Store destination when every consumer of op is
// a Store ("" otherwise).
func storedPath(plan *physical.Plan, succ map[int][]int, id int) string {
	ss := succ[id]
	if len(ss) == 0 {
		return ""
	}
	for _, sid := range ss {
		if plan.Op(sid).Kind != physical.KStore {
			return ""
		}
	}
	return plan.Op(ss[0]).Path
}

// injectStore tees op's output through a Split into a new Store at
// path, leaving existing consumers reading the Split (the paper's
// Figure 8 transformation).
func injectStore(plan *physical.Plan, opID int, path string) {
	succ := plan.Successors()
	split := plan.Add(&physical.Op{Kind: physical.KSplit, InputIDs: []int{opID}})
	for _, sid := range succ[opID] {
		op := plan.Op(sid)
		for i, in := range op.InputIDs {
			if in == opID {
				op.InputIDs[i] = split.ID
			}
		}
	}
	plan.Add(&physical.Op{Kind: physical.KStore, Path: path, InputIDs: []int{split.ID}})
}
