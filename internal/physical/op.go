// Package physical defines the physical operator algebra that MapReduce
// jobs execute and that ReStore matches against. A physical plan is a
// DAG of operators from Load roots to Store sinks, with the map/reduce
// boundary marked by LocalRearrange → Shuffle → Package, exactly
// mirroring Pig's physical layer.
//
// Operator equivalence — the foundation of ReStore's plan matching — is
// structural: two operators are equivalent when their Signatures match
// and their inputs are pairwise equivalent (Loads additionally require
// the same dataset path).
package physical

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
)

// Kind identifies a physical operator type.
type Kind int

// The physical operator kinds.
const (
	KLoad Kind = iota
	KStore
	KForEach
	KFilter
	KLocalRearrange
	KShuffle // GlobalRearrange: the map/reduce boundary
	KPackage
	KJoinFlatten
	KUnion
	KSplit
	KSort
	KLimit
)

// String returns the Pig-style operator name.
func (k Kind) String() string {
	switch k {
	case KLoad:
		return "Load"
	case KStore:
		return "Store"
	case KForEach:
		return "ForEach"
	case KFilter:
		return "Filter"
	case KLocalRearrange:
		return "LocalRearrange"
	case KShuffle:
		return "GlobalRearrange"
	case KPackage:
		return "Package"
	case KJoinFlatten:
		return "JoinFlatten"
	case KUnion:
		return "Union"
	case KSplit:
		return "Split"
	case KSort:
		return "Sort"
	case KLimit:
		return "Limit"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// PackageMode selects what the reduce-side Package emits per key group.
type PackageMode int

// Package modes.
const (
	PkgGroup    PackageMode = iota // (group, bag per input): GROUP/COGROUP/JOIN input
	PkgDistinct                    // the key tuple once per distinct key
	PkgFlat                        // every value tuple, in key order (ORDER BY)
)

func (m PackageMode) String() string {
	switch m {
	case PkgGroup:
		return "group"
	case PkgDistinct:
		return "distinct"
	case PkgFlat:
		return "flat"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Op is one physical operator. Only the fields relevant to its Kind are
// set. Ops live inside a Plan and reference their inputs by ID.
type Op struct {
	ID       int
	Kind     Kind
	InputIDs []int

	// KLoad / KStore
	Path string

	// KLoad: when non-nil, restrict the load to exactly these part
	// files of the dataset instead of all of them. An empty non-nil
	// slice loads zero rows. Delta plans use this to run a stored
	// sub-plan over only the appended slice of a grown input. Files is
	// an execution detail, not part of the operator's Signature: a
	// restricted load is the same computation over a subset of the
	// data, and delta plans are never registered in the repository.
	Files []string

	// KForEach: one output column per expression.
	Exprs []expr.Expr

	// KFilter: predicate.
	Cond expr.Expr

	// KLocalRearrange: grouping/join keys and which co-input branch this
	// rearrange feeds (0-based). GroupAll marks GROUP … ALL (empty key);
	// DropNull discards null keys (inner-join semantics).
	KeyExprs []expr.Expr
	Branch   int
	GroupAll bool
	DropNull bool

	// KPackage
	Mode      PackageMode
	NumInputs int

	// KSort
	Desc []bool

	// KLimit
	N int64
}

// Signature returns the canonical description of the operator excluding
// its input wiring. Two ops with equal signatures perform the same
// function on their inputs. Store signatures exclude the output path:
// storing the same data to two places is still the same computation.
// Load signatures include the dataset path, because equivalence of plan
// prefixes starts from reading the same data.
func (o *Op) Signature() string {
	switch o.Kind {
	case KLoad:
		return "load(" + o.Path + ")"
	case KStore:
		return "store"
	case KForEach:
		return "foreach(" + exprList(o.Exprs) + ")"
	case KFilter:
		return "filter(" + o.Cond.String() + ")"
	case KLocalRearrange:
		mods := ""
		if o.GroupAll {
			mods += ";all"
		}
		if o.DropNull {
			mods += ";dropnull"
		}
		return fmt.Sprintf("lr(branch=%d;keys=%s%s)", o.Branch, exprList(o.KeyExprs), mods)
	case KShuffle:
		return "shuffle"
	case KPackage:
		return fmt.Sprintf("package(mode=%s;inputs=%d)", o.Mode, o.NumInputs)
	case KJoinFlatten:
		return fmt.Sprintf("joinflatten(%d)", o.NumInputs)
	case KUnion:
		return fmt.Sprintf("union(%d)", len(o.InputIDs))
	case KSplit:
		return "split"
	case KSort:
		descs := make([]string, len(o.Desc))
		for i, d := range o.Desc {
			if d {
				descs[i] = "desc"
			} else {
				descs[i] = "asc"
			}
		}
		return fmt.Sprintf("sort(keys=%s;dirs=%s)", exprList(o.KeyExprs), strings.Join(descs, ","))
	case KLimit:
		return fmt.Sprintf("limit(%d)", o.N)
	}
	return fmt.Sprintf("op(%d)", int(o.Kind))
}

func exprList(es []expr.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, ";")
}

// Plan is a DAG of physical operators.
type Plan struct {
	ops    map[int]*Op
	nextID int
}

// NewPlan returns an empty plan.
func NewPlan() *Plan { return &Plan{ops: map[int]*Op{}} }

// Add inserts op into the plan, assigning it a fresh ID, and returns it.
func (p *Plan) Add(op *Op) *Op {
	op.ID = p.nextID
	p.nextID++
	p.ops[op.ID] = op
	return op
}

// Op returns the operator with the given ID, or nil.
func (p *Plan) Op(id int) *Op { return p.ops[id] }

// Len returns the number of operators.
func (p *Plan) Len() int { return len(p.ops) }

// Ops returns all operators sorted by ID (deterministic iteration).
func (p *Plan) Ops() []*Op {
	out := make([]*Op, 0, len(p.ops))
	for _, op := range p.ops {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Successors returns a map from op ID to the IDs of ops consuming it, in
// ID order.
func (p *Plan) Successors() map[int][]int {
	succ := map[int][]int{}
	for _, op := range p.Ops() {
		for _, in := range op.InputIDs {
			succ[in] = append(succ[in], op.ID)
		}
	}
	return succ
}

// Topo returns the operators in a topological order (inputs before
// consumers), deterministic across runs.
func (p *Plan) Topo() []*Op {
	state := map[int]int{} // 0 unvisited, 1 visiting, 2 done
	var out []*Op
	var visit func(id int)
	visit = func(id int) {
		if state[id] != 0 {
			return
		}
		state[id] = 1
		op := p.ops[id]
		for _, in := range op.InputIDs {
			visit(in)
		}
		state[id] = 2
		out = append(out, op)
	}
	for _, op := range p.Ops() {
		visit(op.ID)
	}
	return out
}

// Validate checks structural invariants: input references resolve, at
// least one Load and one Store, no cycles.
func (p *Plan) Validate() error {
	if len(p.ops) == 0 {
		return fmt.Errorf("physical: empty plan")
	}
	for _, op := range p.ops {
		for _, in := range op.InputIDs {
			if p.ops[in] == nil {
				return fmt.Errorf("physical: op %d (%s) references missing input %d", op.ID, op.Kind, in)
			}
		}
	}
	hasLoad, hasStore := false, false
	for _, op := range p.ops {
		switch op.Kind {
		case KLoad:
			hasLoad = true
		case KStore:
			hasStore = true
		}
	}
	if !hasLoad {
		return fmt.Errorf("physical: plan has no Load")
	}
	if !hasStore {
		return fmt.Errorf("physical: plan has no Store")
	}
	if len(p.Topo()) != len(p.ops) {
		return fmt.Errorf("physical: plan has a cycle")
	}
	// Topo() returning all ops in input-first order implies acyclicity
	// only with an explicit cycle check; detect via DFS back edges.
	return p.checkAcyclic()
}

func (p *Plan) checkAcyclic() error {
	color := map[int]int{}
	var visit func(id int) error
	visit = func(id int) error {
		switch color[id] {
		case 1:
			return fmt.Errorf("physical: cycle through op %d", id)
		case 2:
			return nil
		}
		color[id] = 1
		for _, in := range p.ops[id].InputIDs {
			if err := visit(in); err != nil {
				return err
			}
		}
		color[id] = 2
		return nil
	}
	for id := range p.ops {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// Clone deep-copies the plan structure. Expressions are shared (they are
// immutable values).
func (p *Plan) Clone() *Plan {
	np := NewPlan()
	np.nextID = p.nextID
	for id, op := range p.ops {
		c := *op
		c.InputIDs = append([]int(nil), op.InputIDs...)
		c.Exprs = append([]expr.Expr(nil), op.Exprs...)
		c.KeyExprs = append([]expr.Expr(nil), op.KeyExprs...)
		c.Desc = append([]bool(nil), op.Desc...)
		if op.Files != nil {
			c.Files = append([]string{}, op.Files...)
		}
		np.ops[id] = &c
	}
	return np
}

// String renders the plan for debugging: one line per op in topo order.
func (p *Plan) String() string {
	var b strings.Builder
	for _, op := range p.Topo() {
		fmt.Fprintf(&b, "%3d %-16s %-40s <- %v\n", op.ID, op.Kind, op.Signature(), op.InputIDs)
	}
	return b.String()
}

// Ancestors returns the set of op IDs upstream of (and including) the
// given op.
func (p *Plan) Ancestors(id int) map[int]bool {
	seen := map[int]bool{}
	var visit func(int)
	visit = func(i int) {
		if seen[i] {
			return
		}
		seen[i] = true
		for _, in := range p.ops[i].InputIDs {
			visit(in)
		}
	}
	visit(id)
	return seen
}

// PrefixPlan extracts the sub-plan computing op id — all its ancestors —
// and appends a Store writing to path. The result is the standalone
// "sub-job" plan ReStore registers in its repository. Split operators on
// the path are elided (a Split is a tee; the prefix only needs the
// pass-through).
func (p *Plan) PrefixPlan(id int, path string) *Plan {
	anc := p.Ancestors(id)
	np := NewPlan()
	idMap := map[int]int{}
	// Copy in topo order so inputs exist before consumers.
	for _, op := range p.Topo() {
		if !anc[op.ID] {
			continue
		}
		if op.Kind == KSplit {
			// Elide: map the split to its (single) input's new ID.
			idMap[op.ID] = idMap[op.InputIDs[0]]
			continue
		}
		c := *op
		c.InputIDs = nil
		for _, in := range op.InputIDs {
			c.InputIDs = append(c.InputIDs, idMap[in])
		}
		nc := np.Add(&c)
		idMap[op.ID] = nc.ID
	}
	np.Add(&Op{Kind: KStore, Path: path, InputIDs: []int{idMap[id]}})
	return np
}

// RemoveDead deletes operators from which no Store is reachable.
func (p *Plan) RemoveDead() {
	live := map[int]bool{}
	var visit func(int)
	visit = func(id int) {
		if live[id] {
			return
		}
		live[id] = true
		for _, in := range p.ops[id].InputIDs {
			visit(in)
		}
	}
	for _, op := range p.Ops() {
		if op.Kind == KStore {
			visit(op.ID)
		}
	}
	for id := range p.ops {
		if !live[id] {
			delete(p.ops, id)
		}
	}
}
