package physical

import (
	"strings"
	"testing"

	"repro/internal/expr"
)

// chainPlan builds Load -> Filter -> ForEach -> Store.
func chainPlan() *Plan {
	p := NewPlan()
	ld := p.Add(&Op{Kind: KLoad, Path: "data"})
	fl := p.Add(&Op{Kind: KFilter, Cond: expr.Compare{Op: expr.CmpGt, L: expr.NewCol(1), R: expr.Const{V: int64(0)}}, InputIDs: []int{ld.ID}})
	fe := p.Add(&Op{Kind: KForEach, Exprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{fl.ID}})
	p.Add(&Op{Kind: KStore, Path: "out", InputIDs: []int{fe.ID}})
	return p
}

// sinks returns the operators nothing consumes, sorted by ID.
func sinks(p *Plan) []*Op {
	succ := p.Successors()
	var out []*Op
	for _, op := range p.Ops() {
		if len(succ[op.ID]) == 0 {
			out = append(out, op)
		}
	}
	return out
}

func TestPlanRootsSinksTopo(t *testing.T) {
	p := chainPlan()
	var roots []*Op
	for _, op := range p.Ops() {
		if len(op.InputIDs) == 0 {
			roots = append(roots, op)
		}
	}
	if len(roots) != 1 || roots[0].Kind != KLoad {
		t.Fatalf("roots = %v", roots)
	}
	sinks := sinks(p)
	if len(sinks) != 1 || sinks[0].Kind != KStore {
		t.Fatalf("sinks = %v", sinks)
	}
	topo := p.Topo()
	pos := map[int]int{}
	for i, op := range topo {
		pos[op.ID] = i
	}
	for _, op := range p.Ops() {
		for _, in := range op.InputIDs {
			if pos[in] >= pos[op.ID] {
				t.Errorf("topo order violated: %d before %d", op.ID, in)
			}
		}
	}
}

func TestPlanValidate(t *testing.T) {
	p := chainPlan()
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	empty := NewPlan()
	if err := empty.Validate(); err == nil {
		t.Errorf("empty plan should fail validation")
	}
	noStore := NewPlan()
	noStore.Add(&Op{Kind: KLoad, Path: "x"})
	if err := noStore.Validate(); err == nil {
		t.Errorf("plan without store should fail")
	}
	dangling := NewPlan()
	dangling.Add(&Op{Kind: KLoad, Path: "x"})
	dangling.Add(&Op{Kind: KStore, Path: "o", InputIDs: []int{99}})
	if err := dangling.Validate(); err == nil {
		t.Errorf("dangling input should fail")
	}
}

func TestPlanValidateDetectsCycle(t *testing.T) {
	p := NewPlan()
	ld := p.Add(&Op{Kind: KLoad, Path: "x"})
	a := p.Add(&Op{Kind: KForEach, Exprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{ld.ID}})
	b := p.Add(&Op{Kind: KForEach, Exprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{a.ID}})
	p.Add(&Op{Kind: KStore, Path: "o", InputIDs: []int{b.ID}})
	a.InputIDs = []int{b.ID} // make the cycle
	if err := p.Validate(); err == nil {
		t.Errorf("cycle should fail validation")
	}
}

func TestSignatures(t *testing.T) {
	p := chainPlan()
	var sigs []string
	for _, op := range p.Topo() {
		sigs = append(sigs, op.Signature())
	}
	joined := strings.Join(sigs, "|")
	for _, want := range []string{"load(data)", "filter(gt($1,const:i0))", "foreach($0)", "store"} {
		if !strings.Contains(joined, want) {
			t.Errorf("signatures %q missing %q", joined, want)
		}
	}
	// Store signature excludes the path.
	st := &Op{Kind: KStore, Path: "anywhere"}
	if st.Signature() != "store" {
		t.Errorf("store signature = %q", st.Signature())
	}
	lr := &Op{Kind: KLocalRearrange, Branch: 1, KeyExprs: []expr.Expr{expr.NewCol(0)}, DropNull: true}
	if got := lr.Signature(); got != "lr(branch=1;keys=$0;dropnull)" {
		t.Errorf("lr signature = %q", got)
	}
	pkg := &Op{Kind: KPackage, Mode: PkgDistinct, NumInputs: 1}
	if got := pkg.Signature(); got != "package(mode=distinct;inputs=1)" {
		t.Errorf("package signature = %q", got)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	p := chainPlan()
	c := p.Clone()
	if c.Len() != p.Len() {
		t.Fatalf("clone len = %d", c.Len())
	}
	// Mutating the clone must not affect the original.
	for _, op := range c.Ops() {
		if op.Kind == KLoad {
			op.Path = "changed"
		}
	}
	for _, op := range p.Ops() {
		if op.Kind == KLoad && op.Path != "data" {
			t.Errorf("clone shares op storage")
		}
	}
}

func TestPrefixPlan(t *testing.T) {
	p := chainPlan()
	var filterID int
	for _, op := range p.Ops() {
		if op.Kind == KFilter {
			filterID = op.ID
		}
	}
	pre := p.PrefixPlan(filterID, "sub/out")
	if err := pre.Validate(); err != nil {
		t.Fatalf("prefix invalid: %v", err)
	}
	if pre.Len() != 3 { // load, filter, store
		t.Errorf("prefix len = %d, want 3:\n%s", pre.Len(), pre)
	}
	sinks := sinks(pre)
	if len(sinks) != 1 || sinks[0].Path != "sub/out" {
		t.Errorf("prefix sink = %v", sinks)
	}
}

func TestPrefixPlanElidesSplits(t *testing.T) {
	p := NewPlan()
	ld := p.Add(&Op{Kind: KLoad, Path: "d"})
	fe := p.Add(&Op{Kind: KForEach, Exprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{ld.ID}})
	sp := p.Add(&Op{Kind: KSplit, InputIDs: []int{fe.ID}})
	fl := p.Add(&Op{Kind: KFilter, Cond: expr.Const{V: int64(1)}, InputIDs: []int{sp.ID}})
	p.Add(&Op{Kind: KStore, Path: "side", InputIDs: []int{sp.ID}})
	p.Add(&Op{Kind: KStore, Path: "main", InputIDs: []int{fl.ID}})

	pre := p.PrefixPlan(fl.ID, "x")
	for _, op := range pre.Ops() {
		if op.Kind == KSplit {
			t.Errorf("split survived prefix extraction:\n%s", pre)
		}
		if op.Kind == KStore && op.Path == "side" {
			t.Errorf("side store survived prefix extraction")
		}
	}
	if err := pre.Validate(); err != nil {
		t.Fatalf("prefix invalid: %v", err)
	}
}

func TestRemoveDead(t *testing.T) {
	p := chainPlan()
	// Add an orphan chain not reaching any store.
	orphanLd := p.Add(&Op{Kind: KLoad, Path: "orphan"})
	p.Add(&Op{Kind: KForEach, Exprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{orphanLd.ID}})
	before := p.Len()
	p.RemoveDead()
	if p.Len() != before-2 {
		t.Errorf("RemoveDead left %d ops, want %d", p.Len(), before-2)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("plan invalid after RemoveDead: %v", err)
	}
}

func TestJobHelpers(t *testing.T) {
	p := NewPlan()
	ld1 := p.Add(&Op{Kind: KLoad, Path: "b"})
	ld2 := p.Add(&Op{Kind: KLoad, Path: "a"})
	lr1 := p.Add(&Op{Kind: KLocalRearrange, KeyExprs: []expr.Expr{expr.NewCol(0)}, InputIDs: []int{ld1.ID}})
	lr2 := p.Add(&Op{Kind: KLocalRearrange, KeyExprs: []expr.Expr{expr.NewCol(0)}, Branch: 1, InputIDs: []int{ld2.ID}})
	sh := p.Add(&Op{Kind: KShuffle, InputIDs: []int{lr1.ID, lr2.ID}})
	pk := p.Add(&Op{Kind: KPackage, Mode: PkgGroup, NumInputs: 2, InputIDs: []int{sh.ID}})
	p.Add(&Op{Kind: KStore, Path: "out", InputIDs: []int{pk.ID}})

	j := &Job{ID: "j1", Plan: p, OutputPath: "out", NumReducers: 3}
	if j.MainStore() == nil {
		t.Errorf("MainStore not found")
	}
}

// jobByID returns wf's job with the given ID, or nil.
func jobByID(wf *Workflow, id string) *Job {
	for _, j := range wf.Jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}

func TestWorkflowTopoAndRemove(t *testing.T) {
	mk := func(id string, deps ...string) *Job {
		p := NewPlan()
		ld := p.Add(&Op{Kind: KLoad, Path: "in-" + id})
		p.Add(&Op{Kind: KStore, Path: "out-" + id, InputIDs: []int{ld.ID}})
		return &Job{ID: id, Plan: p, OutputPath: "out-" + id, DependsOn: deps}
	}
	wf := &Workflow{Jobs: []*Job{mk("c", "a", "b"), mk("a"), mk("b", "a")}}
	jobs, err := wf.TopoJobs()
	if err != nil {
		t.Fatalf("TopoJobs: %v", err)
	}
	if jobs[0].ID != "a" || jobs[2].ID != "c" {
		t.Errorf("topo order = %v", []string{jobs[0].ID, jobs[1].ID, jobs[2].ID})
	}

	// Whole-job reuse composition: drop b and patch its dependant.
	wf.DropJob("b")
	if jobByID(wf, "b") != nil {
		t.Errorf("job b survived removal")
	}
	c := jobByID(wf, "c")
	c.RemoveDependency("b")
	for _, d := range c.DependsOn {
		if d == "b" {
			t.Errorf("dangling dependency on removed job")
		}
	}

	c.RewriteLoadPath("in-c", "elsewhere")
	for _, op := range c.Plan.Ops() {
		if op.Kind == KLoad && op.Path != "elsewhere" {
			t.Errorf("load path not rewritten: %s", op.Path)
		}
	}
}

func TestWorkflowCycleDetected(t *testing.T) {
	mk := func(id string, deps ...string) *Job {
		p := NewPlan()
		ld := p.Add(&Op{Kind: KLoad, Path: "x"})
		p.Add(&Op{Kind: KStore, Path: "o-" + id, InputIDs: []int{ld.ID}})
		return &Job{ID: id, Plan: p, OutputPath: "o-" + id, DependsOn: deps}
	}
	wf := &Workflow{Jobs: []*Job{mk("a", "b"), mk("b", "a")}}
	if _, err := wf.TopoJobs(); err == nil {
		t.Errorf("cycle should be detected")
	}
}

func TestWorkflowCloneIsIndependent(t *testing.T) {
	mk := func(id string, deps ...string) *Job {
		p := NewPlan()
		ld := p.Add(&Op{Kind: KLoad, Path: "in-" + id})
		p.Add(&Op{Kind: KStore, Path: "out-" + id, InputIDs: []int{ld.ID}})
		return &Job{ID: id, Plan: p, OutputPath: "out-" + id, NumReducers: 2, DependsOn: deps}
	}
	wf := &Workflow{
		Jobs:         []*Job{mk("a"), mk("b", "a")},
		FinalOutputs: map[string]string{"out-b": "out-b"},
	}
	c := wf.Clone()

	// Mutations that whole-job reuse applies to the clone must not leak
	// into the original.
	c.DropJob("a")
	cb := jobByID(c, "b")
	cb.RemoveDependency("a")
	cb.RewriteLoadPath("in-b", "stored/elsewhere")
	c.FinalOutputs["out-b"] = "redirected"

	if jobByID(wf, "a") == nil {
		t.Errorf("DropJob on the clone removed from the original")
	}
	if got := jobByID(wf, "b").DependsOn; len(got) != 1 || got[0] != "a" {
		t.Errorf("clone mutation changed original DependsOn: %v", got)
	}
	for _, op := range jobByID(wf, "b").Plan.Ops() {
		if op.Kind == KLoad && op.Path != "in-b" {
			t.Errorf("clone RewriteLoadPath leaked into original: %s", op.Path)
		}
	}
	if wf.FinalOutputs["out-b"] != "out-b" {
		t.Errorf("clone FinalOutputs shares the original map")
	}
	if b := jobByID(c, "b"); b.NumReducers != 2 || b.OutputPath != "out-b" {
		t.Errorf("clone lost job fields: %+v", b)
	}
}
