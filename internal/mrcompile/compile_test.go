package mrcompile

import (
	"slices"
	"testing"

	"repro/internal/logical"
	"repro/internal/physical"
	"repro/internal/piglatin"
)

func compile(t *testing.T, src string) *physical.Workflow {
	t.Helper()
	script, err := piglatin.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wf, err := Compile(lp, Options{TempPrefix: "tmp/test", DefaultReducers: 4})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return wf
}

func countKind(j *physical.Job, k physical.Kind) int {
	n := 0
	for _, op := range j.Plan.Ops() {
		if op.Kind == k {
			n++
		}
	}
	return n
}

// loadPaths returns the distinct paths j's Loads read, sorted.
func loadPaths(j *physical.Job) []string {
	var out []string
	for _, op := range j.Plan.Ops() {
		if op.Kind == physical.KLoad && !slices.Contains(out, op.Path) {
			out = append(out, op.Path)
		}
	}
	slices.Sort(out)
	return out
}

func TestCompileMapOnly(t *testing.T) {
	wf := compile(t, `
A = load 'data' as (a, b);
B = foreach A generate a;
C = filter B by a > 1;
store C into 'out';
`)
	if len(wf.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(wf.Jobs))
	}
	j := wf.Jobs[0]
	if countKind(j, physical.KShuffle) != 0 {
		t.Errorf("expected map-only job")
	}
	if j.NumReducers != 0 {
		t.Errorf("reducers = %d, want 0", j.NumReducers)
	}
	if j.OutputPath != "out" {
		t.Errorf("output = %q", j.OutputPath)
	}
}

func TestCompileQ1SingleJoinJob(t *testing.T) {
	wf := compile(t, `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'L2_out';
`)
	if len(wf.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1 (join fits one MR job)", len(wf.Jobs))
	}
	j := wf.Jobs[0]
	if countKind(j, physical.KShuffle) == 0 {
		t.Errorf("join job must shuffle")
	}
	if got := countKind(j, physical.KLoad); got != 2 {
		t.Errorf("loads = %d, want 2", got)
	}
	if got := countKind(j, physical.KLocalRearrange); got != 2 {
		t.Errorf("rearranges = %d, want 2", got)
	}
	if got := countKind(j, physical.KJoinFlatten); got != 1 {
		t.Errorf("joinflatten = %d, want 1", got)
	}
	if j.NumReducers != 4 {
		t.Errorf("reducers = %d, want default 4", j.NumReducers)
	}
	// LR signatures must carry branch and dropnull for matching.
	for _, op := range j.Plan.Ops() {
		if op.Kind == physical.KLocalRearrange && !op.DropNull {
			t.Errorf("join LR must drop null keys")
		}
	}
}

func TestCompileQ2TwoJobs(t *testing.T) {
	wf := compile(t, `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'L3_out';
`)
	if len(wf.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2 (join job + group job)", len(wf.Jobs))
	}
	jobs, err := wf.TopoJobs()
	if err != nil {
		t.Fatalf("TopoJobs: %v", err)
	}
	j1, j2 := jobs[0], jobs[1]
	if len(j2.DependsOn) != 1 || j2.DependsOn[0] != j1.ID {
		t.Errorf("j2 deps = %v, want [%s]", j2.DependsOn, j1.ID)
	}
	// Job 2 loads job 1's temp output.
	if got := loadPaths(j2); len(got) != 1 || got[0] != j1.OutputPath {
		t.Errorf("j2 inputs = %v, want [%s]", got, j1.OutputPath)
	}
	if j1.OutputPath == "L3_out" || j2.OutputPath != "L3_out" {
		t.Errorf("outputs: j1=%s j2=%s", j1.OutputPath, j2.OutputPath)
	}
}

func TestCompileGroupAllSingleReducer(t *testing.T) {
	wf := compile(t, `
A = load 'x' as (a, b);
B = group A all;
C = foreach B generate COUNT(A);
store C into 'o';
`)
	if len(wf.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(wf.Jobs))
	}
	if wf.Jobs[0].NumReducers != 1 {
		t.Errorf("GROUP ALL reducers = %d, want 1", wf.Jobs[0].NumReducers)
	}
}

func TestCompileParallelClause(t *testing.T) {
	wf := compile(t, `
A = load 'x' as (a, b);
B = group A by a parallel 9;
C = foreach B generate group, COUNT(A);
store C into 'o';
`)
	if wf.Jobs[0].NumReducers != 9 {
		t.Errorf("reducers = %d, want 9", wf.Jobs[0].NumReducers)
	}
}

func TestCompileDistinctUnionL11Shape(t *testing.T) {
	// L11-shaped query: distinct of one branch unioned with a projection
	// of another, then distinct overall: 2 jobs, the second reading the
	// first's output plus the raw data.
	wf := compile(t, `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user;
C = distinct B;
alpha = load 'widerow' as (user, c1, c2, c3);
beta = foreach alpha generate user;
D = union C, beta;
E = distinct D;
store E into 'L11_out';
`)
	if len(wf.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(wf.Jobs))
	}
	jobs, _ := wf.TopoJobs()
	j1, j2 := jobs[0], jobs[1]
	if got := countKind(j1, physical.KPackage); got != 1 {
		t.Errorf("j1 packages = %d", got)
	}
	if j1.Plan.Ops()[0].Kind != physical.KLoad {
		t.Errorf("unexpected j1 structure")
	}
	// Second job: loads temp + widerow, unions, distinct.
	ins := loadPaths(j2)
	if len(ins) != 2 {
		t.Fatalf("j2 inputs = %v", ins)
	}
	if got := countKind(j2, physical.KUnion); got != 1 {
		t.Errorf("j2 unions = %d, want 1", got)
	}
	for _, op := range j2.Plan.Ops() {
		if op.Kind == physical.KPackage && op.Mode != physical.PkgDistinct {
			t.Errorf("j2 package mode = %v", op.Mode)
		}
	}
}

func TestCompileSharedInputMaterializedOnce(t *testing.T) {
	// B feeds two different blocking consumers: it must be materialized
	// to a temp once and loaded by both.
	wf := compile(t, `
A = load 'x' as (a, b);
B = filter A by b > 0;
C = group B by a;
D = foreach C generate group, COUNT(B);
E = distinct B;
store D into 'o1';
store E into 'o2';
`)
	if len(wf.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3 (materialize B, group, distinct)", len(wf.Jobs))
	}
	jobs, _ := wf.TopoJobs()
	matJob := jobs[0]
	if countKind(matJob, physical.KShuffle) != 0 {
		t.Errorf("materialization job should be map-only")
	}
	dependents := 0
	for _, j := range wf.Jobs[1:] {
		for _, d := range j.DependsOn {
			if d == matJob.ID {
				dependents++
			}
		}
	}
	if dependents != 2 {
		t.Errorf("dependents of materialization = %d, want 2", dependents)
	}
}

func TestCompileCoGroup(t *testing.T) {
	wf := compile(t, `
A = load 'x' as (k, v);
B = load 'y' as (k, w);
C = cogroup A by k, B by k;
D = filter C by ISEMPTY(B);
E = foreach D generate group;
store E into 'anti';
`)
	if len(wf.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(wf.Jobs))
	}
	j := wf.Jobs[0]
	var pkg *physical.Op
	for _, op := range j.Plan.Ops() {
		if op.Kind == physical.KPackage {
			pkg = op
		}
	}
	if pkg == nil || pkg.NumInputs != 2 {
		t.Fatalf("package = %+v", pkg)
	}
	// CoGroup keeps null keys (no DropNull on its rearranges).
	for _, op := range j.Plan.Ops() {
		if op.Kind == physical.KLocalRearrange && op.DropNull {
			t.Errorf("cogroup LR must not drop nulls")
		}
	}
}

func TestCompileOrderSingleReducer(t *testing.T) {
	wf := compile(t, `
A = load 'x' as (a, b);
B = order A by b desc;
store B into 'o';
`)
	if len(wf.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(wf.Jobs))
	}
	if wf.Jobs[0].NumReducers != 1 {
		t.Errorf("order reducers = %d, want 1", wf.Jobs[0].NumReducers)
	}
	for _, op := range wf.Jobs[0].Plan.Ops() {
		if op.Kind == physical.KPackage {
			if op.Mode != physical.PkgFlat || len(op.Desc) != 1 || !op.Desc[0] {
				t.Errorf("order package = %+v", op)
			}
		}
	}
}

func TestCompileChainOfBlockingOps(t *testing.T) {
	// group after group: two jobs.
	wf := compile(t, `
A = load 'x' as (a, b, c);
B = group A by a;
C = foreach B generate group, SUM(A.b) as s;
D = group C by s;
E = foreach D generate group, COUNT(C);
store E into 'o';
`)
	if len(wf.Jobs) != 2 {
		t.Fatalf("jobs = %d, want 2", len(wf.Jobs))
	}
}

func TestCompileDeterministicIDs(t *testing.T) {
	src := `
A = load 'x' as (a, b);
B = group A by a;
C = foreach B generate group, COUNT(A);
store C into 'o';
`
	wf1 := compile(t, src)
	wf2 := compile(t, src)
	if wf1.Jobs[0].Plan.String() != wf2.Jobs[0].Plan.String() {
		t.Errorf("compilation is not deterministic:\n%s\nvs\n%s",
			wf1.Jobs[0].Plan, wf2.Jobs[0].Plan)
	}
}

func TestCompileRequiresTempPrefix(t *testing.T) {
	script, _ := piglatin.Parse(`A = load 'x' as (a); store A into 'o';`)
	lp, _ := logical.Build(script)
	if _, err := Compile(lp, Options{}); err == nil {
		t.Errorf("missing TempPrefix should error")
	}
}
