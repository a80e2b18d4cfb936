package core

import (
	"strings"
	"testing"

	"repro/internal/logical"
	"repro/internal/mrcompile"
	"repro/internal/physical"
	"repro/internal/piglatin"
)

// compileJobs compiles a script to a workflow for matcher tests.
func compileJobs(t testing.TB, src, tempPrefix string) *physical.Workflow {
	t.Helper()
	script, err := piglatin.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	lp, err := logical.Build(script)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	wf, err := mrcompile.Compile(lp, mrcompile.Options{TempPrefix: tempPrefix, DefaultReducers: 2})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return wf
}

func firstJobSig(t testing.TB, src string) PlanSig {
	t.Helper()
	wf := compileJobs(t, src, "tmp/m")
	return SigOf(wf.Jobs[0].Plan)
}

const q1 = `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
store C into 'q1_out';
`

// q2 extends q1's computation with grouping and aggregation (the paper's
// running example): q1's job plan is contained in q2's first job.
const q2 = `
A = load 'page_views' as (user, timestamp, est_revenue, page_info, page_links);
B = foreach A generate user, est_revenue;
alpha = load 'users' as (name, phone, address, city);
beta = foreach alpha generate name;
C = join beta by name, B by user;
D = group C by $0;
E = foreach D generate group, SUM(C.est_revenue);
store E into 'q2_out';
`

func TestMatchPlanContainsItself(t *testing.T) {
	sig := firstJobSig(t, q1)
	mapping, ok := Match(sig, sig)
	if !ok {
		t.Fatal("plan must match itself")
	}
	// Identity mapping except the Store (excluded from matching).
	for rid, iid := range mapping {
		if rid != iid {
			t.Errorf("self-match mapped %d -> %d", rid, iid)
		}
	}
}

func TestMatchQ1ContainedInQ2FirstJob(t *testing.T) {
	q1sig := firstJobSig(t, q1)
	wf2 := compileJobs(t, q2, "tmp/m2")
	jobs, _ := wf2.TopoJobs()
	q2sig := SigOf(jobs[0].Plan)

	mapping, ok := Match(q1sig, q2sig)
	if !ok {
		t.Fatalf("q1 job should be contained in q2's first job\nq1:\n%v\nq2:\n%v", q1sig, q2sig)
	}
	// The frontier must be q2's JoinFlatten.
	frontier := mapping[q1sig.resultOp()]
	fop := q2sig.op(frontier)
	if fop.Kind != physical.KJoinFlatten {
		t.Errorf("frontier = %v, want JoinFlatten", fop.Kind)
	}
	// The reverse must NOT hold: q2's first job is not contained in q1's
	// (q2's job equals q1's plus nothing; they are actually equivalent
	// up to the store) — both jobs compute the same join, so mutual
	// containment is expected here.
	if _, ok := Match(q2sig, q1sig); !ok {
		t.Errorf("the join jobs are structurally identical; reverse containment should hold")
	}
}

func TestMatchQ2SecondJobNotInQ1(t *testing.T) {
	wf2 := compileJobs(t, q2, "tmp/m3")
	jobs, _ := wf2.TopoJobs()
	groupJob := SigOf(jobs[1].Plan)
	q1sig := firstJobSig(t, q1)
	if _, ok := Match(groupJob, q1sig); ok {
		t.Errorf("the group job must not match the join job")
	}
}

func TestMatchDifferentDatasetsDoNotMatch(t *testing.T) {
	a := firstJobSig(t, `
A = load 'x' as (a, b);
B = foreach A generate a;
store B into 'o';
`)
	b := firstJobSig(t, `
A = load 'y' as (a, b);
B = foreach A generate a;
store B into 'o';
`)
	if _, ok := Match(a, b); ok {
		t.Errorf("plans over different datasets must not match")
	}
}

func TestMatchDifferentProjectionsDoNotMatch(t *testing.T) {
	a := firstJobSig(t, `
A = load 'x' as (a, b);
B = foreach A generate a;
store B into 'o';
`)
	b := firstJobSig(t, `
A = load 'x' as (a, b);
B = foreach A generate b;
store B into 'o';
`)
	if _, ok := Match(a, b); ok {
		t.Errorf("different projections must not match")
	}
}

func TestMatchPrefixContained(t *testing.T) {
	prefix := firstJobSig(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
store B into 'o';
`)
	full := firstJobSig(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
C = filter B by b > 10;
store C into 'o2';
`)
	mapping, ok := Match(prefix, full)
	if !ok {
		t.Fatal("projection prefix should be contained")
	}
	f := full.op(mapping[prefix.resultOp()])
	if f.Kind != physical.KForEach {
		t.Errorf("frontier = %v", f.Kind)
	}
	// Reverse: the longer plan is not contained in the prefix.
	if _, ok := Match(full, prefix); ok {
		t.Errorf("longer plan must not be contained in its prefix")
	}
}

func TestMatchFilterConditionMatters(t *testing.T) {
	a := firstJobSig(t, `
A = load 'x' as (a, b);
B = filter A by b > 10;
store B into 'o';
`)
	b := firstJobSig(t, `
A = load 'x' as (a, b);
B = filter A by b > 20;
store B into 'o';
`)
	if _, ok := Match(a, b); ok {
		t.Errorf("filters with different predicates must not match")
	}
}

func TestMatchJoinBranchOrderMatters(t *testing.T) {
	// Same datasets joined with swapped branch order produce different
	// output column order — they must not match.
	a := firstJobSig(t, `
A = load 'x' as (k, v);
B = load 'y' as (k2, w);
J = join A by k, B by k2;
store J into 'o';
`)
	b := firstJobSig(t, `
A = load 'x' as (k, v);
B = load 'y' as (k2, w);
J = join B by k2, A by k;
store J into 'o';
`)
	if _, ok := Match(a, b); ok {
		t.Errorf("joins with swapped branches must not match")
	}
}

func TestMatchGroupVsCoGroupKeysDiffer(t *testing.T) {
	a := firstJobSig(t, `
A = load 'x' as (k, v);
G = group A by k;
S = foreach G generate group, COUNT(A);
store S into 'o';
`)
	b := firstJobSig(t, `
A = load 'x' as (k, v);
G = group A by v;
S = foreach G generate group, COUNT(A);
store S into 'o';
`)
	if _, ok := Match(a, b); ok {
		t.Errorf("groups on different keys must not match")
	}
}

func TestMatchUnionContainment(t *testing.T) {
	u := firstJobSig(t, `
A = load 'x' as (a);
B = load 'y' as (a);
C = union A, B;
D = distinct C;
store D into 'o';
`)
	mapping, ok := Match(u, u)
	if !ok || len(mapping) == 0 {
		t.Fatalf("union plan must self-match")
	}
}

func TestContainsIsReflexiveAndDetectsSubsumption(t *testing.T) {
	small := firstJobSig(t, `
A = load 'pv' as (u, r);
B = foreach A generate u;
store B into 'o';
`)
	big := firstJobSig(t, `
A = load 'pv' as (u, r);
B = foreach A generate u;
C = distinct B;
store C into 'o2';
`)
	if !Contains(small, small) {
		t.Errorf("Contains must be reflexive")
	}
	if !Contains(big, small) {
		t.Errorf("big should subsume small")
	}
	if Contains(small, big) {
		t.Errorf("small must not subsume big")
	}
}

func TestMatchStorePathIrrelevant(t *testing.T) {
	a := firstJobSig(t, `
A = load 'x' as (a, b);
B = filter A by b > 1;
store B into 'somewhere';
`)
	b := firstJobSig(t, `
A = load 'x' as (a, b);
B = filter A by b > 1;
store B into 'elsewhere';
`)
	if _, ok := Match(a, b); !ok {
		t.Errorf("store destination must not affect matching")
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a1 := firstJobSig(t, q1)
	a2 := firstJobSig(t, q1)
	if a1.Fingerprint() != a2.Fingerprint() {
		t.Errorf("fingerprints of identical compilations differ")
	}
	// q2's FIRST job is the same join as q1's job, so fingerprints must
	// collide there (that collision is what dedups repository entries);
	// its SECOND job is different and must not collide.
	wf2 := compileJobs(t, q2, "tmp/fp")
	jobs, _ := wf2.TopoJobs()
	j0 := SigOf(jobs[0].Plan)
	j1 := SigOf(jobs[1].Plan)
	if a1.Fingerprint() != j0.Fingerprint() {
		t.Errorf("identical join jobs should share a fingerprint")
	}
	if a1.Fingerprint() == j1.Fingerprint() {
		t.Errorf("different plans share a fingerprint")
	}
	if !strings.Contains(a1.Fingerprint(), "load(page_views)") {
		t.Errorf("fingerprint should mention load paths: %s", a1.Fingerprint())
	}
}

func TestSigLoadPaths(t *testing.T) {
	sig := firstJobSig(t, q1)
	paths := sig.loadPaths()
	if len(paths) != 2 || paths[0] != "page_views" || paths[1] != "users" {
		t.Errorf("loadPaths = %v", paths)
	}
}
