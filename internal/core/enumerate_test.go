package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/pigmix"
)

func jobFor(t *testing.T, src string) *physical.Job {
	t.Helper()
	wf := compileJobs(t, src, "tmp/en")
	jobs, err := wf.TopoJobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0]
}

func enumerate(t *testing.T, h Heuristic, job *physical.Job) []Candidate {
	t.Helper()
	en := &Enumerator{
		Heuristic: h,
		PathFor: func(j *physical.Job, opID int) string {
			return fmt.Sprintf("cand/%s/op%d", j.ID, opID)
		},
	}
	existing, targets := en.Choose(job)
	return append(existing, en.Inject(job, targets)...)
}

func countInjected(cands []Candidate) int {
	n := 0
	for _, c := range cands {
		if !c.Existing {
			n++
		}
	}
	return n
}

// TestCandidatePrefixesAreNeverBareLoads: the selector keeps every
// candidate and tests only the whole job for a bare Load, because no
// candidate's prefix plan is one. The enumerator never picks a Load,
// Store or Split, so below every candidate there is a Load and at least
// one more operator — over every PigMix query under every heuristic.
func TestCandidatePrefixesAreNeverBareLoads(t *testing.T) {
	for _, name := range pigmix.Names() {
		q, err := pigmix.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []Heuristic{Conservative, Aggressive, NoHeuristic} {
			jobs, err := compileJobs(t, q.Script, "tmp/en").TopoJobs()
			if err != nil {
				t.Fatal(err)
			}
			for _, job := range jobs {
				for _, c := range enumerate(t, h, job) {
					sig := SigOf(job.Plan.PrefixPlan(c.OpID, c.Path))
					if n := sig.OpCount(); n < 2 {
						t.Errorf("%s %v job %s: candidate op %d has a prefix of %d non-Store op(s), want >= 2", name, h, job.ID, c.OpID, n)
					}
				}
			}
		}
	}
}

func TestEnumerateOff(t *testing.T) {
	job := jobFor(t, q1)
	if got := enumerate(t, HeuristicOff, job); got != nil {
		t.Errorf("off enumerated %v", got)
	}
}

func TestEnumerateConservativeInjectsProjections(t *testing.T) {
	job := jobFor(t, q1)
	cands := enumerate(t, Conservative, job)
	// Two ForEach projections feed the join: both injected.
	if got := countInjected(cands); got != 2 {
		t.Fatalf("injected = %d, want 2 (the projections): %+v", got, cands)
	}
	// The plan now contains Split and side Store ops.
	splits, stores := 0, 0
	for _, op := range job.Plan.Ops() {
		switch op.Kind {
		case physical.KSplit:
			splits++
		case physical.KStore:
			stores++
		}
	}
	if splits != 2 || stores != 3 { // main store + 2 side stores
		t.Errorf("splits=%d stores=%d", splits, stores)
	}
	if err := job.Plan.Validate(); err != nil {
		t.Fatalf("plan invalid after injection: %v", err)
	}
}

func TestEnumerateAggressiveAddsPackageAndExistingJoin(t *testing.T) {
	job := jobFor(t, q1)
	cands := enumerate(t, Aggressive, job)
	// Injected: 2 projections + the join Package. Existing: the
	// JoinFlatten output (it feeds the job's own Store).
	if got := countInjected(cands); got != 3 {
		t.Errorf("injected = %d, want 3: %+v", got, cands)
	}
	existing := 0
	for _, c := range cands {
		if c.Existing {
			existing++
			if c.Path != job.OutputPath {
				t.Errorf("existing candidate path = %q, want job output %q", c.Path, job.OutputPath)
			}
		}
	}
	if existing != 1 {
		t.Errorf("existing = %d, want 1 (the join output)", existing)
	}
}

func TestEnumerateSkipsGroupAll(t *testing.T) {
	src := `
A = load 'x' as (a, b);
G = group A all;
S = foreach G generate COUNT(A), SUM(A.b);
store S into 'o';
`
	for _, h := range []Heuristic{Aggressive, NoHeuristic} {
		job := jobFor(t, src)
		var pkgID int
		for _, op := range job.Plan.Ops() {
			if op.Kind == physical.KPackage {
				pkgID = op.ID
			}
		}
		for _, c := range enumerate(t, h, job) {
			if c.OpID == pkgID {
				t.Errorf("%v materialized the GROUP ALL package", h)
			}
		}
	}
}

func TestEnumerateSkipExisting(t *testing.T) {
	job := jobFor(t, q1)
	en := &Enumerator{
		Heuristic: Conservative,
		PathFor:   func(j *physical.Job, opID int) string { return "x" },
		SkipExisting: func(prefix PlanSig) bool {
			return true // everything already stored
		},
	}
	existing, targets := en.Choose(job)
	cands := append(existing, en.Inject(job, targets)...)
	if got := countInjected(cands); got != 0 {
		t.Errorf("injected %d candidates despite SkipExisting", got)
	}
}

// TestParseHeuristic: exactly the four names the -heuristic flag and
// the server's heuristic field document parse; every other name, the
// former aliases included, fails with an error listing the four.
func TestParseHeuristic(t *testing.T) {
	cases := map[string]Heuristic{
		"off": HeuristicOff, "conservative": Conservative,
		"aggressive": Aggressive, "no-heuristic": NoHeuristic,
	}
	for s, want := range cases {
		got, err := ParseHeuristic(s)
		if err != nil || got != want {
			t.Errorf("ParseHeuristic(%q) = %v, %v", s, got, err)
		}
	}
	for _, s := range []string{"whole-jobs", "hc", "ha", "none", "all", "nh", "bogus", "", "Aggressive"} {
		_, err := ParseHeuristic(s)
		if err == nil {
			t.Errorf("ParseHeuristic(%q) accepted", s)
			continue
		}
		if want := "(want off, conservative, aggressive or no-heuristic)"; !strings.Contains(err.Error(), want) {
			t.Errorf("ParseHeuristic(%q) error %q does not list the accepted names", s, err)
		}
	}
}

func TestInjectedPlanStillExecutable(t *testing.T) {
	// After injection the plan must still validate and the injected
	// stores must be reachable from the Split.
	job := jobFor(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
F = filter B by b > 1;
G = group F by a;
S = foreach G generate group, COUNT(F);
store S into 'o';
`)
	cands := enumerate(t, Aggressive, job)
	if countInjected(cands) == 0 {
		t.Fatal("nothing injected")
	}
	if err := job.Plan.Validate(); err != nil {
		t.Fatalf("invalid plan: %v", err)
	}
	// Every injected path has a Store op.
	paths := map[string]bool{}
	for _, op := range job.Plan.Ops() {
		if op.Kind == physical.KStore {
			paths[op.Path] = true
		}
	}
	for _, c := range cands {
		if !paths[c.Path] {
			t.Errorf("candidate %q has no Store op", c.Path)
		}
	}
}
