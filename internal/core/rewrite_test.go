package core

import (
	"testing"

	"repro/internal/dfs"
	"repro/internal/obs"
	"repro/internal/physical"
)

// buildRepoWith registers the given scripts' first jobs as entries
// whose outputs exist in the FS, returning the rewriter.
func buildRepoWith(t *testing.T, fs *dfs.FS, srcs ...string) *Rewriter {
	t.Helper()
	repo := NewRepository()
	for i, src := range srcs {
		sig := firstJobSig(t, src)
		out := "stored/e" + string(rune('a'+i))
		fs.WriteFile(out+"/part-00000", []byte("x\t1\n"))
		versions := map[string]int64{}
		for _, p := range sig.loadPaths() {
			if !fs.Exists(p) {
				fs.WriteFile(p+"/part-00000", []byte("x\t1\n"))
			}
			versions[p] = fs.Version(p)
		}
		repo.Insert(&Entry{
			Plan:          sig,
			OutputPath:    out,
			InputVersions: versions,
			Stats:         EntryStats{InputSimBytes: 100, OutputSimBytes: 10},
		})
	}
	// Entries registered after inputs were (possibly) created above may
	// have stale versions; refresh them all.
	for _, e := range allEntries(repo) {
		for p := range e.InputVersions {
			e.InputVersions[p] = fs.Version(p)
		}
	}
	return &Rewriter{Repo: repo, FS: fs}
}

func TestRewriteReplacesPrefixWithLoad(t *testing.T) {
	fs := dfs.New()
	rw := buildRepoWith(t, fs, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
store B into 'o';
`)
	wf := compileJobs(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
C = filter B by b > 10;
store C into 'final';
`, "tmp/rw1")
	job := wf.Jobs[0]
	before := job.Plan.Len()
	events := rw.RewriteJob(job, false, obs.NoSpan)
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	if events[0].WholeJob {
		t.Errorf("prefix match misclassified as whole job")
	}
	if job.Plan.Len() >= before {
		t.Errorf("plan did not shrink: %d -> %d", before, job.Plan.Len())
	}
	// The rewritten plan must be Load(stored) -> Filter -> Store.
	var loads, filters, foreaches int
	for _, op := range job.Plan.Ops() {
		switch op.Kind {
		case physical.KLoad:
			loads++
			if op.Path != "stored/ea" {
				t.Errorf("load path = %q", op.Path)
			}
		case physical.KFilter:
			filters++
		case physical.KForEach:
			foreaches++
		}
	}
	if loads != 1 || filters != 1 || foreaches != 0 {
		t.Errorf("rewritten shape: loads=%d filters=%d foreaches=%d\n%s",
			loads, filters, foreaches, job.Plan)
	}
	if err := job.Plan.Validate(); err != nil {
		t.Fatalf("rewritten plan invalid: %v", err)
	}
}

func TestRewriteWholePlanClassification(t *testing.T) {
	fs := dfs.New()
	src := `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
store B into 'o';
`
	rw := buildRepoWith(t, fs, src)
	wf := compileJobs(t, src, "tmp/rw2")
	job := wf.Jobs[0]

	// allowWhole=false: no event at all (the only match is whole-plan).
	if events := rw.RewriteJob(job, false, obs.NoSpan); len(events) != 0 {
		t.Fatalf("final job rewrote with whole-plan match: %v", events)
	}
	// allowWhole=true: whole-plan event, plan becomes a copy job.
	wf2 := compileJobs(t, src, "tmp/rw3")
	job2 := wf2.Jobs[0]
	events := rw.RewriteJob(job2, true, obs.NoSpan)
	if len(events) != 1 || !events[0].WholeJob {
		t.Fatalf("events = %v", events)
	}
	if job2.Plan.Len() != 2 { // Load + Store
		t.Errorf("copy-job plan has %d ops:\n%s", job2.Plan.Len(), job2.Plan)
	}
}

func TestRewriteMultipleEntriesOneJob(t *testing.T) {
	// Two independent prefix entries (one per join branch) both rewrite
	// the same job via repeated scans.
	fs := dfs.New()
	rw := buildRepoWith(t, fs,
		`
A = load 'pv' as (u, r);
B = foreach A generate u, r;
store B into 'o1';
`,
		`
C = load 'users' as (n, p);
D = foreach C generate n;
store D into 'o2';
`)
	wf := compileJobs(t, `
A = load 'pv' as (u, r);
B = foreach A generate u, r;
C = load 'users' as (n, p);
D = foreach C generate n;
J = join D by n, B by u;
store J into 'final';
`, "tmp/rw4")
	job := wf.Jobs[0]
	events := rw.RewriteJob(job, false, obs.NoSpan)
	if len(events) != 2 {
		t.Fatalf("expected both branch prefixes to rewrite, got %v", events)
	}
	// No ForEach should remain; both branches load stored projections.
	for _, op := range job.Plan.Ops() {
		if op.Kind == physical.KForEach {
			t.Errorf("projection survived rewriting:\n%s", job.Plan)
		}
	}
	if err := job.Plan.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
}

func TestRewriteSkipsInvalidEntries(t *testing.T) {
	fs := dfs.New()
	rw := buildRepoWith(t, fs, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
store B into 'o';
`)
	// Invalidate by touching the input dataset.
	fs.WriteFile("x/part-00001", []byte("y\t2\t3\n"))
	wf := compileJobs(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
C = filter B by b > 1;
store C into 'f';
`, "tmp/rw5")
	if events := rw.RewriteJob(wf.Jobs[0], false, obs.NoSpan); len(events) != 0 {
		t.Errorf("stale entry was used: %v", events)
	}
}

func TestRewriteTerminates(t *testing.T) {
	// A repository whose entry output equals a dataset the rewritten
	// plan then loads must not loop: rewriting a Load into the same
	// Load makes no progress and is rejected.
	fs := dfs.New()
	rw := buildRepoWith(t, fs, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
store B into 'o';
`)
	wf := compileJobs(t, `
A = load 'x' as (a, b, c);
B = foreach A generate a, b;
G = group B by a;
S = foreach G generate group, COUNT(B);
store S into 'f';
`, "tmp/rw6")
	job := wf.Jobs[0]
	events := rw.RewriteJob(job, false, obs.NoSpan)
	if len(events) != 1 {
		t.Fatalf("events = %v", events)
	}
	// Scanning again finds nothing new.
	if more := rw.RewriteJob(job, false, obs.NoSpan); len(more) != 0 {
		t.Errorf("rewriting did not reach a fixpoint: %v", more)
	}
}
